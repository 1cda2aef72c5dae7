#ifndef MV3C_WORKLOADS_TATP_H_
#define MV3C_WORKLOADS_TATP_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/nurand.h"
#include "common/random.h"
#include "mv3c/mv3c_executor.h"
#include "omvcc/omvcc_transaction.h"

namespace mv3c::tatp {

/// The TATP telecom benchmark (paper Appendix C.1): four tables keyed by
/// subscriber, a 7-transaction mix that is 80% read-only, and non-uniform
/// subscriber selection. Scale factor 1 is 1,000,000 subscribers; the
/// population is a parameter so tests can shrink it.
///
/// Per the paper, the decisive difference between the engines on TATP is
/// UPDATE_LOCATION: a blind write that MV3C accepts without conflict
/// (§2.4.1) while OMVCC prematurely aborts on the write-write conflict.

// --- rows and keys ---

inline constexpr int kColBits = 0;
inline constexpr int kColMscLocation = 1;
inline constexpr int kColVlrLocation = 2;

struct SubscriberRow {
  uint64_t sub_nbr = 0;
  uint32_t bits = 0;        // bit_1..bit_10
  uint32_t msc_location = 0;
  uint32_t vlr_location = 0;
  char pad_[4] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const SubscriberRow& base, ColumnMask modified) {
    if (!modified.Contains(kColBits)) bits = base.bits;
    if (!modified.Contains(kColMscLocation)) msc_location = base.msc_location;
    if (!modified.Contains(kColVlrLocation)) vlr_location = base.vlr_location;
  }
};

struct AccessInfoKey {
  uint64_t s_id = 0;
  uint8_t ai_type = 0;  // 1..4
  char pad_[7] = {};    // explicit tail padding: WAL keys must have none
  friend bool operator==(const AccessInfoKey&, const AccessInfoKey&) =
      default;
};
struct AccessInfoRow {
  // data3 leads so the uint16 pair packs without internal padding (WAL
  // rows must have none).
  uint64_t data3 = 0;
  uint64_t data4 = 0;
  uint16_t data1 = 0;
  uint16_t data2 = 0;
  char pad_[4] = {};  // explicit tail padding
};

struct SpecialFacilityKey {
  uint64_t s_id = 0;
  uint8_t sf_type = 0;  // 1..4
  char pad_[7] = {};    // explicit tail padding: WAL keys must have none
  friend bool operator==(const SpecialFacilityKey&,
                         const SpecialFacilityKey&) = default;
};
inline constexpr int kColIsActive = 0;
inline constexpr int kColDataA = 1;
struct SpecialFacilityRow {
  // data_b leads so the narrow members pack without internal padding (WAL
  // rows must have none).
  uint64_t data_b = 0;
  uint16_t error_cntrl = 0;
  uint16_t data_a = 0;
  bool is_active = true;
  char pad_[3] = {};  // explicit tail padding

  void MergeFrom(const SpecialFacilityRow& base, ColumnMask modified) {
    if (!modified.Contains(kColIsActive)) is_active = base.is_active;
    if (!modified.Contains(kColDataA)) {
      error_cntrl = base.error_cntrl;
      data_a = base.data_a;
      data_b = base.data_b;
    }
  }
};

struct CallForwardingKey {
  uint64_t s_id = 0;
  uint8_t sf_type = 0;
  uint8_t start_time = 0;  // 0, 8, 16
  char pad_[6] = {};       // explicit tail padding: WAL keys must have none
  friend bool operator==(const CallForwardingKey&,
                         const CallForwardingKey&) = default;
};
struct CallForwardingRow {
  // numberx leads so end_time packs without internal padding (WAL rows
  // must have none).
  uint64_t numberx = 0;
  uint8_t end_time = 0;
  char pad_[7] = {};  // explicit tail padding
};

struct KeyHash {
  size_t operator()(const AccessInfoKey& k) const {
    return std::hash<uint64_t>()(k.s_id * 31 + k.ai_type);
  }
  size_t operator()(const SpecialFacilityKey& k) const {
    return std::hash<uint64_t>()(k.s_id * 37 + k.sf_type);
  }
  size_t operator()(const CallForwardingKey& k) const {
    return std::hash<uint64_t>()(k.s_id * 41 + k.sf_type * 5 + k.start_time);
  }
};

}  // namespace mv3c::tatp

// Hash support for the composite keys (CuckooMap defaults to std::hash).
template <>
struct std::hash<mv3c::tatp::AccessInfoKey> : mv3c::tatp::KeyHash {};
template <>
struct std::hash<mv3c::tatp::SpecialFacilityKey> : mv3c::tatp::KeyHash {};
template <>
struct std::hash<mv3c::tatp::CallForwardingKey> : mv3c::tatp::KeyHash {};

namespace mv3c::tatp {

using SubscriberTable = Table<uint64_t, SubscriberRow>;
using AccessInfoTable = Table<AccessInfoKey, AccessInfoRow>;
using SpecialFacilityTable = Table<SpecialFacilityKey, SpecialFacilityRow>;
using CallForwardingTable = Table<CallForwardingKey, CallForwardingRow>;

class TatpDb {
 public:
  TatpDb(TransactionManager* mgr, uint64_t n_subscribers)
      : subscribers("Subscriber", n_subscribers, WwPolicy::kAllowMultiple),
        access_info("Access_Info", n_subscribers * 3),
        special_facilities("Special_Facility", n_subscribers * 3),
        call_forwarding("Call_Forwarding", n_subscribers * 2),
        mgr_(mgr),
        n_(n_subscribers) {}

  /// TATP population rules: each subscriber has 1-4 access-info rows and
  /// 1-4 special facilities; ~31% of (facility, time-slot) pairs carry an
  /// initial call-forwarding row.
  void Load(uint64_t seed = 1) {
    Xoshiro256 rng(seed);
    Mv3cExecutor loader(mgr_);
    for (uint64_t base = 0; base < n_; base += 2048) {
      loader.MustRun([&](Mv3cTransaction& t) {
        const uint64_t end = std::min(n_, base + 2048);
        for (uint64_t s = base; s < end; ++s) {
          SubscriberRow row;
          row.sub_nbr = SubNbrOf(s);
          row.bits = static_cast<uint32_t>(rng.Next());
          row.msc_location = static_cast<uint32_t>(rng.Next());
          row.vlr_location = static_cast<uint32_t>(rng.Next());
          t.InsertRow(subscribers, s, row);
          const int n_ai = 1 + static_cast<int>(rng.NextBounded(4));
          for (int a = 1; a <= n_ai; ++a) {
            AccessInfoRow ai;
            ai.data1 = static_cast<uint16_t>(rng.Next());
            ai.data2 = static_cast<uint16_t>(rng.Next());
            ai.data3 = rng.Next();
            ai.data4 = rng.Next();
            t.InsertRow(access_info, {s, static_cast<uint8_t>(a)}, ai);
          }
          const int n_sf = 1 + static_cast<int>(rng.NextBounded(4));
          for (int f = 1; f <= n_sf; ++f) {
            SpecialFacilityRow sf;
            sf.is_active = rng.NextBounded(100) < 85;
            sf.error_cntrl = static_cast<uint16_t>(rng.Next());
            sf.data_a = static_cast<uint16_t>(rng.Next());
            sf.data_b = rng.Next();
            t.InsertRow(special_facilities, {s, static_cast<uint8_t>(f)}, sf);
            for (uint8_t start : {0, 8, 16}) {
              if (rng.NextBounded(100) < 31) {
                CallForwardingRow cf;
                cf.end_time = static_cast<uint8_t>(start + 8);
                cf.numberx = rng.Next();
                t.InsertRow(call_forwarding,
                            {s, static_cast<uint8_t>(f), start}, cf);
              }
            }
          }
        }
        return ExecStatus::kOk;
      });
    }
  }

  static uint64_t SubNbrOf(uint64_t s_id) { return s_id; }

  uint64_t n_subscribers() const { return n_; }
  TransactionManager* manager() { return mgr_; }

  SubscriberTable subscribers;
  AccessInfoTable access_info;
  SpecialFacilityTable special_facilities;
  CallForwardingTable call_forwarding;

 private:
  TransactionManager* mgr_;
  uint64_t n_;
};

// --- transaction parameters & generator ---

enum class TxnType : uint8_t {
  kGetSubscriberData,
  kGetNewDestination,
  kGetAccessData,
  kUpdateSubscriberData,
  kUpdateLocation,
  kInsertCallForwarding,
  kDeleteCallForwarding,
};

/// Field order is wire layout: TatpParams travels verbatim inside
/// serving-protocol frames (src/server/protocol.h), so wide fields lead
/// and the byte-sized tail is padded explicitly (§5f discipline).
struct TatpParams {
  uint64_t s_id = 0;
  uint64_t numberx = 0;
  uint32_t bit = 0;
  uint32_t location = 0;
  uint16_t data_a = 0;
  TxnType type = TxnType::kGetSubscriberData;
  uint8_t ai_type = 1;
  uint8_t sf_type = 1;
  uint8_t start_time = 0;
  uint8_t end_time = 8;
  uint8_t pad_ = 0;
};
static_assert(sizeof(TatpParams) == 32);
static_assert(std::has_unique_object_representations_v<TatpParams>);

/// TATP mix and non-uniform key generator (A constant per population).
class TatpGenerator {
 public:
  TatpGenerator(uint64_t n_subscribers, uint64_t seed)
      : n_(n_subscribers),
        a_(TatpAConstant(n_subscribers)),
        nurand_(n_subscribers / 2 + 1),
        rng_(seed) {}

  TatpParams Next() {
    TatpParams p;
    const uint64_t mix = rng_.NextBounded(100);
    if (mix < 35) {
      p.type = TxnType::kGetSubscriberData;
    } else if (mix < 45) {
      p.type = TxnType::kGetNewDestination;
    } else if (mix < 80) {
      p.type = TxnType::kGetAccessData;
    } else if (mix < 82) {
      p.type = TxnType::kUpdateSubscriberData;
    } else if (mix < 96) {
      p.type = TxnType::kUpdateLocation;
    } else if (mix < 98) {
      p.type = TxnType::kInsertCallForwarding;
    } else {
      p.type = TxnType::kDeleteCallForwarding;
    }
    p.s_id = nurand_.Next(rng_, a_, 0, n_ - 1);
    p.ai_type = static_cast<uint8_t>(1 + rng_.NextBounded(4));
    p.sf_type = static_cast<uint8_t>(1 + rng_.NextBounded(4));
    p.start_time = static_cast<uint8_t>(8 * rng_.NextBounded(3));
    p.end_time = static_cast<uint8_t>(1 + rng_.NextBounded(24));
    p.data_a = static_cast<uint16_t>(rng_.Next());
    p.bit = static_cast<uint32_t>(rng_.NextBounded(2));
    p.location = static_cast<uint32_t>(rng_.Next());
    p.numberx = rng_.Next();
    return p;
  }

 private:
  uint64_t n_;
  uint64_t a_;
  NuRand nurand_;
  Xoshiro256 rng_;
};

// --- programs ---

/// The program of one TATP transaction, written once in the MV3C DSL for
/// both MVCC engines (`Exec` is Mv3cExecutor or OmvccExecutor).
template <typename Exec>
typename Exec::Program TatpProgram(TatpDb& db, const TatpParams& p);

}  // namespace mv3c::tatp

#endif  // MV3C_WORKLOADS_TATP_H_
