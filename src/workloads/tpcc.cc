#include "workloads/tpcc.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/macros.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"

namespace mv3c::tpcc {

namespace {

constexpr ColumnMask kAllCols = ColumnMask::All();

/// Writes population rows into one storage. `Batch(fill)` calls
/// `fill(put)`, where `put(table, key, row)` stores one row: the MVCC
/// storage commits each batch as one MV3C transaction, the single-version
/// storage writes rows in place at TID 1.
template <typename Storage>
class RowLoader;

template <>
class RowLoader<MvccStorage> {
 public:
  explicit RowLoader(TransactionManager* mgr) : exec_(mgr) {}
  template <typename Fill>
  void Batch(Fill&& fill) {
    exec_.MustRun([&](Mv3cTransaction& t) {
      fill([&t](auto& table, uint64_t key, const auto& row) {
        (void)t.InsertRow(table, key, row);
      });
      return ExecStatus::kOk;
    });
  }

 private:
  Mv3cExecutor exec_;
};

template <>
class RowLoader<SvStorage> {
 public:
  explicit RowLoader(TransactionManager*) {}
  template <typename Fill>
  void Batch(Fill&& fill) {
    fill([](auto& table, uint64_t key, const auto& row) {
      table.LoadRow(key, row);
    });
  }
};

/// Reads the latest committed row of `key` into `*out`; false if there is
/// none. Only valid when callers tolerate an instantaneous snapshot
/// (consistency checks).
template <typename Row>
bool LatestRow(const MvccStorage::Table<Row>& table, uint64_t key,
               Row* out) {
  const auto* obj = table.Find(key);
  const auto* v =
      obj == nullptr ? nullptr : obj->ReadVisible(kTxnIdBase - 1, 0);
  if (v == nullptr) return false;
  *out = v->data();
  return true;
}

template <typename Row>
bool LatestRow(const SvStorage::Table<Row>& table, uint64_t key, Row* out) {
  const auto* rec = table.Find(key);
  return rec != nullptr && !sv::IsAbsent(rec->ReadStable(out));
}

}  // namespace

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

template <typename Storage>
void TpccDatabase<Storage>::Load(uint64_t seed) {
  Xoshiro256 rng(seed);
  RowLoader<Storage> loader(mgr_);
  const TpccScale& s = scale_;

  // ITEM: shared across warehouses.
  for (uint64_t base = 1; base <= s.n_items; base += 4096) {
    loader.Batch([&](auto put) {
      const uint64_t end = std::min(s.n_items, base + 4095);
      for (uint64_t i = base; i <= end; ++i) {
        ItemRow row;
        row.price = 100 + static_cast<int64_t>(rng.NextBounded(9900));
        row.im_id = static_cast<uint32_t>(1 + rng.NextBounded(10000));
        put(items, i, row);
      }
    });
  }

  for (uint64_t w = 1; w <= s.n_warehouses; ++w) {
    loader.Batch([&](auto put) {
      WarehouseRow wr;
      wr.tax = static_cast<int32_t>(rng.NextBounded(2001));
      wr.ytd = 30000000;  // 300,000.00
      put(warehouses, w, wr);
    });
    // STOCK.
    for (uint64_t base = 1; base <= s.n_items; base += 2048) {
      loader.Batch([&](auto put) {
        const uint64_t end = std::min(s.n_items, base + 2047);
        for (uint64_t i = base; i <= end; ++i) {
          StockRow row;
          row.quantity = static_cast<int32_t>(10 + rng.NextBounded(91));
          put(stock, StockKey(w, i), row);
        }
      });
    }
    for (uint64_t d = 1; d <= s.n_districts; ++d) {
      loader.Batch([&](auto put) {
        DistrictRow dr;
        dr.tax = static_cast<int32_t>(rng.NextBounded(2001));
        dr.ytd = 3000000;  // 30,000.00
        dr.next_o_id = static_cast<uint32_t>(s.preload_orders_per_d + 1);
        put(districts, DistrictKey(w, d), dr);
      });
      // CUSTOMER + HISTORY.
      for (uint64_t base = 1; base <= s.n_customers_per_d; base += 1024) {
        loader.Batch([&](auto put) {
          const uint64_t end = std::min(s.n_customers_per_d, base + 1023);
          for (uint64_t c = base; c <= end; ++c) {
            CustomerRow row;
            // Spec: the first 1000 customers get sequential last names so
            // that every name id 0..999 exists; the rest are NURand(255).
            row.last_name_id =
                c <= 1000 ? static_cast<uint16_t>(c - 1)
                          : static_cast<uint16_t>(
                                NuRand(123).Next(rng, 255, 0, 999));
            row.discount = static_cast<int32_t>(rng.NextBounded(5001));
            row.bad_credit = rng.NextBounded(100) < 10;
            const uint64_t key = CustomerKey(w, d, c);
            put(customers, key, row);
            MV3C_CHECK(customers_by_name.Insert(
                {DistrictKey(w, d), row.last_name_id, key},
                customers.Find(key)));
            HistoryRow h;
            h.c_key = key;
            h.d_key = DistrictKey(w, d);
            h.amount = 1000;
            put(history, NextHistoryKey(), h);
          }
        });
      }
      // ORDER / ORDER-LINE / NEW-ORDER preload: customers in a random
      // permutation, the last `preload_new_orders_per_d` undelivered.
      std::vector<uint64_t> perm(s.preload_orders_per_d);
      std::iota(perm.begin(), perm.end(), 1);
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
      }
      for (uint64_t base = 1; base <= s.preload_orders_per_d; base += 256) {
        loader.Batch([&](auto put) {
          const uint64_t end = std::min(s.preload_orders_per_d, base + 255);
          for (uint64_t o = base; o <= end; ++o) {
            const bool delivered =
                o + s.preload_new_orders_per_d <= s.preload_orders_per_d;
            const uint64_t c = 1 + (perm[o - 1] - 1) % s.n_customers_per_d;
            OrderRow orow;
            orow.c_id = c;
            orow.entry_d = o;
            orow.ol_cnt = static_cast<uint8_t>(5 + rng.NextBounded(11));
            orow.carrier_id =
                delivered ? static_cast<int32_t>(1 + rng.NextBounded(10))
                          : -1;
            const uint64_t okey = OrderKey(w, d, o);
            put(orders, okey, orow);
            MV3C_CHECK(orders_by_customer.Insert(CustomerOrderKey(w, d, c, o),
                                                 orders.Find(okey)));
            for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
              OrderLineRow lrow;
              lrow.i_id = 1 + rng.NextBounded(s.n_items);
              lrow.supply_w_id = w;
              lrow.quantity = 5;
              lrow.delivery_d = delivered ? o : 0;
              lrow.amount =
                  delivered ? 0
                            : static_cast<int64_t>(1 +
                                                   rng.NextBounded(999999));
              const uint64_t lkey = OrderLineKey(w, d, o, ol);
              put(order_lines, lkey, lrow);
              MV3C_CHECK(order_lines_by_district.Insert(
                  lkey, order_lines.Find(lkey)));
            }
            if (!delivered) {
              put(new_orders, okey, NewOrderRow{});
              MV3C_CHECK(new_order_queue.Insert(okey, new_orders.Find(okey)));
            }
          }
        });
      }
    }
  }
}

template void TpccDatabase<MvccStorage>::Load(uint64_t);
template void TpccDatabase<SvStorage>::Load(uint64_t);

template <typename Storage>
size_t TpccDatabase<Storage>::CleanupNewOrderQueue()
  requires kMultiVersion
{
  // An entry is removable when no active transaction could still see the
  // row: every version is committed and the newest committed one is a
  // tombstone older than the GC watermark. NEW-ORDER keys are never
  // reused, so a removed entry can never need to come back.
  const Timestamp watermark = mgr_->OldestActiveStart();
  size_t removed = 0;
  for (uint64_t w = 1; w <= scale_.n_warehouses; ++w) {
    for (uint64_t d = 1; d <= scale_.n_districts; ++d) {
      std::vector<uint64_t> ghosts;
      new_order_queue.ScanRange(
          OrderKey(w, d, 0), OrderKey(w, d, kMaxOrdersPerD - 1),
          [&](uint64_t key, auto* obj) {
            // Stop at the first live (or possibly-live) entry: the queue
            // is delivered in order, so everything after it is live too.
            const VersionBase* newest = obj->head();
            if (newest == nullptr) return true;  // ghost of aborted insert
            for (const VersionBase* v = newest; v != nullptr;
                 v = v->next()) {
              const Timestamp t = v->ts();
              if (t == kDeadVersion) continue;
              if (IsTxnId(t)) return false;  // uncommitted: stop cleanup
              if (v->tombstone() && t < watermark) {
                ghosts.push_back(key);
                return true;
              }
              return false;  // live committed row: stop
            }
            return true;  // only dead versions: ghost
          });
      for (uint64_t key : ghosts) {
        if (new_order_queue.Erase(key)) ++removed;
      }
    }
  }
  return removed;
}

template size_t TpccDatabase<MvccStorage>::CleanupNewOrderQueue();

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TpccParams TpccGenerator::Next() {
  TpccParams p;
  p.w_id = 1 + rng_.NextBounded(scale_.n_warehouses);
  p.d_id = 1 + rng_.NextBounded(scale_.n_districts);
  p.date = date_seq_++;
  const uint64_t mix = rng_.NextBounded(100);
  if (mix < 45) {
    p.type = TpccTxnType::kNewOrder;
    p.c_id = nurand_c_id_.Next(rng_, 1023, 1, scale_.n_customers_per_d);
    p.ol_cnt = static_cast<uint8_t>(5 + rng_.NextBounded(11));
    const bool rollback = rng_.NextBounded(100) < 1;  // 1% invalid item
    for (uint8_t i = 0; i < p.ol_cnt; ++i) {
      p.items[i].i_id = nurand_i_id_.Next(rng_, 8191, 1, scale_.n_items);
      p.items[i].quantity = static_cast<uint8_t>(1 + rng_.NextBounded(10));
      p.items[i].supply_w = p.w_id;
      if (scale_.n_warehouses > 1 && rng_.NextBounded(100) < 1) {
        do {
          p.items[i].supply_w = 1 + rng_.NextBounded(scale_.n_warehouses);
        } while (p.items[i].supply_w == p.w_id);
      }
    }
    if (rollback) p.items[p.ol_cnt - 1].i_id = scale_.n_items + 1;
  } else if (mix < 88) {
    p.type = TpccTxnType::kPayment;
    p.amount = static_cast<int64_t>(100 + rng_.NextBounded(500000));
    p.by_last_name = rng_.NextBounded(100) < 60;
    p.c_last = static_cast<uint16_t>(nurand_c_last_.Next(rng_, 255, 0, 999));
    p.c_id = nurand_c_id_.Next(rng_, 1023, 1, scale_.n_customers_per_d);
    p.c_w_id = p.w_id;
    p.c_d_id = p.d_id;
    if (scale_.n_warehouses > 1 && rng_.NextBounded(100) < 15) {
      do {
        p.c_w_id = 1 + rng_.NextBounded(scale_.n_warehouses);
      } while (p.c_w_id == p.w_id);
      p.c_d_id = 1 + rng_.NextBounded(scale_.n_districts);
    }
  } else if (mix < 92) {
    p.type = TpccTxnType::kOrderStatus;
    p.by_last_name = rng_.NextBounded(100) < 60;
    p.c_last = static_cast<uint16_t>(nurand_c_last_.Next(rng_, 255, 0, 999));
    p.c_id = nurand_c_id_.Next(rng_, 1023, 1, scale_.n_customers_per_d);
  } else if (mix < 96) {
    p.type = TpccTxnType::kDelivery;
    p.carrier_id = static_cast<int32_t>(1 + rng_.NextBounded(10));
  } else {
    p.type = TpccTxnType::kStockLevel;
    p.threshold = static_cast<int32_t>(10 + rng_.NextBounded(11));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Transaction programs (one DSL body each, for all four engines)
// ---------------------------------------------------------------------------

namespace {

/// Middle customer of a by-last-name run (spec clause 2.5.2.2: position
/// n/2 rounded up in the run ordered by first name; we order by c_id).
template <typename Entries>
size_t MiddleIndex(const Entries& entries) {
  return (entries.size() + 1) / 2 - 1;
}

// The program bodies receive the transaction parameters by POINTER:
// the pointee is the copy owned by the program std::function, which lives
// across every repair round and restart, so closures capture 8 bytes
// instead of re-copying the ~0.5 KB parameter block at each nesting level
// (§6.2's low overhead depends on cheap closure captures).

template <typename Txn, typename Db>
ExecStatus NewOrderBody(Txn& t, Db& db, const TpccParams* p) {
  // Nesting: warehouse ⊃ customer ⊃ district ⊃ (per item: item ⊃ stock).
  // The hot repairable conflicts (stock updates) sit at the innermost
  // level; the district bump's ORDER/NEW-ORDER key collisions fail fast.
  return t.Lookup(
      db.warehouses, p->w_id, ColumnMask::Of(kColWTax),
      [&db, p](auto& t, auto*,
               const WarehouseRow* w) -> ExecStatus {
        if (w == nullptr) return ExecStatus::kUserAbort;
        const int32_t w_tax = w->tax;
        return t.Lookup(
            db.customers, CustomerKey(p->w_id, p->d_id, p->c_id),
            ColumnMask::Of(kColCInfo),
            [&db, p, w_tax](auto& t, auto*,
                            const CustomerRow* c) -> ExecStatus {
              if (c == nullptr) return ExecStatus::kUserAbort;
              const int32_t c_disc = c->discount;
              return t.Lookup(
                  db.districts, DistrictKey(p->w_id, p->d_id),
                  ColumnMask::Of(kColDTax) | ColumnMask::Of(kColDNextOid),
                  [&db, p, w_tax, c_disc](
                      auto& t, auto* dobj,
                      const DistrictRow* d) -> ExecStatus {
                    if (d == nullptr) return ExecStatus::kUserAbort;
                    const uint64_t o_id = d->next_o_id;
                    DistrictRow dn = *d;
                    dn.next_o_id = static_cast<uint32_t>(o_id + 1);
                    // Per-operation fail-fast override (§2.3.1, Example 3):
                    // the order-id bump happens early and the whole rest of
                    // the program depends on it — repairing it re-executes
                    // nearly everything, so detecting the conflict at write
                    // time and restarting is strictly cheaper. Payment's
                    // YTD update on the same row keeps kAllowMultiple and
                    // is repaired instead.
                    ExecStatus st = t.UpdateRow(
                        db.districts, dobj, dn, ColumnMask::Of(kColDNextOid),
                        /*blind=*/false, WwPolicy::kFailFast);
                    if (st != ExecStatus::kOk) return st;
                    OrderRow orow;
                    orow.c_id = p->c_id;
                    orow.entry_d = p->date;
                    orow.ol_cnt = p->ol_cnt;
                    orow.all_local = true;
                    for (uint8_t i = 0; i < p->ol_cnt; ++i) {
                      if (p->items[i].supply_w != p->w_id) {
                        orow.all_local = false;
                      }
                    }
                    const uint64_t okey = OrderKey(p->w_id, p->d_id, o_id);
                    typename Db::OrderTable::Object* oobj = nullptr;
                    if (t.InsertRow(db.orders, okey, orow, &oobj) !=
                        WriteStatus::kOk) {
                      return ExecStatus::kWriteWriteConflict;
                    }
                    // Duplicate is expected on a repair round: the same
                    // o_id re-inserts the same arena-stable object.
                    (void)db.orders_by_customer.Insert(
                        CustomerOrderKey(p->w_id, p->d_id, p->c_id, o_id),
                        oobj);
                    typename Db::NewOrderTable::Object* nobj = nullptr;
                    if (t.InsertRow(db.new_orders, okey, NewOrderRow{},
                                    &nobj) != WriteStatus::kOk) {
                      return ExecStatus::kWriteWriteConflict;
                    }
                    (void)db.new_order_queue.Insert(okey, nobj);
                    for (uint8_t i = 0; i < p->ol_cnt; ++i) {
                      const uint8_t ol_number = i;
                      st = t.Lookup(
                          db.items, p->items[i].i_id, kAllCols,
                          [&db, p, w_tax, c_disc, o_id, ol_number](
                              auto& t, auto*,
                              const ItemRow* item) -> ExecStatus {
                            if (item == nullptr) {
                              return ExecStatus::kUserAbort;  // 1% rule
                            }
                            const int64_t price = item->price;
                            const NewOrderItem it = p->items[ol_number];
                            return t.Lookup(
                                db.stock, StockKey(it.supply_w, it.i_id),
                                ColumnMask::Of(kColSQuantity),
                                [&db, p, w_tax, c_disc, o_id, price,
                                 ol_number](
                                    auto& t,
                                    auto* sobj,
                                    const StockRow* s) -> ExecStatus {
                                  if (s == nullptr) {
                                    return ExecStatus::kUserAbort;
                                  }
                                  const NewOrderItem it =
                                      p->items[ol_number];
                                  StockRow sn = *s;
                                  if (sn.quantity - it.quantity >= 10) {
                                    sn.quantity -= it.quantity;
                                  } else {
                                    sn.quantity += 91 - it.quantity;
                                  }
                                  sn.ytd += it.quantity;
                                  sn.order_cnt += 1;
                                  if (it.supply_w != p->w_id) {
                                    sn.remote_cnt += 1;
                                  }
                                  ExecStatus st2 = t.UpdateRow(
                                      db.stock, sobj, sn,
                                      ColumnMask::Of(kColSQuantity) |
                                          ColumnMask::Of(kColSCounts));
                                  if (st2 != ExecStatus::kOk) return st2;
                                  OrderLineRow ol;
                                  ol.i_id = it.i_id;
                                  ol.supply_w_id = it.supply_w;
                                  ol.quantity = it.quantity;
                                  ol.amount = it.quantity * price *
                                              (10000 + w_tax) / 10000 *
                                              (10000 - c_disc) / 10000;
                                  std::memcpy(ol.dist_info,
                                              s->dist[p->d_id - 1],
                                              sizeof(ol.dist_info));
                                  const uint64_t lkey =
                                      OrderLineKey(p->w_id, p->d_id, o_id,
                                                   ol_number + 1);
                                  typename Db::OrderLineTable::Object*
                                      lobj = nullptr;
                                  if (t.InsertRow(db.order_lines, lkey, ol,
                                                  &lobj) !=
                                      WriteStatus::kOk) {
                                    return ExecStatus::kWriteWriteConflict;
                                  }
                                  (void)db.order_lines_by_district.Insert(
                                      lkey, lobj);
                                  return ExecStatus::kOk;
                                });
                          });
                      if (st != ExecStatus::kOk) return st;
                    }
                    return ExecStatus::kOk;
                  });
            });
      });
}

template <typename Txn, typename Db>
ExecStatus PaymentBody(Txn& t, Db& db, const TpccParams* p) {
  // Three independent roots (disjoint failure units, Figure 1(a)): the
  // warehouse YTD bump, the district YTD bump, and the customer payment
  // (with the HISTORY insert nested under the customer).
  ExecStatus st = t.Lookup(
      db.warehouses, p->w_id, ColumnMask::Of(kColWYtd),
      [&db, p](auto& t, auto* wobj,
               const WarehouseRow* w) -> ExecStatus {
        if (w == nullptr) return ExecStatus::kUserAbort;
        WarehouseRow wn = *w;
        wn.ytd += p->amount;
        return t.UpdateRow(db.warehouses, wobj, wn,
                           ColumnMask::Of(kColWYtd));
      });
  if (st != ExecStatus::kOk) return st;
  st = t.Lookup(
      db.districts, DistrictKey(p->w_id, p->d_id), ColumnMask::Of(kColDYtd),
      [&db, p](auto& t, auto* dobj,
               const DistrictRow* d) -> ExecStatus {
        if (d == nullptr) return ExecStatus::kUserAbort;
        DistrictRow dn = *d;
        dn.ytd += p->amount;
        return t.UpdateRow(db.districts, dobj, dn, ColumnMask::Of(kColDYtd));
      });
  if (st != ExecStatus::kOk) return st;

  auto pay_customer = [&db, p](auto& t,
                               auto* cobj,
                               const CustomerRow& c,
                               uint64_t c_key) -> ExecStatus {
    CustomerRow cn = c;
    cn.balance -= p->amount;
    cn.ytd_payment += p->amount;
    cn.payment_cnt += 1;
    ColumnMask mask = ColumnMask::Of(kColCBalance);
    if (c.bad_credit) {
      std::memmove(cn.data + 16, cn.data, sizeof(cn.data) - 16);
      std::memcpy(cn.data, &c_key, sizeof(c_key));
      std::memcpy(cn.data + 8, &p->amount, sizeof(p->amount));
      mask |= ColumnMask::Of(kColCData);
    }
    ExecStatus st2 = t.UpdateRow(db.customers, cobj, cn, mask);
    if (st2 != ExecStatus::kOk) return st2;
    HistoryRow h;
    h.c_key = c_key;
    h.d_key = DistrictKey(p->w_id, p->d_id);
    h.amount = p->amount;
    h.date = p->date;
    if (t.InsertRow(db.history, db.NextHistoryKey(), h) != WriteStatus::kOk) {
      return ExecStatus::kWriteWriteConflict;
    }
    return ExecStatus::kOk;
  };

  if (p->by_last_name) {
    const uint64_t wd = DistrictKey(p->c_w_id, p->c_d_id);
    return t.RangeScan(
        db.customers, db.customers_by_name,
        CustomerNameKey{wd, p->c_last, 0},
        CustomerNameKey{wd, p->c_last, ~0ULL},
        [](const uint64_t& key, const CustomerRow& row) {
          return CustomerNameKey{key / kMaxCustomersPerD, row.last_name_id,
                                 key};
        },
        nullptr, ColumnMask::Of(kColCInfo) | ColumnMask::Of(kColCBalance), 0,
        false,
        [pay_customer](auto& t,
                       const auto& rs)
            -> ExecStatus {
          if (rs.empty()) return ExecStatus::kUserAbort;
          const auto& e = rs[MiddleIndex(rs)];
          return pay_customer(t, e.object, e.row, e.object->key());
        });
  }
  const uint64_t c_key = CustomerKey(p->c_w_id, p->c_d_id, p->c_id);
  return t.Lookup(
      db.customers, c_key,
      ColumnMask::Of(kColCInfo) | ColumnMask::Of(kColCBalance),
      [pay_customer, c_key](auto& t, auto* obj,
                            const CustomerRow* c) -> ExecStatus {
        if (c == nullptr) return ExecStatus::kUserAbort;
        return pay_customer(t, obj, *c, c_key);
      });
}

template <typename Txn, typename Db>
ExecStatus OrderStatusBody(Txn& t, Db& db, const TpccParams* p) {
  auto status_of = [&db, p](auto& t, uint64_t c_id) -> ExecStatus {
    return t.RangeScan(
        db.orders, db.orders_by_customer,
        CustomerOrderKey(p->w_id, p->d_id, c_id, 0),
        CustomerOrderKey(p->w_id, p->d_id, c_id, kMaxOrdersPerD - 1),
        [](const uint64_t& key, const OrderRow&) { return key; }, nullptr,
        ColumnMask::Of(kColOCarrier) | ColumnMask::Of(kColOInfo), 1, true,
        [&db, p](auto& t,
                 const auto& rs) -> ExecStatus {
          if (rs.empty()) return ExecStatus::kUserAbort;
          const uint64_t o_id = rs[0].object->key() % kMaxOrdersPerD;
          return t.RangeScan(
              db.order_lines, db.order_lines_by_district,
              OrderLineKey(p->w_id, p->d_id, o_id, 0),
              OrderLineKey(p->w_id, p->d_id, o_id, kMaxOrderLines - 1),
              [](const uint64_t& key, const OrderLineRow&) { return key; },
              nullptr, ColumnMask::Of(kColOlInfo), 0, false,
              [](auto&,
                 const auto& lines)
                  -> ExecStatus {
                int64_t total = 0;
                for (const auto& l : lines) total += l.row.amount;
                (void)total;
                return ExecStatus::kOk;
              });
        });
  };
  if (p->by_last_name) {
    const uint64_t wd = DistrictKey(p->w_id, p->d_id);
    return t.RangeScan(
        db.customers, db.customers_by_name,
        CustomerNameKey{wd, p->c_last, 0},
        CustomerNameKey{wd, p->c_last, ~0ULL},
        [](const uint64_t& key, const CustomerRow& row) {
          return CustomerNameKey{key / kMaxCustomersPerD, row.last_name_id,
                                 key};
        },
        nullptr, ColumnMask::Of(kColCInfo) | ColumnMask::Of(kColCBalance), 0,
        false,
        [status_of](auto& t,
                    const auto& rs)
            -> ExecStatus {
          if (rs.empty()) return ExecStatus::kUserAbort;
          const auto& e = rs[MiddleIndex(rs)];
          return status_of(t, e.object->key() % kMaxCustomersPerD);
        });
  }
  return t.Lookup(
      db.customers, CustomerKey(p->w_id, p->d_id, p->c_id),
      ColumnMask::Of(kColCBalance),
      [p, status_of](auto& t, auto*,
                     const CustomerRow* c) -> ExecStatus {
        if (c == nullptr) return ExecStatus::kUserAbort;
        return status_of(t, p->c_id);
      });
}

template <typename Txn, typename Db>
ExecStatus DeliveryBody(Txn& t, Db& db, const TpccParams* p) {
  for (uint64_t d = 1; d <= db.scale().n_districts; ++d) {
    const ExecStatus st = t.RangeScan(
        db.new_orders, db.new_order_queue, OrderKey(p->w_id, d, 0),
        OrderKey(p->w_id, d, kMaxOrdersPerD - 1),
        [](const uint64_t& key, const NewOrderRow&) { return key; }, nullptr,
        kAllCols, 1, false,
        [&db, p, d](auto& t,
                    const auto& rs)
            -> ExecStatus {
          if (rs.empty()) return ExecStatus::kOk;  // nothing to deliver
          auto* nobj = rs[0].object;
          const uint64_t okey = nobj->key();
          const uint64_t o_id = okey % kMaxOrdersPerD;
          ExecStatus st2 = t.DeleteRow(db.new_orders, nobj);
          if (st2 != ExecStatus::kOk) return st2;
          return t.Lookup(
              db.orders, okey,
              ColumnMask::Of(kColOCarrier) | ColumnMask::Of(kColOInfo),
              [&db, p, d, o_id](auto& t, auto* oobj,
                                const OrderRow* o) -> ExecStatus {
                if (o == nullptr) return ExecStatus::kUserAbort;
                OrderRow on = *o;
                on.carrier_id = p->carrier_id;
                ExecStatus st3 = t.UpdateRow(db.orders, oobj, on,
                                             ColumnMask::Of(kColOCarrier));
                if (st3 != ExecStatus::kOk) return st3;
                const uint64_t c_id = o->c_id;
                return t.RangeScan(
                    db.order_lines, db.order_lines_by_district,
                    OrderLineKey(p->w_id, d, o_id, 0),
                    OrderLineKey(p->w_id, d, o_id, kMaxOrderLines - 1),
                    [](const uint64_t& key, const OrderLineRow&) {
                      return key;
                    },
                    nullptr,
                    ColumnMask::Of(kColOlDeliveryD) |
                        ColumnMask::Of(kColOlInfo),
                    0, false,
                    [&db, p, d, c_id](
                        auto& t,
                        const auto& lines)
                        -> ExecStatus {
                      int64_t total = 0;
                      for (const auto& l : lines) {
                        total += l.row.amount;
                        OrderLineRow ln = l.row;
                        ln.delivery_d = p->date;
                        const ExecStatus st4 = t.UpdateRow(
                            db.order_lines, l.object, ln,
                            ColumnMask::Of(kColOlDeliveryD));
                        if (st4 != ExecStatus::kOk) return st4;
                      }
                      return t.Lookup(
                          db.customers, CustomerKey(p->w_id, d, c_id),
                          ColumnMask::Of(kColCBalance),
                          [&db, total](auto& t,
                                       auto* cobj,
                                       const CustomerRow* c) -> ExecStatus {
                            if (c == nullptr) {
                              return ExecStatus::kUserAbort;
                            }
                            CustomerRow cn = *c;
                            cn.balance += total;
                            cn.delivery_cnt += 1;
                            return t.UpdateRow(db.customers, cobj, cn,
                                               ColumnMask::Of(kColCBalance));
                          });
                    });
              });
        });
    if (st != ExecStatus::kOk) return st;
  }
  return ExecStatus::kOk;
}

template <typename Txn, typename Db>
ExecStatus StockLevelBody(Txn& t, Db& db, const TpccParams* p) {
  return t.Lookup(
      db.districts, DistrictKey(p->w_id, p->d_id),
      ColumnMask::Of(kColDNextOid),
      [&db, p](auto& t, auto*,
               const DistrictRow* d) -> ExecStatus {
        if (d == nullptr) return ExecStatus::kUserAbort;
        const uint64_t next_o = d->next_o_id;
        const uint64_t lo_o = next_o > 20 ? next_o - 20 : 1;
        return t.RangeScan(
            db.order_lines, db.order_lines_by_district,
            OrderLineKey(p->w_id, p->d_id, lo_o, 0),
            OrderLineKey(p->w_id, p->d_id, next_o - 1, kMaxOrderLines - 1),
            [](const uint64_t& key, const OrderLineRow&) { return key; },
            nullptr, ColumnMask::Of(kColOlInfo), 0, false,
            [&db, p](auto& t,
                     const auto& lines)
                -> ExecStatus {
              std::vector<uint64_t> seen;
              int low_stock = 0;
              for (const auto& l : lines) {
                const uint64_t i_id = l.row.i_id;
                if (std::find(seen.begin(), seen.end(), i_id) != seen.end()) {
                  continue;
                }
                seen.push_back(i_id);
                const ExecStatus st = t.Lookup(
                    db.stock, StockKey(p->w_id, i_id),
                    ColumnMask::Of(kColSQuantity),
                    [p, &low_stock](auto&, auto*,
                                    const StockRow* s) -> ExecStatus {
                      if (s != nullptr && s->quantity < p->threshold) {
                        ++low_stock;
                      }
                      return ExecStatus::kOk;
                    });
                if (st != ExecStatus::kOk) return st;
              }
              return ExecStatus::kOk;
            });
      });
}

}  // namespace

template <typename Exec, typename Db>
typename Exec::Program TpccProgram(Db& db, const TpccParams& p) {
  // The program lambda owns the parameter copy; closures built by the
  // bodies capture a pointer to it, which stays valid across repair rounds
  // and restarts (the std::function outlives the transaction attempt).
  return [&db, p](auto& t) -> ExecStatus {
    switch (p.type) {
      case TpccTxnType::kNewOrder:
        return NewOrderBody(t, db, &p);
      case TpccTxnType::kPayment:
        return PaymentBody(t, db, &p);
      case TpccTxnType::kOrderStatus:
        return OrderStatusBody(t, db, &p);
      case TpccTxnType::kDelivery:
        return DeliveryBody(t, db, &p);
      case TpccTxnType::kStockLevel:
        return StockLevelBody(t, db, &p);
    }
    MV3C_CHECK(false);
    return ExecStatus::kUserAbort;
  };
}

template Mv3cExecutor::Program TpccProgram<Mv3cExecutor>(TpccDb&,
                                                         const TpccParams&);
template OmvccExecutor::Program TpccProgram<OmvccExecutor>(
    TpccDb&, const TpccParams&);
template SvExecutor<OccEngine>::Program TpccProgram<SvExecutor<OccEngine>>(
    TpccSvDb&, const TpccParams&);
template SvExecutor<SiloEngine>::Program TpccProgram<SvExecutor<SiloEngine>>(
    TpccSvDb&, const TpccParams&);

// ---------------------------------------------------------------------------
// Consistency checks (spec clause 3.3.2, subset)
// ---------------------------------------------------------------------------

template <typename Storage>
bool CheckConsistency(TpccDatabase<Storage>& db, std::string* why) {
  const TpccScale& s = db.scale();
  for (uint64_t w = 1; w <= s.n_warehouses; ++w) {
    WarehouseRow wr;
    if (!LatestRow(db.warehouses, w, &wr)) {
      *why = "missing warehouse";
      return false;
    }
    int64_t d_ytd_sum = 0;
    for (uint64_t d = 1; d <= s.n_districts; ++d) {
      DistrictRow dr;
      if (!LatestRow(db.districts, DistrictKey(w, d), &dr)) {
        *why = "missing district";
        return false;
      }
      d_ytd_sum += dr.ytd;
      // Consistency 2: d_next_o_id - 1 == max(o_id) in ORDER.
      const uint64_t max_o = dr.next_o_id - 1;
      OrderRow orow;
      if (max_o > 0) {
        if (!LatestRow(db.orders, OrderKey(w, d, max_o), &orow)) {
          *why = "d_next_o_id does not match max order id (w=" +
                 std::to_string(w) + " d=" + std::to_string(d) + ")";
          return false;
        }
        if (LatestRow(db.orders, OrderKey(w, d, max_o + 1), &orow)) {
          *why = "order beyond d_next_o_id";
          return false;
        }
      }
      // Consistency 4: the most recent orders carry exactly ol_cnt lines.
      const uint64_t check_from = max_o > 30 ? max_o - 30 : 1;
      for (uint64_t o_id = check_from; o_id <= max_o; ++o_id) {
        if (!LatestRow(db.orders, OrderKey(w, d, o_id), &orow)) continue;
        int cnt = 0;
        OrderLineRow line;
        for (uint64_t ol = 1; ol < kMaxOrderLines; ++ol) {
          cnt += LatestRow(db.order_lines, OrderLineKey(w, d, o_id, ol), &line)
                     ? 1
                     : 0;
        }
        if (cnt != orow.ol_cnt) {
          *why = "order line count mismatch (w=" + std::to_string(w) +
                 " d=" + std::to_string(d) + " o=" + std::to_string(o_id) +
                 " have=" + std::to_string(cnt) +
                 " want=" + std::to_string(orow.ol_cnt) + ")";
          return false;
        }
      }
    }
    // Consistency 1: W_YTD == sum(D_YTD), compared as deltas against the
    // seeded values so scaled-down district counts also pass.
    const int64_t w_seed = 30000000;
    const int64_t d_seed_sum = 3000000 * static_cast<int64_t>(s.n_districts);
    if (wr.ytd - w_seed != d_ytd_sum - d_seed_sum) {
      *why = "w_ytd delta != sum(d_ytd) delta for w=" + std::to_string(w) +
             ": " + std::to_string(wr.ytd - w_seed) + " vs " +
             std::to_string(d_ytd_sum - d_seed_sum);
      return false;
    }
  }
  return true;
}

template bool CheckConsistency(TpccDb&, std::string*);
template bool CheckConsistency(TpccSvDb&, std::string*);

}  // namespace mv3c::tpcc
