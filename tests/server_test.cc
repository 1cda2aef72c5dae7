// Serving front-end tests (DESIGN §5k): wire-protocol fuzzing (a torn,
// oversized, CRC-corrupted, or garbage byte stream must produce a clean
// connection close — never a crash or a partially-applied transaction),
// admission-control units (token bucket, bounded queue, retry-after
// estimator), and in-process socket integration including the 4x-capacity
// overload scenario the ISSUE acceptance criteria name.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"

namespace mv3c::server {
namespace {

// ---------------------------------------------------------------------------
// FrameReader: framing and fuzz
// ---------------------------------------------------------------------------

std::vector<uint8_t> OneFrame(const void* payload, uint32_t n) {
  std::vector<uint8_t> out;
  AppendFrame(&out, payload, n);
  return out;
}

TEST(FrameReaderTest, ParsesWholeAndTornFrames) {
  const char msg[] = "hello mv3c";
  std::vector<uint8_t> wire = OneFrame(msg, sizeof(msg));
  // Two copies back to back, delivered in 1-byte chunks (maximally torn).
  wire.insert(wire.end(), wire.begin(), wire.end());
  FrameReader r;
  int frames = 0;
  for (uint8_t b : wire) {
    ASSERT_TRUE(r.Feed(&b, 1, [&](const uint8_t* p, uint32_t n) {
      ASSERT_EQ(n, sizeof(msg));
      EXPECT_EQ(std::memcmp(p, msg, n), 0);
      ++frames;
    }));
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReaderTest, BadMagicIsTerminal) {
  std::vector<uint8_t> wire = OneFrame("x", 1);
  wire[0] ^= 0xFF;
  FrameReader r;
  EXPECT_FALSE(r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {
    FAIL() << "sink must not fire";
  }));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadMagic);
  // Terminal: even a valid frame afterwards is refused.
  std::vector<uint8_t> good = OneFrame("y", 1);
  EXPECT_FALSE(r.Feed(good.data(), good.size(),
                      [](const uint8_t*, uint32_t) {}));
}

TEST(FrameReaderTest, HeaderCrcCatchesLengthCorruption) {
  std::vector<uint8_t> wire = OneFrame("abcd", 4);
  wire[4] ^= 0x01;  // flip a payload_bytes bit, header CRC now stale
  FrameReader r;
  EXPECT_FALSE(
      r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadHeaderCrc);
}

TEST(FrameReaderTest, OversizedLengthRefusedBeforeBuffering) {
  // A *consistent* header (valid CRC) claiming a huge payload: the reader
  // must reject on the length bound, not allocate and wait for 16MB.
  FrameHeader h{};
  h.magic = kFrameMagic;
  h.payload_bytes = 16u << 20;
  h.payload_crc = 0;
  h.header_crc = FrameHeaderCrc(h);
  FrameReader r;
  EXPECT_FALSE(r.Feed(reinterpret_cast<const uint8_t*>(&h), sizeof(h),
                      [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kOversized);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReaderTest, PayloadCrcCatchesBitFlip) {
  std::vector<uint8_t> wire = OneFrame("abcdefgh", 8);
  wire[sizeof(FrameHeader) + 3] ^= 0x40;
  FrameReader r;
  EXPECT_FALSE(
      r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadPayloadCrc);
}

TEST(FrameReaderTest, GarbageFuzzNeverCrashesOrFiresSink) {
  // Deterministic garbage streams: every one must end in a terminal error
  // (or still be waiting for bytes) without invoking the sink — the odds
  // of random bytes forging magic + CRC32C are negligible.
  Xoshiro256 rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    FrameReader r;
    bool dead = false;
    for (int chunk = 0; chunk < 16 && !dead; ++chunk) {
      uint8_t buf[64];
      const size_t n = 1 + rng.NextBounded(sizeof(buf));
      for (size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<uint8_t>(rng.Next());
      }
      dead = !r.Feed(buf, n, [](const uint8_t*, uint32_t) {
        FAIL() << "garbage parsed as a frame";
      });
    }
    // Either the stream died or fewer than 16 bytes ever lined up into a
    // full header; both are acceptable, crashing is not.
    if (dead) {
      EXPECT_NE(r.error(), FrameReader::Error::kNone);
    }
  }
}

TEST(FrameReaderTest, TruncatedStreamHoldsPartialFrameOnly) {
  const char msg[] = "partial";
  std::vector<uint8_t> wire = OneFrame(msg, sizeof(msg));
  FrameReader r;
  int frames = 0;
  // All but the last byte: nothing fires, bytes stay buffered.
  ASSERT_TRUE(r.Feed(wire.data(), wire.size() - 1,
                     [&](const uint8_t*, uint32_t) { ++frames; }));
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(r.buffered(), wire.size() - 1);
  ASSERT_TRUE(r.Feed(wire.data() + wire.size() - 1, 1,
                     [&](const uint8_t*, uint32_t) { ++frames; }));
  EXPECT_EQ(frames, 1);
}

// ---------------------------------------------------------------------------
// Admission units
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefuseThenRefill) {
  TokenBucket b(/*rate=*/1000.0, /*burst=*/3.0);
  const uint64_t t0 = 1'000'000'000;
  uint32_t ra = 0;
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_FALSE(b.TryTake(t0, &ra));
  EXPECT_GT(ra, 0u);
  EXPECT_LE(ra, 1001u);  // one token at 1000/s is 1ms away
  // 2ms later two tokens accrued.
  EXPECT_TRUE(b.TryTake(t0 + 2'000'000, &ra));
  EXPECT_TRUE(b.TryTake(t0 + 2'000'000, &ra));
  EXPECT_FALSE(b.TryTake(t0 + 2'000'000, &ra));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket b(0, 0);
  uint32_t ra = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.TryTake(123456789 + i, &ra));
  }
}

TEST(AdmissionQueueTest, BoundedPushAndBatchedPop) {
  AdmissionQueue q(4);
  for (int i = 0; i < 4; ++i) {
    QueuedRequest r;
    r.request_id = static_cast<uint64_t>(i);
    EXPECT_TRUE(q.TryPush(std::move(r)));
  }
  QueuedRequest overflow;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));  // full: shed
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.peak_depth(), 4u);

  auto batch = q.PopBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request_id, 0u);  // FIFO
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.peak_depth(), 4u);  // high-water mark sticks

  q.Close();
  EXPECT_EQ(q.PopBatch(8).size(), 1u);       // drains the remainder
  EXPECT_TRUE(q.PopBatch(8).empty());        // then reports closed
  QueuedRequest late;
  EXPECT_FALSE(q.TryPush(std::move(late)));  // closed refuses new work
}

TEST(AdmissionQueueTest, CloseWakesBlockedConsumer) {
  AdmissionQueue q(4);
  std::thread consumer([&] { EXPECT_TRUE(q.PopBatch(4).empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

TEST(ServiceTimeEstimateTest, EwmaAndRetryAfterClamps) {
  ServiceTimeEstimate e;
  EXPECT_EQ(e.RetryAfterUs(0), 1000u);  // cold estimate: 1ms default
  for (int i = 0; i < 64; ++i) e.Record(1'000'000);  // 1ms service time
  EXPECT_NEAR(static_cast<double>(e.ewma_ns()), 1e6, 2e5);
  // Backlog of 100 at ~1ms each ~= 100ms.
  const uint32_t ra = e.RetryAfterUs(100);
  EXPECT_GE(ra, 50'000u);
  EXPECT_LE(ra, 200'000u);
  EXPECT_EQ(e.RetryAfterUs(100'000), 1'000'000u);  // ceiling: 1s
  ServiceTimeEstimate fast;
  fast.Record(10);  // 10ns service time -> floor kicks in
  EXPECT_EQ(fast.RetryAfterUs(0), 200u);
}

// ---------------------------------------------------------------------------
// Socket integration
// ---------------------------------------------------------------------------

/// Minimal blocking client for tests: connects, writes raw bytes, decodes
/// response frames.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }

  void SendRaw(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k =
          send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (k <= 0) return;
      off += static_cast<size_t>(k);
    }
  }

  /// Reads until `n` responses decode, EOF, or ~deadline_ms passes.
  std::vector<ResponseHeader> ReadResponses(size_t n, int deadline_ms = 5000) {
    std::vector<ResponseHeader> out;
    uint8_t buf[16 * 1024];
    int waited = 0;
    while (out.size() < n && waited < deadline_ms) {
      pollfd p{fd_, POLLIN, 0};
      const int pr = poll(&p, 1, 50);
      if (pr == 0) {
        waited += 50;
        continue;
      }
      const ssize_t k = recv(fd_, buf, sizeof(buf), 0);
      if (k <= 0) {
        eof_ = true;
        break;
      }
      reader_.Feed(buf, static_cast<size_t>(k),
                   [&](const uint8_t* payload, uint32_t bytes) {
                     ASSERT_GE(bytes, sizeof(ResponseHeader));
                     ResponseHeader rh;
                     std::memcpy(&rh, payload, sizeof(rh));
                     out.push_back(rh);
                   });
    }
    return out;
  }

  /// True iff the server closes this connection within the deadline.
  bool WaitForClose(int deadline_ms = 5000) {
    uint8_t buf[4096];
    int waited = 0;
    while (waited < deadline_ms) {
      pollfd p{fd_, POLLIN, 0};
      const int pr = poll(&p, 1, 50);
      if (pr == 0) {
        waited += 50;
        continue;
      }
      const ssize_t k = recv(fd_, buf, sizeof(buf), 0);
      if (k == 0) return true;
      if (k < 0) return true;
    }
    return false;
  }

  /// One-shot HTTP GET; returns the full response (headers + body).
  static std::string HttpGet(uint16_t port, const std::string& path) {
    TestClient c(port);
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
    c.SendRaw(std::vector<uint8_t>(req.begin(), req.end()));
    std::string resp;
    uint8_t buf[16 * 1024];
    while (true) {
      pollfd p{c.fd_, POLLIN, 0};
      if (poll(&p, 1, 3000) <= 0) break;
      const ssize_t k = recv(c.fd_, buf, sizeof(buf), 0);
      if (k <= 0) break;
      resp.append(reinterpret_cast<char*>(buf), static_cast<size_t>(k));
    }
    return resp;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  FrameReader reader_;
};

ServerOptions SmallBankingOptions() {
  ServerOptions o;
  o.host.workload = "banking";
  o.host.engine = "mv3c";
  o.host.workers = 2;
  o.host.scale = 2000;
  o.queue_depth = 256;
  return o;
}

banking::TransferParams MakeTransfer(int64_t from, int64_t to) {
  banking::TransferParams p;
  p.from = from;
  p.to = to;
  p.amount = 5;
  p.with_fee = false;
  return p;
}

TEST(ServerIntegrationTest, PingTransferAndBadOpcode) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());

  std::vector<uint8_t> wire;
  AppendPing(&wire, 1);
  AppendRequest(&wire, 2, Op::kBankingTransfer, MakeTransfer(1, 2));
  AppendRequest(&wire, 3, Op::kTpcc, tpcc::TpccParams{});  // wrong workload
  c.SendRaw(wire);

  auto rs = c.ReadResponses(3);
  ASSERT_EQ(rs.size(), 3u);
  // Responses may interleave (ping/bad-request answer inline, the transfer
  // goes through the worker pool), so index by request_id.
  for (const ResponseHeader& rh : rs) {
    if (rh.request_id == 1) {
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kPong));
    } else if (rh.request_id == 2) {
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
      EXPECT_NE(rh.commit_ts, 0u);
    } else {
      EXPECT_EQ(rh.request_id, 3u);
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kBadRequest));
    }
  }
  EXPECT_EQ(server.stats().txn_committed.load(), 1u);
  server.Stop();
}

TEST(ServerIntegrationTest, WrongSizeParamsRejectedBeforeEngine) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // Right opcode, truncated params: kBadRequest, no engine entry.
  RequestHeader rq{};
  rq.request_id = 9;
  rq.opcode = static_cast<uint16_t>(Op::kBankingTransfer);
  uint8_t payload[sizeof(rq) + 3] = {};
  std::memcpy(payload, &rq, sizeof(rq));
  std::vector<uint8_t> wire;
  AppendFrame(&wire, payload, sizeof(payload));
  c.SendRaw(wire);
  auto rs = c.ReadResponses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kBadRequest));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  server.Stop();
}

TEST(ServerIntegrationTest, GarbageBytesCloseConnectionCleanly) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    TestClient c(server.port());
    ASSERT_TRUE(c.connected());
    // Binary-looking garbage: correct magic prefix, then noise — the
    // header CRC kills it. (Pure noise without the magic is sniffed as
    // HTTP and dies on the HTTP path; both must close cleanly.)
    std::vector<uint8_t> garbage = {'M', 'V', '3', 'S'};
    Xoshiro256 rng(7);
    for (int i = 0; i < 64; ++i) {
      garbage.push_back(static_cast<uint8_t>(rng.Next()));
    }
    c.SendRaw(garbage);
    EXPECT_TRUE(c.WaitForClose());
  }
  // The server survived and still serves.
  TestClient c2(server.port());
  ASSERT_TRUE(c2.connected());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(3, 4));
  c2.SendRaw(wire);
  auto rs = c2.ReadResponses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  EXPECT_GE(server.stats().protocol_errors.load(), 1u);
  server.Stop();
}

TEST(ServerIntegrationTest, TornFrameNeverRunsPartialTransaction) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    TestClient c(server.port());
    ASSERT_TRUE(c.connected());
    std::vector<uint8_t> wire;
    AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(1, 2));
    // Send all but the last 5 bytes, then hang up: the frame never
    // completes, so the transaction must never run.
    wire.resize(wire.size() - 5);
    c.SendRaw(wire);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // client closes with a partial frame buffered server-side
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  EXPECT_EQ(server.stats().requests_received.load(), 0u);
  server.Stop();
}

TEST(ServerIntegrationTest, OversizedAndBadCrcFramesClose) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    // Oversized declared length with a *valid* header CRC.
    TestClient c(server.port());
    FrameHeader h{};
    h.magic = kFrameMagic;
    h.payload_bytes = 1u << 24;
    h.header_crc = FrameHeaderCrc(h);
    std::vector<uint8_t> wire(sizeof(h));
    std::memcpy(wire.data(), &h, sizeof(h));
    c.SendRaw(wire);
    EXPECT_TRUE(c.WaitForClose());
  }
  {
    // Valid header, corrupted payload byte.
    TestClient c(server.port());
    std::vector<uint8_t> wire;
    AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(1, 2));
    wire[sizeof(FrameHeader) + sizeof(RequestHeader) + 2] ^= 0x10;
    c.SendRaw(wire);
    EXPECT_TRUE(c.WaitForClose());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  EXPECT_GE(server.stats().protocol_errors.load(), 2u);
  server.Stop();
}

TEST(ServerIntegrationTest, HealthzAndMetricsOverHttp) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(5, 6));
  c.SendRaw(wire);
  ASSERT_EQ(c.ReadResponses(1).size(), 1u);

  const std::string health = TestClient::HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = TestClient::HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("mv3c_server_txn_committed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("mv3c_server_admission_queue_capacity"),
            std::string::npos);
  // Engine counters ride along, labeled with engine/workload.
  EXPECT_NE(metrics.find("mv3c_engine_commits_total{engine=\"mv3c\","
                         "workload=\"banking\"} 1"),
            std::string::npos);

  const std::string missing = TestClient::HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.Stop();
}

TEST(ServerIntegrationTest, PerClientRateLimitSheds) {
  ServerOptions o = SmallBankingOptions();
  o.client_rate = 50;  // tokens/s
  o.client_burst = 4;
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  for (uint64_t i = 1; i <= 20; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer, MakeTransfer(1, 2));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(20);
  ASSERT_EQ(rs.size(), 20u);
  uint64_t limited = 0;
  for (const ResponseHeader& rh : rs) {
    if (rh.status == static_cast<uint16_t>(TxnStatus::kRateLimited)) {
      ++limited;
      EXPECT_GT(rh.retry_after_us, 0u);
    }
  }
  // Burst of 4 (plus whatever trickles in at 50/s): most of 20 shed.
  EXPECT_GE(limited, 10u);
  EXPECT_EQ(server.stats().shed_rate_limited.load(), limited);
  server.Stop();
}

// The 4x-capacity overload scenario: service_delay_us pins per-request
// service time so capacity is a number, the queue bound is tiny, and the
// client offers a burst far beyond both. The server must (a) stay up,
// (b) answer *every* request, (c) shed with kOverload + a retry-after
// hint, and (d) never let the queue grow past its bound.
TEST(ServerIntegrationTest, OverloadShedsBoundedWithRetryAfter) {
  ServerOptions o = SmallBankingOptions();
  o.host.workers = 2;
  o.host.service_delay_us = 2000;  // 2ms/txn -> ~1000 txn/s capacity
  o.queue_depth = 16;
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());

#if defined(MV3C_FAILPOINTS_ENABLED)
  // With failpoints armed some admitted transactions burn repair/retry
  // rounds before committing — overload shedding must hold regardless.
  failpoint::Reset(42);
  failpoint::ScopedArm arm(failpoint::Site::kPrevalidate,
                           {.action = failpoint::Action::kFail,
                            .probability = 0.2,
                            .max_trips = 64});
#endif

  // ~4x capacity for one second: 200 requests in one burst (the queue
  // holds 16 + 2 in flight; the rest must shed immediately).
  constexpr uint64_t kBurst = 200;
  std::vector<uint8_t> wire;
  for (uint64_t i = 1; i <= kBurst; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(1 + (i % 100), 200 + (i % 100)));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(kBurst, 20000);
  ASSERT_EQ(rs.size(), kBurst) << "every request must be answered";

  uint64_t committed = 0, shed = 0;
  for (const ResponseHeader& rh : rs) {
    switch (static_cast<TxnStatus>(rh.status)) {
      case TxnStatus::kCommitted:
        ++committed;
        break;
      case TxnStatus::kOverload:
        ++shed;
        // The shed response must carry a server-driven backoff hint.
        EXPECT_GE(rh.retry_after_us, 200u);
        EXPECT_LE(rh.retry_after_us, 1'000'000u);
        break;
      case TxnStatus::kExhausted:
        EXPECT_GT(rh.retry_after_us, 0u);
        break;
      default:
        break;
    }
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(shed, 0u) << "4x capacity must shed";
  // The bound held: the queue never grew past its configured depth.
  EXPECT_LE(server.queue_peak_depth(), o.queue_depth);
  EXPECT_EQ(server.stats().shed_overload.load(), shed);
  server.Stop();
}

TEST(ServerIntegrationTest, MetricsTextMatchesServerStats) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  constexpr uint64_t kN = 25;
  for (uint64_t i = 1; i <= kN; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(1 + (i % 50), 100 + (i % 50)));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(kN);
  ASSERT_EQ(rs.size(), kN);
  uint64_t acked_commits = 0;
  for (const ResponseHeader& rh : rs) {
    acked_commits +=
        rh.status == static_cast<uint16_t>(TxnStatus::kCommitted);
  }
  // The Prometheus scrape's committed counter equals the client-observed
  // acked commits exactly — the CI integration job's core assertion.
  const std::string metrics = server.MetricsText();
  const std::string needle = "mv3c_server_txn_committed_total " +
                             std::to_string(acked_commits) + "\n";
  EXPECT_NE(metrics.find(needle), std::string::npos) << metrics;
  server.Stop();
}

TEST(ServerIntegrationTest, SyncAckSetsDurableFlag) {
  ServerOptions o = SmallBankingOptions();
  o.host.wal = true;
  o.host.sync_ack = true;
  o.host.wal_dir = testing::TempDir() + "/serve_wal_" +
                   std::to_string(::getpid());
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(7, 8));
  c.SendRaw(wire);
  auto rs = c.ReadResponses(1, 10000);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  EXPECT_NE(rs[0].flags & kRespFlagDurable, 0u);
  server.Stop();
}

}  // namespace
}  // namespace mv3c::server
