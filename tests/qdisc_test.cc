// Unit tests for the queue disciplines and the token bucket.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/qdisc/codel.h"
#include "src/qdisc/drr.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/qdisc/token_bucket.h"

namespace bundler {
namespace {

Packet MakePkt(uint16_t src_port, uint32_t size = kMtuBytes, uint64_t flow = 1) {
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.src_port = src_port;
  key.dst_port = 80;
  return MakeDataPacket(flow, key, 0, size);
}

// The overflow where the victim is not the arriving packet: flow 1 holds 18
// packets of a 20-packet limit, flows 2 and 3 one each, and one more packet
// of flow 2 arrives. The victim comes from flow 1, so the arrival is queued
// and counted, and the one drop record names flow 1.
void ExpectVictimDropChargedToVictim(Qdisc& q) {
  const std::set<size_t> buckets = {HashedBucket(MakePkt(1000).key, Sfq::kNumBuckets),
                                     HashedBucket(MakePkt(2000).key, Sfq::kNumBuckets),
                                     HashedBucket(MakePkt(3000).key, Sfq::kNumBuckets)};
  ASSERT_EQ(buckets.size(), 3u) << "the three flows must not share a bucket";
  obs::Tracer tracer;
  tracer.Enable(obs::CatBit(obs::TraceCat::kQdisc), 64);
  q.BindObs(&tracer, tracer.RegisterComponent("qdisc", q.name()));
  TimePoint t;
  for (int i = 0; i < 18; ++i) {
    ASSERT_TRUE(q.Enqueue(MakePkt(1000, kMtuBytes, 1), t));
  }
  ASSERT_TRUE(q.Enqueue(MakePkt(2000, kMtuBytes, 2), t));
  ASSERT_TRUE(q.Enqueue(MakePkt(3000, kMtuBytes, 3), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(2000, kMtuBytes, 2), t));
  EXPECT_EQ(q.counters().enq_pkts, 21u);
  EXPECT_EQ(q.drops(), 1u);
  std::map<uint64_t, int> got;
  while (auto p = q.Dequeue(t)) {
    ++got[p->flow_id];
  }
  EXPECT_EQ(got, (std::map<uint64_t, int>{{1, 17}, {2, 2}, {3, 1}}));
  std::vector<uint64_t> dropped_flows;
  for (const obs::TraceRecord& r : tracer.Snapshot()) {
    if (r.ev == static_cast<uint16_t>(obs::TraceEv::kQdiscDropTail)) {
      dropped_flows.push_back(r.a);
    }
  }
  EXPECT_EQ(dropped_flows, std::vector<uint64_t>{1});
}

TEST(DropTailFifoTest, FifoOrderPreserved) {
  DropTailFifo q(10 * kMtuBytes);
  TimePoint t;
  for (int i = 0; i < 5; ++i) {
    Packet p = MakePkt(100);
    p.seq = i;
    EXPECT_TRUE(q.Enqueue(std::move(p), t));
  }
  EXPECT_EQ(q.packets(), 5);
  for (int i = 0; i < 5; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(DropTailFifoTest, DropsWhenFull) {
  DropTailFifo q(3 * kMtuBytes);
  TimePoint t;
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(2), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(3), t));
  EXPECT_FALSE(q.Enqueue(MakePkt(4), t));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 3);
}

// A forwarding decorator of the kind that times a discipline: its inner qdisc
// is unbound, and it mirrors the inner drops through the plain CountDrop().
class ForwardingQdisc final : public Qdisc {
 public:
  explicit ForwardingQdisc(std::unique_ptr<Qdisc> inner) : inner_(std::move(inner)) {}
  const Packet* Peek() const override { return inner_->Peek(); }
  int64_t bytes() const override { return inner_->bytes(); }
  int64_t packets() const override { return inner_->packets(); }
  const char* name() const override { return inner_->name(); }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override {
    const uint64_t before = inner_->drops();
    const bool ok = inner_->Enqueue(std::move(pkt), now);
    for (uint64_t n = inner_->drops() - before; n > 0; --n) {
      CountDrop();
    }
    return ok;
  }
  std::optional<Packet> DoDequeue(TimePoint now) override { return inner_->Dequeue(now); }

  std::unique_ptr<Qdisc> inner_;
};

TEST(DropTailFifoTest, DecoratorDropIsTracedAsTheArrivals) {
  ForwardingQdisc q(std::make_unique<DropTailFifo>(kMtuBytes));
  obs::Tracer tracer;
  tracer.Enable(obs::CatBit(obs::TraceCat::kQdisc), 64);
  q.BindObs(&tracer, tracer.RegisterComponent("qdisc", q.name()));
  TimePoint t;
  EXPECT_TRUE(q.Enqueue(MakePkt(1000, kMtuBytes, 1), t));
  EXPECT_FALSE(q.Enqueue(MakePkt(2000, 700, 2), t));
  EXPECT_EQ(q.drops(), 1u);
  std::vector<std::pair<uint64_t, uint64_t>> drops;  // (flow, size) per record
  for (const obs::TraceRecord& r : tracer.Snapshot()) {
    if (r.ev == static_cast<uint16_t>(obs::TraceEv::kQdiscDropTail)) {
      drops.emplace_back(r.a, r.b);
    }
  }
  EXPECT_EQ(drops, (std::vector<std::pair<uint64_t, uint64_t>>{{2, 700}}));
}

TEST(DropTailFifoTest, ByteAccounting) {
  DropTailFifo q(10'000);
  TimePoint t;
  q.Enqueue(MakePkt(1, 1000), t);
  q.Enqueue(MakePkt(2, 500), t);
  EXPECT_EQ(q.bytes(), 1500);
  q.Dequeue(t);
  EXPECT_EQ(q.bytes(), 500);
}

TEST(SfqTest, RoundRobinsAcrossFlows) {
  Sfq q(1000);
  TimePoint t;
  // Two flows: flow A enqueues 10, flow B enqueues 10. Dequeue order should
  // alternate (one MTU quantum each).
  for (int i = 0; i < 10; ++i) {
    Packet a = MakePkt(1000);
    a.seq = i;
    q.Enqueue(std::move(a), t);
  }
  for (int i = 0; i < 10; ++i) {
    Packet b = MakePkt(2000);
    b.seq = i;
    q.Enqueue(std::move(b), t);
  }
  std::map<uint16_t, int> got;
  for (int i = 0; i < 10; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    ++got[p->key.src_port];
  }
  // After 10 dequeues, both flows should have sent ~5 each.
  EXPECT_EQ(got[1000], 5);
  EXPECT_EQ(got[2000], 5);
}

TEST(SfqTest, ShortFlowNotStuckBehindLongFlow) {
  Sfq q(4000);
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  q.Enqueue(MakePkt(2000), t);  // one short-flow packet behind 100 bulk ones
  // The short flow's packet must come out within the first round (~2 pkts).
  bool found = false;
  for (int i = 0; i < 3; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    if (p->key.src_port == 2000) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SfqTest, DropsFromLongestFlowOnOverflow) {
  Sfq q(20);
  TimePoint t;
  for (int i = 0; i < 18; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  q.Enqueue(MakePkt(2000), t);
  q.Enqueue(MakePkt(3000), t);
  // Next enqueue overflows; the victim must come from the fat flow (1000).
  q.Enqueue(MakePkt(2000), t);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 20);
  // Count survivors per flow.
  std::map<uint16_t, int> got;
  while (auto p = q.Dequeue(t)) {
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1000], 17);  // one packet of the fat flow dropped
  EXPECT_EQ(got[2000], 2);
  EXPECT_EQ(got[3000], 1);
}

TEST(SfqTest, VictimDropIsChargedToTheVictim) {
  Sfq q(20);
  ExpectVictimDropChargedToVictim(q);
}

TEST(SfqTest, ByteAndPacketCountsConsistent) {
  Sfq q(4000);
  TimePoint t;
  q.Enqueue(MakePkt(1, 700), t);
  q.Enqueue(MakePkt(2, 800), t);
  EXPECT_EQ(q.packets(), 2);
  EXPECT_EQ(q.bytes(), 1500);
  q.Dequeue(t);
  q.Dequeue(t);
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Dequeue(t), std::nullopt);
}

TEST(DrrTest, FairnessAcrossUnequalBacklogs) {
  Drr q(4 * 1024 * 1024);
  TimePoint t;
  for (int i = 0; i < 90; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  for (int i = 0; i < 10; ++i) {
    q.Enqueue(MakePkt(2), t);
  }
  // Dequeue 20: both flows backlogged, so ~10 each.
  std::map<uint16_t, int> got;
  for (int i = 0; i < 20; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1], 10);
  EXPECT_EQ(got[2], 10);
}

TEST(DrrTest, ReclaimsEmptyFlows) {
  Drr q(4 * 1024 * 1024);
  TimePoint t;
  for (uint16_t port = 1; port <= 50; ++port) {
    q.Enqueue(MakePkt(port), t);
  }
  while (q.Dequeue(t).has_value()) {
  }
  EXPECT_EQ(q.active_classes(), 0u);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(DrrTest, DropsFromLongestOnOverflow) {
  Drr q(10 * kMtuBytes);
  TimePoint t;
  for (int i = 0; i < 9; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  q.Enqueue(MakePkt(2), t);
  EXPECT_TRUE(q.Enqueue(MakePkt(2), t));  // overflow; drop from flow 1
  std::map<uint16_t, int> got;
  while (auto p = q.Dequeue(t)) {
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1], 8);
  EXPECT_EQ(got[2], 2);
}

TEST(DrrTest, VictimDropIsChargedToTheVictim) {
  Drr q(20 * kMtuBytes);
  ExpectVictimDropChargedToVictim(q);
}

TEST(CodelTest, NoDropsBelowTarget) {
  CodelState codel;
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    // Each packet leaves 1 ms after it arrived: far below the 5 ms target.
    t = t + TimeDelta::Millis(1);
    EXPECT_FALSE(codel.ShouldDrop(TimeDelta::Millis(1), t));
  }
  EXPECT_EQ(codel.drop_count(), 0u);
}

TEST(CodelTest, DropsWhenSojournPersistsAboveTarget) {
  CodelState codel;
  const TimePoint t0;
  // Every packet has waited since t0: a standing delay of 50 ms and more,
  // dequeued every 4 ms for two simulated seconds.
  uint32_t drops = 0;
  uint32_t delivered = 0;
  TimePoint first_drop = TimePoint::Infinite();
  for (int i = 0; i < 500; ++i) {
    const TimePoint now = t0 + TimeDelta::Millis(50) + TimeDelta::Millis(4) * i;
    if (codel.ShouldDrop(now - t0, now)) {
      ++drops;
      if (first_drop.IsInfinite()) {
        first_drop = now;
      }
    } else {
      ++delivered;
    }
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(delivered, 0u);
  // Nothing drops until the sojourn has stayed above target for a whole
  // interval, and one dropping episode counts every drop.
  EXPECT_GE(first_drop, t0 + TimeDelta::Millis(150));
  EXPECT_EQ(codel.drop_count(), drops);
}

TEST(FqCodelTest, NewFlowGetsPriority) {
  FqCodel q(10240);
  TimePoint t;
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  // Cycle the fat flow into the old list.
  auto first = q.Dequeue(t);
  ASSERT_TRUE(first.has_value());
  // A brand-new flow arrives; it should be served before the old flow's
  // remaining backlog.
  q.Enqueue(MakePkt(7777), t);
  auto p = q.Dequeue(t);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.src_port, 7777);
}

TEST(FqCodelTest, LimitsTotalPackets) {
  FqCodel q(10);
  TimePoint t;
  for (int i = 0; i < 15; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  EXPECT_EQ(q.packets(), 10);
  EXPECT_EQ(q.drops(), 5u);
}

TEST(FqCodelTest, VictimDropIsChargedToTheVictim) {
  FqCodel q(20);
  ExpectVictimDropChargedToVictim(q);
}

TEST(StrictPrioTest, LowerBandAlwaysFirst) {
  StrictPrio q(1 << 20);
  TimePoint t;
  Packet last = MakePkt(3);
  last.priority = StrictPrio::kNumBands;  // past the last band: clamped into it
  Packet low = MakePkt(1);
  low.priority = 1;
  Packet high = MakePkt(2);
  high.priority = 0;
  q.Enqueue(std::move(last), t);
  q.Enqueue(std::move(low), t);
  q.Enqueue(std::move(high), t);
  EXPECT_EQ(q.band_bytes(StrictPrio::kNumBands - 1), kMtuBytes);
  for (int port : {2, 1, 3}) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->key.src_port, port);
  }
}

TEST(StrictPrioTest, PerBandLimit) {
  StrictPrio q(2 * kMtuBytes);
  TimePoint t;
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_FALSE(q.Enqueue(MakePkt(1), t));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), /*burst=*/1500, t);  // 1.5 MB/s
  EXPECT_TRUE(tb.CanSend(1500, t));
  tb.Consume(1500, t);
  EXPECT_FALSE(tb.CanSend(1500, t));
  // 1500 bytes at 1.5 MB/s take 1 ms to accumulate (rounded up a nanosecond).
  EXPECT_NEAR(tb.TimeUntilAvailable(1500, t).ToMillis(), 1.0, 1e-5);
  EXPECT_TRUE(tb.CanSend(1500, t + TimeDelta::Millis(1)));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), 3000, t);
  // After a long idle period, tokens cap at the burst.
  TimePoint later = t + TimeDelta::Seconds(10);
  EXPECT_TRUE(tb.CanSend(3000, later));
  tb.Consume(3000, later);
  EXPECT_FALSE(tb.CanSend(1, later));
}

TEST(TokenBucketTest, RateChangeDoesNotRefillInstantly) {
  // The paper's TBF patch: updating the rate must not grant a token burst.
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), 1500, t);
  tb.Consume(1500, t);
  tb.SetRate(Rate::Mbps(96), t);
  EXPECT_FALSE(tb.CanSend(1500, t));
  // But the new rate applies going forward: 1500 B at 12 MB/s = 125 us.
  EXPECT_NEAR(tb.TimeUntilAvailable(1500, t).ToMicros(), 125.0, 1e-2);
}

}  // namespace
}  // namespace bundler
