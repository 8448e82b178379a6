// Property tests over every queue discipline: conservation (every enqueued
// packet is either delivered or counted as a drop), non-negative accounting,
// empty/limit behavior, and work conservation. Parameterized so each qdisc
// implementation faces the same invariants. The four multi-queue schedulers,
// whose queues share one PacketPool (src/qdisc/packet_pool.h), are
// additionally mirrored step-for-step against reference implementations that
// keep a std::deque per queue and std::list service order, pinning
// byte-identical service order (same DRR rotation, same CoDel drop
// decisions, same overflow victims).
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/qdisc/codel.h"
#include "src/qdisc/drr.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/util/fnv.h"
#include "src/util/random.h"

namespace bundler {
namespace {

using QdiscFactory = std::function<std::unique_ptr<Qdisc>()>;

struct QdiscCase {
  std::string name;
  QdiscFactory make;
};

std::vector<QdiscCase> AllQdiscs() {
  return {
      {"droptail", [] { return std::make_unique<DropTailFifo>(int64_t{256} * kMtuBytes); }},
      {"sfq", [] { return std::make_unique<Sfq>(256); }},
      {"drr", [] { return std::make_unique<Drr>(int64_t{256} * kMtuBytes); }},
      {"fq_codel", [] { return std::make_unique<FqCodel>(256); }},
      {"strict_prio", [] { return std::make_unique<StrictPrio>(int64_t{86} * kMtuBytes); }},
  };
}

class QdiscPropertyTest : public ::testing::TestWithParam<QdiscCase> {};

Packet RandomPacket(Rng& rng, uint64_t seq, uint64_t num_flows = 16) {
  Packet p;
  p.id = seq;
  p.flow_id = rng.NextU64() % num_flows;
  p.key.src = MakeAddress(1, static_cast<uint16_t>(p.flow_id));
  p.key.dst = MakeAddress(2, 1);
  p.key.src_port = static_cast<uint16_t>(1000 + p.flow_id);
  p.key.dst_port = static_cast<uint16_t>(2000 + p.flow_id * 3);
  p.size_bytes = 64 + static_cast<uint32_t>(rng.NextU64() % (kMtuBytes - 64));
  p.priority = static_cast<uint8_t>(p.flow_id % 3);
  p.seq = static_cast<int64_t>(seq);
  return p;
}

TEST_P(QdiscPropertyTest, ConservationUnderRandomChurn) {
  auto q = GetParam().make();
  Rng rng(7);
  TimePoint now;
  uint64_t enqueued = 0, delivered = 0, rejected = 0;
  for (int step = 0; step < 20000; ++step) {
    now += TimeDelta::Micros(100);
    if (rng.NextDouble() < 0.55) {
      Packet p = RandomPacket(rng, enqueued);
      p.queue_enter = now;
      ++enqueued;
      if (!q->Enqueue(std::move(p), now)) {
        ++rejected;
      }
    } else {
      if (q->Dequeue(now).has_value()) {
        ++delivered;
      }
    }
  }
  // Drain the remainder. Dequeue-time droppers (CoDel) may eat packets, so
  // drain until the qdisc reports empty.
  while (!q->Empty()) {
    now += TimeDelta::Millis(1);
    if (q->Dequeue(now).has_value()) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered + q->drops(), enqueued)
      << GetParam().name << ": every packet must be delivered or counted dropped";
  EXPECT_GE(q->drops(), rejected);
  EXPECT_EQ(q->bytes(), 0);
  EXPECT_EQ(q->packets(), 0);
}

TEST_P(QdiscPropertyTest, AccountingNeverNegative) {
  auto q = GetParam().make();
  Rng rng(11);
  TimePoint now;
  for (int step = 0; step < 5000; ++step) {
    now += TimeDelta::Micros(50);
    if (rng.NextDouble() < 0.5) {
      Packet p = RandomPacket(rng, static_cast<uint64_t>(step));
      p.queue_enter = now;
      q->Enqueue(std::move(p), now);
    } else {
      q->Dequeue(now);
    }
    ASSERT_GE(q->bytes(), 0) << GetParam().name;
    ASSERT_GE(q->packets(), 0) << GetParam().name;
    ASSERT_EQ(q->packets() == 0, q->Empty()) << GetParam().name;
  }
}

TEST_P(QdiscPropertyTest, DequeueFromEmptyIsSafe) {
  auto q = GetParam().make();
  TimePoint now;
  EXPECT_FALSE(q->Dequeue(now).has_value());
  EXPECT_EQ(q->Peek(), nullptr);
  EXPECT_TRUE(q->Empty());
}

TEST_P(QdiscPropertyTest, PeekMatchesNextDeliveredUnlessAqmDrops) {
  auto q = GetParam().make();
  Rng rng(13);
  TimePoint now;
  for (int i = 0; i < 50; ++i) {
    Packet p = RandomPacket(rng, static_cast<uint64_t>(i));
    p.queue_enter = now;
    q->Enqueue(std::move(p), now);
  }
  // Fair-queueing disciplines may rotate to another flow between Peek and
  // Dequeue (deficit bookkeeping), so the exact-match property only holds for
  // single-queue qdiscs; for the rest Peek must still point at a live packet.
  bool single_queue = GetParam().name == "droptail" || GetParam().name == "strict_prio";
  while (!q->Empty()) {
    const Packet* head = q->Peek();
    ASSERT_NE(head, nullptr) << GetParam().name;
    uint64_t head_id = head->id;
    auto out = q->Dequeue(now);  // no sojourn -> CoDel will not drop
    ASSERT_TRUE(out.has_value()) << GetParam().name;
    if (single_queue) {
      EXPECT_EQ(out->id, head_id) << GetParam().name;
    }
  }
}

TEST_P(QdiscPropertyTest, RespectsConfiguredLimit) {
  auto q = GetParam().make();
  TimePoint now;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    Packet p = RandomPacket(rng, static_cast<uint64_t>(i));
    p.size_bytes = kMtuBytes;
    p.queue_enter = now;
    q->Enqueue(std::move(p), now);
  }
  EXPECT_GT(q->drops(), 0u) << GetParam().name;
  EXPECT_LE(q->packets(), 260) << GetParam().name;  // limit ~256 + slack
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QdiscPropertyTest,
                         ::testing::ValuesIn(AllQdiscs()),
                         [](const ::testing::TestParamInfo<QdiscCase>& tpi) {
                           return tpi.param.name;
                         });

// ---------------------------------------------------------------------------
// Service-order byte-identity: reference implementations with a std::deque
// per queue and std::list service order, mirrored against the pooled qdiscs
// step for step.

// FqCodel exactly as it stood before the ring sweep (deque buckets, list
// service order, lazily allocated per-bucket CodelState), with its own copy
// of the bucket count and quantum.
class RefFqCodel {
 public:
  static constexpr size_t kNumBuckets = 1024;
  static constexpr int64_t kQuantumBytes = kMtuBytes;

  explicit RefFqCodel(int64_t limit_packets)
      : limit_packets_(limit_packets), buckets_(kNumBuckets) {}

  bool Enqueue(Packet pkt, TimePoint now) {
    (void)now;
    size_t idx = BucketFor(pkt);
    Bucket& b = buckets_[idx];
    if (b.codel == nullptr) {
      b.codel = std::make_unique<CodelState>();
    }
    bytes_ += pkt.size_bytes;
    b.bytes += pkt.size_bytes;
    b.queue.push_back(std::move(pkt));
    ++packets_;
    if (b.list_state == Bucket::ListState::kNone) {
      b.list_state = Bucket::ListState::kNew;
      b.deficit = kQuantumBytes;
      new_flows_.push_back(idx);
    }
    if (packets_ > limit_packets_) {
      // The head is the victim: the arrival is it only when alone there.
      return DropFromFattest() != idx || !b.queue.empty();
    }
    return true;
  }

  std::optional<Packet> Dequeue(TimePoint now) {
    std::optional<Packet> pkt = DequeueFromList(new_flows_, true, now);
    if (pkt.has_value()) {
      return pkt;
    }
    return DequeueFromList(old_flows_, false, now);
  }

  uint64_t drops() const { return drops_; }
  int64_t bytes() const { return bytes_; }
  int64_t packets() const { return packets_; }

 private:
  struct Bucket {
    std::deque<Packet> queue;
    std::unique_ptr<CodelState> codel;
    int64_t bytes = 0;
    int64_t deficit = 0;
    enum class ListState { kNone, kNew, kOld } list_state = ListState::kNone;
  };

  // Same hash as the real implementation (HashedBucket), zero seed first.
  size_t BucketFor(const Packet& pkt) const {
    const uint64_t fields[] = {0,
                               pkt.key.src,
                               pkt.key.dst,
                               static_cast<uint64_t>(pkt.key.src_port),
                               static_cast<uint64_t>(pkt.key.dst_port),
                               static_cast<uint64_t>(pkt.key.protocol)};
    return Mix64(Fnv1a64Combine(fields, 6)) % kNumBuckets;
  }

  // Returns the victim's bucket.
  size_t DropFromFattest() {
    size_t fattest = 0;
    int64_t fattest_bytes = -1;
    for (const auto& list : {new_flows_, old_flows_}) {
      for (size_t idx : list) {
        if (buckets_[idx].bytes > fattest_bytes) {
          fattest_bytes = buckets_[idx].bytes;
          fattest = idx;
        }
      }
    }
    Bucket& b = buckets_[fattest];
    const Packet& victim = b.queue.front();
    b.bytes -= victim.size_bytes;
    bytes_ -= victim.size_bytes;
    b.queue.pop_front();
    --packets_;
    ++drops_;
    return fattest;
  }

  std::optional<Packet> DequeueFromList(std::list<size_t>& list, bool is_new_list,
                                        TimePoint now) {
    while (!list.empty()) {
      size_t idx = list.front();
      Bucket& b = buckets_[idx];
      if (b.deficit <= 0) {
        b.deficit += kQuantumBytes;
        list.pop_front();
        b.list_state = Bucket::ListState::kOld;
        old_flows_.push_back(idx);
        continue;
      }
      if (b.queue.empty()) {
        list.pop_front();
        if (is_new_list) {
          b.list_state = Bucket::ListState::kOld;
          old_flows_.push_back(idx);
        } else {
          b.list_state = Bucket::ListState::kNone;
        }
        continue;
      }
      Packet pkt = std::move(b.queue.front());
      b.queue.pop_front();
      b.bytes -= pkt.size_bytes;
      bytes_ -= pkt.size_bytes;
      --packets_;
      TimeDelta sojourn = now - pkt.queue_enter;
      if (b.codel->ShouldDrop(sojourn, now)) {
        ++drops_;
        continue;
      }
      b.deficit -= pkt.size_bytes;
      if (b.deficit <= 0) {
        b.deficit += kQuantumBytes;
        list.pop_front();
        b.list_state = Bucket::ListState::kOld;
        old_flows_.push_back(idx);
      }
      return pkt;
    }
    return std::nullopt;
  }

  int64_t limit_packets_;
  std::vector<Bucket> buckets_;
  std::list<size_t> new_flows_;
  std::list<size_t> old_flows_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
  uint64_t drops_ = 0;
};

// StrictPrio as it stood before the ring sweep: per-band std::deque.
class RefStrictPrio {
 public:
  RefStrictPrio(size_t num_bands, int64_t limit_bytes_per_band)
      : bands_(num_bands), limit_bytes_per_band_(limit_bytes_per_band) {}

  bool Enqueue(Packet pkt, TimePoint now) {
    (void)now;
    size_t band = pkt.priority;
    if (band >= bands_.size()) {
      band = bands_.size() - 1;
    }
    Band& b = bands_[band];
    if (b.bytes + pkt.size_bytes > limit_bytes_per_band_) {
      ++drops_;
      return false;
    }
    b.bytes += pkt.size_bytes;
    b.queue.push_back(std::move(pkt));
    return true;
  }

  std::optional<Packet> Dequeue(TimePoint now) {
    (void)now;
    for (Band& b : bands_) {
      if (!b.queue.empty()) {
        Packet pkt = std::move(b.queue.front());
        b.queue.pop_front();
        b.bytes -= pkt.size_bytes;
        return pkt;
      }
    }
    return std::nullopt;
  }

  uint64_t drops() const { return drops_; }

 private:
  struct Band {
    std::deque<Packet> queue;
    int64_t bytes = 0;
  };
  std::vector<Band> bands_;
  int64_t limit_bytes_per_band_;
  uint64_t drops_ = 0;
};

// Sfq with a std::deque per bucket and std::list round-robin order, with its
// own copy of the bucket count and quantum.
class RefSfq {
 public:
  static constexpr size_t kNumBuckets = 1024;
  static constexpr int64_t kQuantumBytes = 1514;

  explicit RefSfq(int64_t limit_packets)
      : limit_packets_(limit_packets), buckets_(kNumBuckets) {}

  bool Enqueue(Packet pkt, TimePoint now) {
    (void)now;
    size_t idx = BucketFor(pkt);
    Bucket& b = buckets_[idx];
    bytes_ += pkt.size_bytes;
    b.bytes += pkt.size_bytes;
    b.queue.push_back(std::move(pkt));
    ++packets_;
    if (!b.active) {
      b.active = true;
      b.deficit = 0;
      rr_.push_back(idx);
    }
    if (packets_ > limit_packets_) {
      // The tail is the victim: the arrival is it when its bucket is longest.
      return DropFromLongest() != idx;
    }
    return true;
  }

  std::optional<Packet> Dequeue(TimePoint now) {
    (void)now;
    while (!rr_.empty()) {
      size_t idx = rr_.front();
      Bucket& b = buckets_[idx];
      if (b.queue.empty()) {
        b.active = false;
        rr_.pop_front();
        continue;
      }
      if (b.deficit <= 0) {
        b.deficit += kQuantumBytes;
        rr_.pop_front();
        rr_.push_back(idx);
        continue;
      }
      Packet pkt = std::move(b.queue.front());
      b.queue.pop_front();
      b.bytes -= pkt.size_bytes;
      b.deficit -= pkt.size_bytes;
      bytes_ -= pkt.size_bytes;
      --packets_;
      if (b.queue.empty()) {
        b.active = false;
        rr_.pop_front();
      }
      return pkt;
    }
    return std::nullopt;
  }

  uint64_t drops() const { return drops_; }
  int64_t bytes() const { return bytes_; }
  int64_t packets() const { return packets_; }

 private:
  struct Bucket {
    std::deque<Packet> queue;
    int64_t bytes = 0;
    int64_t deficit = 0;
    bool active = false;
  };

  // Same hash as the real implementation (HashedBucket), zero seed first.
  size_t BucketFor(const Packet& pkt) const {
    const uint64_t fields[] = {0,
                               pkt.key.src,
                               pkt.key.dst,
                               static_cast<uint64_t>(pkt.key.src_port),
                               static_cast<uint64_t>(pkt.key.dst_port),
                               static_cast<uint64_t>(pkt.key.protocol)};
    return Mix64(Fnv1a64Combine(fields, 6)) % kNumBuckets;
  }

  // Drops the tail of the bucket holding the most bytes (the first in
  // round-robin order wins a tie) and returns that bucket.
  size_t DropFromLongest() {
    auto longest = rr_.begin();
    for (auto it = rr_.begin(); it != rr_.end(); ++it) {
      if (buckets_[*it].bytes > buckets_[*longest].bytes) {
        longest = it;
      }
    }
    const size_t idx = *longest;
    Bucket& b = buckets_[idx];
    b.bytes -= b.queue.back().size_bytes;
    bytes_ -= b.queue.back().size_bytes;
    b.queue.pop_back();
    --packets_;
    ++drops_;
    if (b.queue.empty()) {
      b.active = false;
      rr_.erase(longest);
    }
    return idx;
  }

  int64_t limit_packets_;
  std::vector<Bucket> buckets_;
  std::list<size_t> rr_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
  uint64_t drops_ = 0;
};

// Drr with a std::deque per flow, an unordered_map from flow hash to queue
// and std::list round-robin order. A flow's queue lives only while it is
// backlogged, as a released DRR slot does.
class RefDrr {
 public:
  static constexpr int64_t kQuantumBytes = 1514;

  explicit RefDrr(int64_t limit_bytes) : limit_bytes_(limit_bytes) {}

  bool Enqueue(Packet pkt, TimePoint now) {
    (void)now;
    const uint64_t flow = FlowHash(pkt);
    FlowQueue& fq = flows_[flow];
    bytes_ += pkt.size_bytes;
    fq.bytes += pkt.size_bytes;
    fq.queue.push_back(std::move(pkt));
    ++packets_;
    if (fq.queue.size() == 1) {
      rr_.push_back(flow);
    }
    if (bytes_ > limit_bytes_) {
      // The tail is the victim: the arrival is it when its flow is longest.
      return DropFromLongest() != flow;
    }
    return true;
  }

  std::optional<Packet> Dequeue(TimePoint now) {
    (void)now;
    while (!rr_.empty()) {
      const uint64_t flow = rr_.front();
      FlowQueue& fq = flows_.at(flow);
      if (fq.deficit <= 0) {
        fq.deficit += kQuantumBytes;
        rr_.pop_front();
        rr_.push_back(flow);
        continue;
      }
      Packet pkt = std::move(fq.queue.front());
      fq.queue.pop_front();
      fq.bytes -= pkt.size_bytes;
      fq.deficit -= pkt.size_bytes;
      bytes_ -= pkt.size_bytes;
      --packets_;
      if (fq.queue.empty()) {
        rr_.pop_front();
        flows_.erase(flow);
      }
      return pkt;
    }
    return std::nullopt;
  }

  uint64_t drops() const { return drops_; }
  int64_t bytes() const { return bytes_; }
  int64_t packets() const { return packets_; }

 private:
  struct FlowQueue {
    std::deque<Packet> queue;
    int64_t bytes = 0;
    int64_t deficit = 0;
  };

  // Same hash as the real implementation (FlowKeyHash).
  static uint64_t FlowHash(const Packet& pkt) {
    const uint64_t fields[] = {pkt.key.src,
                               pkt.key.dst,
                               static_cast<uint64_t>(pkt.key.src_port),
                               static_cast<uint64_t>(pkt.key.dst_port),
                               static_cast<uint64_t>(pkt.key.protocol)};
    return Fnv1a64Combine(fields, 5);
  }

  // Drops the tail of the longest flow and returns that flow.
  uint64_t DropFromLongest() {
    auto longest = rr_.begin();
    for (auto it = rr_.begin(); it != rr_.end(); ++it) {
      if (flows_.at(*it).bytes > flows_.at(*longest).bytes) {
        longest = it;
      }
    }
    const uint64_t flow = *longest;
    FlowQueue& fq = flows_.at(flow);
    fq.bytes -= fq.queue.back().size_bytes;
    bytes_ -= fq.queue.back().size_bytes;
    fq.queue.pop_back();
    --packets_;
    ++drops_;
    if (fq.queue.empty()) {
      rr_.erase(longest);
      flows_.erase(flow);
    }
    return flow;
  }

  int64_t limit_bytes_;
  std::unordered_map<uint64_t, FlowQueue> flows_;
  std::list<uint64_t> rr_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
  uint64_t drops_ = 0;
};

// Mirrors seeded random churn over `q` and `ref` step for step: the same
// accept verdicts, the same dequeued packet ids and the same drop, byte and
// packet counters after every step, then the same drain order. Returns the
// drop count so callers can check that overflow engaged.
template <typename Q, typename Ref>
uint64_t MirrorChurn(Q& q, Ref& ref, uint64_t seed, uint64_t num_flows) {
  Rng rng(seed);
  TimePoint now;
  for (int step = 0; step < 30000; ++step) {
    now += TimeDelta::Micros(100);
    if (rng.NextDouble() < 0.55) {
      Packet p = RandomPacket(rng, static_cast<uint64_t>(step), num_flows);
      p.queue_enter = now;
      Packet clone = p.Clone();
      const bool accepted = q.Enqueue(std::move(p), now);
      const bool ref_accepted = ref.Enqueue(std::move(clone), now);
      EXPECT_EQ(accepted, ref_accepted) << "step " << step;
    } else {
      std::optional<Packet> out = q.Dequeue(now);
      std::optional<Packet> ref_out = ref.Dequeue(now);
      EXPECT_EQ(out.has_value(), ref_out.has_value()) << "step " << step;
      if (out.has_value() && ref_out.has_value()) {
        EXPECT_EQ(out->id, ref_out->id) << "step " << step;
      }
    }
    EXPECT_EQ(q.drops(), ref.drops()) << "step " << step;
    EXPECT_EQ(q.bytes(), ref.bytes()) << "step " << step;
    EXPECT_EQ(q.packets(), ref.packets()) << "step " << step;
    if (::testing::Test::HasFailure()) {
      return q.drops();
    }
  }
  while (q.packets() > 0) {
    std::optional<Packet> out = q.Dequeue(now);
    std::optional<Packet> ref_out = ref.Dequeue(now);
    EXPECT_TRUE(out.has_value() && ref_out.has_value() && out->id == ref_out->id);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  EXPECT_EQ(ref.packets(), 0);
  return q.drops();
}

TEST(QdiscByteIdentityTest, SfqMatchesDequeReference) {
  // 1,024 buckets under 4,096 flows, so buckets hold several flows each; a
  // 96-packet limit keeps the longest-bucket drop busy.
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE(seed);
    Sfq q(96);
    RefSfq ref(96);
    EXPECT_GT(MirrorChurn(q, ref, seed, 4096), 0u) << "overflow drops engaged";
  }
}

TEST(QdiscByteIdentityTest, DrrMatchesDequeReference) {
  // 200 flows behind a 64-MTU byte limit: flow slots are released and
  // reused constantly, and the longest-flow drop is busy.
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    SCOPED_TRACE(seed);
    Drr q(int64_t{64} * kMtuBytes);
    RefDrr ref(int64_t{64} * kMtuBytes);
    EXPECT_GT(MirrorChurn(q, ref, seed, 200), 0u) << "overflow drops engaged";
  }
}

TEST(QdiscByteIdentityTest, FqCodelMatchesDequeListReference) {
  // Randomized churn with standing queues, so every code path engages:
  // new/old list rotation, deficit refills, CoDel sojourn drops, and
  // overflow drops from the fattest flow. Every dequeue must produce the
  // same packet id and every drop counter must match, step for step.
  for (uint64_t seed = 3; seed <= 5; ++seed) {
    FqCodel q(192);
    RefFqCodel ref(192);
    Rng rng(seed);
    TimePoint now;
    for (int step = 0; step < 30000; ++step) {
      now += TimeDelta::Micros(200);
      if (rng.NextDouble() < 0.55) {
        Packet p = RandomPacket(rng, static_cast<uint64_t>(step));
        p.queue_enter = now;
        Packet clone = p.Clone();
        bool accepted = q.Enqueue(std::move(p), now);
        bool ref_accepted = ref.Enqueue(std::move(clone), now);
        ASSERT_EQ(accepted, ref_accepted) << "seed " << seed << " step " << step;
      } else {
        std::optional<Packet> out = q.Dequeue(now);
        std::optional<Packet> ref_out = ref.Dequeue(now);
        ASSERT_EQ(out.has_value(), ref_out.has_value())
            << "seed " << seed << " step " << step;
        if (out.has_value()) {
          ASSERT_EQ(out->id, ref_out->id) << "seed " << seed << " step " << step;
        }
      }
      ASSERT_EQ(q.drops(), ref.drops()) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.bytes(), ref.bytes()) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.packets(), ref.packets()) << "seed " << seed << " step " << step;
    }
  }
}

TEST(QdiscByteIdentityTest, StrictPrioMatchesDequeReference) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    StrictPrio q(int64_t{48} * kMtuBytes);
    RefStrictPrio ref(3, int64_t{48} * kMtuBytes);
    Rng rng(seed);
    TimePoint now;
    for (int step = 0; step < 30000; ++step) {
      now += TimeDelta::Micros(100);
      if (rng.NextDouble() < 0.55) {
        Packet p = RandomPacket(rng, static_cast<uint64_t>(step));
        p.queue_enter = now;
        Packet clone = p.Clone();
        bool accepted = q.Enqueue(std::move(p), now);
        bool ref_accepted = ref.Enqueue(std::move(clone), now);
        ASSERT_EQ(accepted, ref_accepted) << "seed " << seed << " step " << step;
      } else {
        std::optional<Packet> out = q.Dequeue(now);
        std::optional<Packet> ref_out = ref.Dequeue(now);
        ASSERT_EQ(out.has_value(), ref_out.has_value())
            << "seed " << seed << " step " << step;
        if (out.has_value()) {
          ASSERT_EQ(out->id, ref_out->id) << "seed " << seed << " step " << step;
        }
      }
      ASSERT_EQ(q.drops(), ref.drops()) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace bundler
