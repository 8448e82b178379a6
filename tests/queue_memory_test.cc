// Queue memory follows the packets held. Every multi-queue scheduler (SFQ,
// FQ-CoDel, DRR, StrictPrio) and SiteEgress's FIFO bundles queue in one
// shared PacketPool (src/qdisc/packet_pool.h), whose slab grows only to the
// scheduler's peak total occupancy. This binary replaces operator new (as
// obs_test does, plus the aligned forms) and checks, by exact count:
//  - once a scheduler has held its limit, bursts that rotate over every
//    bucket or over many new flows allocate nothing, because no queue keeps
//    its own high-water mark;
//  - a SiteEgress with 200 FIFO bundles of 512 packets allocates per bundle
//    at set-up, not per packet slot;
//  - steady enqueue/dequeue churn on each pooled scheduler allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/bundler/site_egress.h"
#include "src/net/packet.h"
#include "src/qdisc/drr.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/packet_pool.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/sim/simulator.h"

static uint64_t g_heap_allocs = 0;
static uint64_t g_heap_bytes = 0;

__attribute__((noinline)) void* operator new(std::size_t size) {
  ++g_heap_allocs;
  g_heap_bytes += size;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) { return operator new(size); }
__attribute__((noinline)) void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocs;
  g_heap_bytes += size;
  void* p = nullptr;
  if (posix_memalign(&p, std::max(sizeof(void*), static_cast<std::size_t>(align)), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bundler {
namespace {

// A full-size packet of flow `flow` (distinct source ports).
Packet FlowPacket(uint64_t flow, uint64_t id) {
  Packet p;
  p.id = id;
  p.flow_id = flow;
  p.key.src = MakeAddress(1, 1);
  p.key.dst = MakeAddress(2, 1);
  p.key.src_port = static_cast<uint16_t>(1 + flow % 60000);
  p.key.dst_port = static_cast<uint16_t>(80 + flow / 60000);
  p.size_bytes = kMtuBytes;
  return p;
}

void Drain(Qdisc& q, TimePoint now) {
  while (!q.Empty()) {
    (void)q.Dequeue(now);
  }
}

// Fills `q` one packet per flow from `flows` until it has dropped once, so
// the pool reaches the scheduler's transient peak (limit + 1), then drains.
void WarmToLimit(Qdisc& q, const std::vector<uint64_t>& flows) {
  const TimePoint now;
  uint64_t id = 0;
  for (size_t i = 0; q.drops() == 0; ++i) {
    (void)q.Enqueue(FlowPacket(flows[i % flows.size()], id++), now);
  }
  Drain(q, now);
}

std::vector<uint64_t> FlowRange(uint64_t first, uint64_t count) {
  std::vector<uint64_t> flows;
  for (uint64_t f = first; f < first + count; ++f) {
    flows.push_back(f);
  }
  return flows;
}

// Each round bursts `burst` packets onto each of `per_round` consecutive
// flows of `flows` (so every round lands in new buckets or new DRR flows)
// and drains. Returns the heap allocations the rounds made.
uint64_t RotatingBurstAllocs(Qdisc& q, const std::vector<uint64_t>& flows, size_t per_round,
                             int burst) {
  const TimePoint now;
  uint64_t id = 0;
  const uint64_t before = g_heap_allocs;
  for (size_t first = 0; first + per_round <= flows.size(); first += per_round) {
    for (int k = 0; k < burst; ++k) {
      for (size_t f = first; f < first + per_round; ++f) {
        (void)q.Enqueue(FlowPacket(flows[f], id++), now);
      }
    }
    Drain(q, now);
  }
  return g_heap_allocs - before;
}

TEST(QueueMemoryTest, SfqBurstsOverEveryBucketAllocateNothingOnceWarm) {
  Sfq::Config cfg;
  cfg.limit_packets = 1024;
  Sfq q(cfg);
  // One flow per bucket, found through the scheduler's own hash.
  std::vector<uint64_t> per_bucket(cfg.num_buckets, UINT64_MAX);
  size_t found = 0;
  for (uint64_t f = 0; found < cfg.num_buckets; ++f) {
    uint64_t& slot = per_bucket[q.BucketFor(FlowPacket(f, 0))];
    if (slot == UINT64_MAX) {
      slot = f;
      ++found;
    }
  }
  WarmToLimit(q, per_bucket);
  // Two buckets per round, 64 packets each: every bucket holds far more
  // than it did during the warm-up, but the total stays under the limit.
  EXPECT_EQ(RotatingBurstAllocs(q, per_bucket, 2, 64), 0u);
  // Bursts past the limit exercise the longest-bucket drop too.
  EXPECT_EQ(RotatingBurstAllocs(q, per_bucket, 4, 300), 0u);
  EXPECT_GT(q.drops(), 1u);
}

TEST(QueueMemoryTest, FqCodelBurstsOverEveryBucketAllocateNothingOnceWarm) {
  FqCodel::Config cfg;
  cfg.limit_packets = 1024;
  FqCodel q(cfg);
  // 8,192 flows hash onto all 1,024 buckets.
  const std::vector<uint64_t> flows = FlowRange(0, 8192);
  WarmToLimit(q, flows);
  EXPECT_EQ(RotatingBurstAllocs(q, flows, 2, 64), 0u);
  EXPECT_EQ(RotatingBurstAllocs(q, FlowRange(0, 1024), 4, 300), 0u);
  EXPECT_GT(q.drops(), 1u);
}

TEST(QueueMemoryTest, DrrBurstsOverManyNewFlowsAllocateNothingOnceWarm) {
  Drr::Config cfg;
  cfg.limit_bytes = int64_t{256} * kMtuBytes;
  Drr q(cfg);
  // The warm-up backlogs 257 flows at once, the most a 256-packet limit
  // ever holds; the rounds then bring 8,192 flows DRR has never seen.
  WarmToLimit(q, FlowRange(0, 4096));
  const std::vector<uint64_t> fresh = FlowRange(100000, 8192);
  EXPECT_EQ(RotatingBurstAllocs(q, fresh, 4, 16), 0u);
  EXPECT_EQ(RotatingBurstAllocs(q, fresh, 8, 40), 0u);
  EXPECT_GT(q.drops(), 1u);
}

TEST(QueueMemoryTest, SiteEgressSetUpAllocatesPerBundleNotPerSlot) {
  Simulator sim;
  SiteEgress::Config cfg;
  cfg.aggregate_rate = Rate::Mbps(200);
  cfg.per_bundle_queue_pkts = 512;
  std::vector<SiteEgress::TenantSpec> tenants;
  for (int t = 0; t < 50; ++t) {
    tenants.push_back({"t" + std::to_string(t), 1, 1.0, Rate::Zero()});
  }
  std::vector<SiteEgress::BundleSpec> bundles;
  for (size_t b = 0; b < 200; ++b) {
    SiteEgress::BundleSpec spec;
    spec.tenant = b % 50;
    bundles.push_back(spec);
  }
  const uint64_t before = g_heap_bytes;
  SiteEgress egress(&sim, cfg, std::move(tenants), std::move(bundles),
                    InlineFunction<void(size_t, Packet)>([](size_t, Packet) {}), "site");
  const uint64_t bytes = g_heap_bytes - before;
  // A preallocated ring per bundle would be 200 x 512 x sizeof(Packet),
  // about 18 MB; per-bundle state and the tenants' counter names are a few
  // hundred bytes each.
  EXPECT_LT(bytes, 200u * 2048u) << bytes << " bytes for 200 bundles";
  EXPECT_EQ(egress.total_backlog_pkts(), 0);
}

// Steady churn: a standing queue of 64 packets over 32 flows, one packet in
// and one out per step. After a warm-up pass, the same pass allocates
// nothing.
void ExpectSteadyChurnAllocatesNothing(Qdisc& q) {
  TimePoint now;
  uint64_t id = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    (void)q.Enqueue(FlowPacket(i % 32, id++), now);
  }
  auto pass = [&]() {
    for (int step = 0; step < 20000; ++step) {
      now += TimeDelta::Micros(10);
      Packet p = FlowPacket(id % 32, id);
      ++id;
      p.queue_enter = now;
      (void)q.Enqueue(std::move(p), now);
      (void)q.Dequeue(now);
    }
  };
  pass();
  const uint64_t before = g_heap_allocs;
  pass();
  EXPECT_EQ(g_heap_allocs - before, 0u) << q.name();
}

TEST(QueueMemoryTest, SteadyChurnOnEveryPooledSchedulerAllocatesNothing) {
  Sfq sfq(Sfq::Config{});
  ExpectSteadyChurnAllocatesNothing(sfq);
  FqCodel fq_codel(FqCodel::Config{});
  ExpectSteadyChurnAllocatesNothing(fq_codel);
  Drr drr(Drr::Config{});
  ExpectSteadyChurnAllocatesNothing(drr);
  StrictPrio prio(3, int64_t{1} << 20,
                  [](const Packet& p) { return static_cast<size_t>(p.flow_id % 3); });
  ExpectSteadyChurnAllocatesNothing(prio);
}

TEST(QueueMemoryTest, SteadyChurnOnSiteEgressFifoBundlesAllocatesNothing) {
  Simulator sim;
  SiteEgress::Config cfg;
  cfg.aggregate_rate = Rate::Gbps(24);
  std::vector<SiteEgress::TenantSpec> tenants;
  tenants.push_back({"t0", 0, 1.0, Rate::Gbps(12)});
  tenants.push_back({"t1", 1, 1.0, Rate::Zero()});
  std::vector<SiteEgress::BundleSpec> bundles;
  for (size_t b = 0; b < 8; ++b) {
    SiteEgress::BundleSpec spec;
    spec.tenant = b % 2;
    spec.initial_rate = Rate::Gbps(3);
    bundles.push_back(spec);
  }
  uint64_t sent = 0;
  SiteEgress egress(&sim, cfg, std::move(tenants), std::move(bundles),
                    InlineFunction<void(size_t, Packet)>([&sent](size_t, Packet) { ++sent; }),
                    "site");
  // 12 Gbit/s offered across 8 bundles of 3 Gbit/s each: immediate sends
  // mixed with short token waits on the pooled pump timer.
  TimePoint now;
  uint64_t id = 0;
  auto pass = [&]() {
    for (int step = 0; step < 40000; ++step) {
      now += TimeDelta::Micros(1);
      sim.RunUntil(now);
      egress.Enqueue(id % 8, FlowPacket(id % 64, id));
      ++id;
    }
  };
  pass();
  const uint64_t before = g_heap_allocs;
  pass();
  EXPECT_EQ(g_heap_allocs - before, 0u);
  EXPECT_GT(sent, 70000u);
}

TEST(QueueMemoryTest, PoolSlabTracksPeakTotalOccupancy) {
  PacketPool pool;
  std::vector<PacketPool::Queue> queues(100);
  // 100 queues take turns holding 50 packets each; the rest stay empty.
  for (size_t q = 0; q < queues.size(); ++q) {
    for (uint64_t i = 0; i < 50; ++i) {
      pool.PushBack(queues[q], FlowPacket(q, i));
    }
    for (uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(pool.PopFront(queues[q]).id, i);
    }
  }
  EXPECT_EQ(pool.slab_nodes(), 50u) << "one queue's worth, not 100";
  // Pop-back trims the tail; FIFO order of what remains is unchanged.
  for (uint64_t i = 0; i < 5; ++i) {
    pool.PushBack(queues[0], FlowPacket(0, i));
    pool.PushBack(queues[1], FlowPacket(1, 10 + i));
  }
  EXPECT_EQ(pool.PopBack(queues[0]).id, 4u);
  EXPECT_EQ(pool.Front(queues[0]).id, 0u);
  EXPECT_EQ(pool.PopFront(queues[1]).id, 10u);
  EXPECT_EQ(queues[0].size(), 4u);
  EXPECT_EQ(queues[1].size(), 4u);
  EXPECT_EQ(pool.slab_nodes(), 50u);
}

}  // namespace
}  // namespace bundler
