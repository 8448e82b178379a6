// Cross-shard boundary ring tests (src/sim/shard_channel): single-threaded
// full/empty/capacity semantics, FIFO under a real producer/consumer thread
// pair (the ThreadSanitizer job in scripts/check.sh runs this suite to vet
// the acquire/release protocol), a ring's slots staying unwritten (and so not
// resident) until messages reach them, and ShardChannel's
// simulation-determined delivery metadata plus its overflow /
// frozen-lookahead CHECKs, and an exchange that never touches the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "src/net/packet.h"
#include "src/sim/shard_channel.h"
#include "src/sim/simulator.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
}

TEST(SpscRingTest, FullAndEmptySemantics) {
  SpscRing<int> ring(4);
  std::vector<int> out;
  const auto take = [&out](int& v) { out.push_back(v); };
  EXPECT_EQ(ring.Drain(take), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPushWith([i](int& slot) { slot = i; }));
  }
  bool filled = false;
  EXPECT_FALSE(ring.TryPushWith([&filled](int&) { filled = true; }));
  EXPECT_FALSE(filled);  // full: push refuses before writing, drops nothing
  EXPECT_EQ(ring.Drain(take), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.Drain(take), 0u);
  // Wrap-around after draining: indices are monotonic, masking handles it.
  EXPECT_TRUE(ring.TryPushWith([](int& slot) { slot = 7; }));
  EXPECT_EQ(ring.Drain(take), 1u);
  EXPECT_EQ(out.back(), 7);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BUNDLER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BUNDLER_SANITIZED 1
#endif
#endif

#if defined(__linux__) && !defined(BUNDLER_SANITIZED)
// This process's resident set, from /proc/self/statm (in pages there).
size_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  return n == 2 ? resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// Building a ring writes none of its slots, so a channel that never carries a
// message costs no resident memory; only the slots that messages reach are
// touched. (Sanitizers write shadow memory for every allocation, so this
// runs in plain builds only.)
TEST(SpscRingTest, OnlySlotsThatMessagesReachBecomeResident) {
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  SpscRing<BoundaryMsg> ring(size_t{1} << 18);
  const size_t ring_bytes = ring.capacity() * sizeof(BoundaryMsg);
  ring.producer_role.Assert();
  ring.consumer_role.Assert();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(ring.TryPushWith([i](BoundaryMsg& m) {
      m.deliver_ns = static_cast<int64_t>(i);
      m.sent_ns = 0;
      m.seq = i;
      m.channel = 1;
      m.pkt = Packet();
    }));
  }
  uint64_t next = 0;
  EXPECT_EQ(ring.Drain([&next](BoundaryMsg& m) { EXPECT_EQ(m.seq, next++); }), 64u);
  const size_t after = ResidentBytes();
  EXPECT_LT(after > before ? after - before : 0, ring_bytes / 8)
      << "a " << ring_bytes << "-byte ring with 64 messages through it";
}
#endif

// The one concurrency pattern the ring must support: exactly one producer
// thread and one consumer thread, both spinning. Run under TSan this checks
// the acquire/release pairing; under any build it checks FIFO and loss-free
// delivery through a ring much smaller than the message count.
TEST(SpscRingTest, FifoUnderProducerConsumerThreads) {
  constexpr uint64_t kMessages = 50000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&ring]() {
    for (uint64_t i = 0; i < kMessages; ++i) {
      while (!ring.TryPushWith([i](uint64_t& slot) { slot = i; })) {
        std::this_thread::yield();  // single-core boxes: let the consumer run
      }
    }
  });
  uint64_t expect = 0;
  uint64_t misordered = 0;
  while (expect < kMessages) {
    const size_t taken = ring.Drain([&expect, &misordered](uint64_t& v) {
      misordered += v != expect ? 1 : 0;
      ++expect;
    });
    if (taken == 0) {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(expect, kMessages);
  EXPECT_EQ(misordered, 0u);
  EXPECT_EQ(ring.Drain([](uint64_t&) {}), 0u);
}

class NullSink : public PacketHandler {
 public:
  void HandlePacket(Packet pkt) override { (void)pkt; }
};

Packet MakePacket(uint32_t bytes) {
  Packet pkt;  // move-only: each send gets a fresh one
  pkt.size_bytes = bytes;
  return pkt;
}

ShardChannel::Spec TestSpec(Simulator* sim, PacketHandler* dst) {
  ShardChannel::Spec spec;
  spec.id = 7;
  spec.src_shard = 0;
  spec.dst_shard = 1;
  spec.lookahead_ns = TimeDelta::Millis(2).nanos();
  spec.dst = dst;
  spec.src_sim = sim;
  spec.capacity = 8;
  return spec;
}

TEST(ShardChannelTest, StampsSimulationDeterminedDeliveryMetadata) {
  Simulator sim;
  NullSink dst;
  ShardChannel ch(TestSpec(&sim, &dst));

  ch.SendBoundary(TimePoint::FromNanos(1000), TimeDelta::Millis(2),
                  MakePacket(1500));
  ch.SendBoundary(TimePoint::FromNanos(3000), TimeDelta::Millis(2),
                  MakePacket(40));

  std::vector<BoundaryMsg> got;
  EXPECT_EQ(ch.Drain([&got](BoundaryMsg& m) { got.push_back(std::move(m)); }), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].sent_ns, 1000);
  EXPECT_EQ(got[0].deliver_ns, 1000 + TimeDelta::Millis(2).nanos());
  EXPECT_EQ(got[0].seq, 0u);
  EXPECT_EQ(got[0].channel, 7u);
  EXPECT_EQ(got[0].pkt.size_bytes, 1500);
  EXPECT_EQ(got[1].seq, 1u);  // per-channel FIFO sequence
  EXPECT_EQ(got[1].pkt.size_bytes, 40);
  EXPECT_EQ(ch.Drain([](BoundaryMsg&) {}), 0u);
}

// The boundary exchange allocates nothing: each op is one SendBoundary
// (stamp metadata, bump counters, write the packet in place into the ring)
// and the consumer's Drain, all on the ring's preallocated storage.
TEST(ShardChannelTest, BoundaryExchangeAllocatesNothing) {
  Simulator sim;
  NullSink dst;
  ShardChannel::Spec spec = TestSpec(&sim, &dst);
  spec.capacity = 256;
  ShardChannel ch(spec);
  int64_t t_ns = 0;
  uint64_t bytes = 0;
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      ch.SendBoundary(TimePoint::FromNanos(++t_ns), TimeDelta::Millis(2), MakePacket(1500));
      ch.Drain([&bytes](BoundaryMsg& m) { bytes += m.pkt.size_bytes; });
    }
  };
  churn(1 << 14);
  const uint64_t before = HeapAllocs();
  churn(1 << 20);
  EXPECT_EQ(HeapAllocs() - before, 0u);
  EXPECT_EQ(bytes, uint64_t{1500} * ((1 << 14) + (1 << 20)));
}

TEST(ShardChannelDeathTest, ZeroLookaheadDies) {
  Simulator sim;
  NullSink dst;
  ShardChannel::Spec spec = TestSpec(&sim, &dst);
  spec.lookahead_ns = 0;
  EXPECT_DEATH(ShardChannel ch(spec), "lookahead_ns > 0");
}

TEST(ShardChannelDeathTest, ChangedBoundaryDelayDies) {
  Simulator sim;
  NullSink dst;
  ShardChannel ch(TestSpec(&sim, &dst));
  EXPECT_DEATH(ch.SendBoundary(TimePoint::FromNanos(10), TimeDelta::Millis(3),
                               MakePacket(100)),
               "boundary link delay changed");
}

TEST(ShardChannelDeathTest, RingOverflowDiesLoudly) {
  Simulator sim;
  NullSink dst;
  ShardChannel::Spec spec = TestSpec(&sim, &dst);
  spec.capacity = 1;
  ShardChannel ch(spec);
  ch.SendBoundary(TimePoint::FromNanos(10), TimeDelta::Millis(2),
                  MakePacket(100));
  EXPECT_DEATH(ch.SendBoundary(TimePoint::FromNanos(20), TimeDelta::Millis(2),
                               MakePacket(100)),
               "overflow");
}

}  // namespace
}  // namespace bundler
