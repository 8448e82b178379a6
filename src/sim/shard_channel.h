// Cross-shard packet exchange for conservative parallel DES.
//
// Each cross-shard link gets one ShardChannel: a fixed-capacity single-
// producer / single-consumer ring of BoundaryMsg (packet + its simulation-
// determined delivery metadata). The producer is the link's owning shard
// (each packet is written into the ring as it starts to serialize, instead
// of going on the link's delivery lane); the consumer is the destination
// shard's worker, which drains the ring into that channel's FIFO and merges
// the FIFO heads into its dispatch loop in deterministic (deliver, sent,
// channel, seq) order. The link's propagation delay is the channel's
// conservative lookahead: the consumer may safely advance to
// min(producer_clock + lookahead) over its in-channels before blocking.
//
// Memory ordering contract (see ShardRunner::Step): a producer publishes its
// shard clock with a release store *after* its ring pushes; a consumer loads
// peer clocks with acquire *before* draining rings. Any message counted into
// the advance bound is therefore visible when the bound is used.
//
// Everything here is allocation-free after construction: slots are
// preallocated and Packet is a flat, heap-free struct. A send writes its
// message straight into the ring's tail slot; a drain hands every published
// slot to the consumer and frees them all with one release store. Building a
// ring writes none of its slots, so a channel that never carries a message
// costs no resident memory; a busy one touches every slot once its traffic
// has gone round the ring.
#ifndef SRC_SIM_SHARD_CHANNEL_H_
#define SRC_SIM_SHARD_CHANNEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/net/link.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/thread_annotations.h"

namespace bundler {

// A boundary packet in flight between shards. All fields are simulation-
// determined (never wall-clock or worker dependent), so the consumer's merge
// order — and with it the whole run — is identical for any worker count.
struct BoundaryMsg {
  int64_t deliver_ns = 0;  // sent_ns + link propagation delay
  int64_t sent_ns = 0;     // producer-shard time the serialization finished
  uint64_t seq = 0;        // per-channel send sequence (ties: FIFO per channel)
  uint32_t channel = 0;    // channel id (= builder edge id), ties across channels
  Packet pkt;
};

// Bounded SPSC ring, power-of-two capacity, acquire/release head/tail. The
// same monotonic-index scheme as util/ring_buffer.h / index_ring.h, with the
// two indices promoted to atomics on separate cache lines so exactly one
// producer thread and one consumer thread may use it concurrently.
//
// The single-producer/single-consumer contract is encoded as two ThreadRole
// capabilities (src/util/thread_annotations.h): TryPushWith REQUIRES the
// producer role, Drain the consumer role. Under Clang's -Werror=thread-safety
// a call site that has not asserted the matching role — i.e. has not stated
// which side of the ring its thread is — does not compile.
template <typename T>
class SpscRing {
  // Slots are raw storage until a push writes them: an element's lifetime
  // begins and ends with its bytes.
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "SpscRing slots are never constructed or destroyed");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  explicit SpscRing(size_t capacity)
      : mask_(RoundUpPow2(capacity) - 1),
        // Construction time; default-initialized bytes, so no slot is written.
        storage_(new unsigned char[(mask_ + 1) * sizeof(T)]) {}  // lint:allow(datapath-heap-alloc)
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // The two sides of the SPSC contract. Public so callers can name them in
  // role.Assert() / REQUIRES clauses; they carry no runtime state.
  ThreadRole producer_role;
  ThreadRole consumer_role;

  // Producer side: `fill(T& slot)` writes the next element in place into the
  // tail slot, then the slot is published. The slot holds unwritten storage
  // or an already drained element, so `fill` must write every field Drain's
  // consumer reads. Returns false without calling `fill` when full (the
  // caller decides how loudly).
  template <typename Fill>
  [[nodiscard]] bool TryPushWith(Fill&& fill) REQUIRES(producer_role) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) {
      return false;
    }
    fill(Slot(tail));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: hands every published element, oldest first, to
  // `take(T& slot)` (which moves it out), then frees all their slots with one
  // release store. Returns how many were taken.
  template <typename Take>
  size_t Drain(Take&& take) REQUIRES(consumer_role) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    for (uint64_t i = head; i != tail; ++i) {
      take(Slot(i));
    }
    head_.store(tail, std::memory_order_release);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  T& Slot(uint64_t index) {
    return *std::launder(reinterpret_cast<T*>(storage_.get() + (index & mask_) * sizeof(T)));
  }

  const size_t mask_;
  std::unique_ptr<unsigned char[]> storage_;
  alignas(64) std::atomic<uint64_t> head_{0};  // next index to pop
  alignas(64) std::atomic<uint64_t> tail_{0};  // next index to push
};

// One cross-shard link's egress. Installed on the Link via set_boundary();
// the destination shard's worker drains the ring.
class ShardChannel : public BoundarySink {
 public:
  struct Spec {
    uint32_t id = 0;          // builder edge id (stable, topology-determined)
    int src_shard = 0;
    int dst_shard = 0;
    int64_t lookahead_ns = 0;  // the link's propagation delay
    PacketHandler* dst = nullptr;  // delivery handler in the dst shard
    Simulator* src_sim = nullptr;  // producer shard's simulator (for tracing)
    size_t capacity = 8192;
  };

  explicit ShardChannel(const Spec& spec)
      : spec_(spec), ring_(spec.capacity) {
    BUNDLER_CHECK(spec.lookahead_ns > 0);
    BUNDLER_CHECK(spec.dst != nullptr && spec.src_sim != nullptr);
    // Per-channel counters live in the producer shard's registry; they are
    // simulation-determined, so sharded runs report them identically for any
    // worker count.
    obs::CounterRegistry& reg = spec_.src_sim->counters();
    const std::string prefix = "shard.ch" + std::to_string(spec_.id) + ".";
    ctr_msgs_ = reg.Counter(prefix + "msgs");
    ctr_bytes_ = reg.Counter(prefix + "bytes");
  }

  void SendBoundary(TimePoint sent, TimeDelta prop_delay, Packet pkt) override {
    // Producer role held structurally: the sending Link lives in the source
    // shard, and ShardRunner's static shard->worker map means exactly one
    // worker ever drives that shard's simulator (and with it this method).
    ring_.producer_role.Assert();
    BUNDLER_CHECK_MSG(prop_delay.nanos() == spec_.lookahead_ns,
                      "shard channel %u: boundary link delay changed under us",
                      spec_.id);
    const uint64_t seq = next_seq_++;
    const int64_t deliver_ns = sent.nanos() + spec_.lookahead_ns;
    ++*ctr_msgs_;
    *ctr_bytes_ += pkt.size_bytes;
    // Stamped with the moment of the send, so the producer's records stay in
    // time order; `sent` is later, when the packet's serialization ends.
    obs::Tracer& tracer = spec_.src_sim->trace();
    if (tracer.enabled(obs::TraceCat::kShard)) {
      tracer.Trace(obs::TraceCat::kShard, obs::TraceEv::kShardSend, 0,
                   spec_.src_sim->now(), spec_.id, seq, static_cast<uint64_t>(deliver_ns));
    }
    // Written in place: the packet moves once, into the ring's tail slot.
    const bool pushed = ring_.TryPushWith([&](BoundaryMsg& m) {
      m.deliver_ns = deliver_ns;
      m.sent_ns = sent.nanos();
      m.seq = seq;
      m.channel = spec_.id;
      m.pkt = std::move(pkt);
    });
    BUNDLER_CHECK_MSG(
        pushed,
        "shard channel %u overflow (%zu slots): the conservative window "
        "admitted more in-flight boundary packets than the ring holds; raise "
        "ShardChannel::Spec::capacity",
        spec_.id, ring_.capacity());
  }

  // Consumer side; only the destination shard's owning worker may call this.
  // Name the capability via consumer_role() to Assert it at the call site.
  template <typename Take>
  size_t Drain(Take&& take) REQUIRES(ring_.consumer_role) {
    return ring_.Drain(take);
  }

  const ThreadRole& consumer_role() const RETURN_CAPABILITY(ring_.consumer_role) {
    return ring_.consumer_role;
  }

  const Spec& spec() const { return spec_; }

 private:
  Spec spec_;
  uint64_t next_seq_ GUARDED_BY(ring_.producer_role) = 0;
  uint64_t* ctr_msgs_ = nullptr;  // bumped only on the producer side
  uint64_t* ctr_bytes_ = nullptr;
  SpscRing<BoundaryMsg> ring_;
};

// Owns every channel of one sharded build (NetBuilder fills it; ShardRunner
// wires consumers).
class ShardChannelSet {
 public:
  ShardChannel* Add(const ShardChannel::Spec& spec) {
    // Construction-time only: channels are created while wiring the plan.
    channels_.push_back(std::make_unique<ShardChannel>(spec));  // lint:allow(datapath-heap-alloc)
    return channels_.back().get();
  }
  const std::vector<std::unique_ptr<ShardChannel>>& channels() const {
    return channels_;
  }

 private:
  std::vector<std::unique_ptr<ShardChannel>> channels_;
};

}  // namespace bundler

#endif  // SRC_SIM_SHARD_CHANNEL_H_
