// Conservative parallel-DES driver: runs one partitioned simulation on K
// worker threads with byte-identical results for every K.
//
// Model. The topology is partitioned (src/topo/partition.h) into G shards,
// each owning a full Simulator — its own event heap, tracer, and counter
// registry. Cross-shard links push each packet into an SPSC ring
// (ShardChannel) as it starts to serialize; each channel's propagation delay
// is its conservative lookahead. Workers execute shards with a static assignment (shard i ->
// worker i % K), so the per-shard event sequence depends only on the
// partition — never on the worker count — and output at 1 worker and at K
// workers is identical by construction.
//
// Synchronization (null-message / horizon exchange, barrier-free fast path):
// every shard publishes a monotone clock C_g = "I will never again execute an
// event before C_g". A shard may advance to
//     bound = min over in-channels (C_src + lookahead)
// because any future upstream send delivers at >= C_src + lookahead. A shard
// with no in-channels never blocks. A blocked shard still publishes its bound
// as its clock (the null message), so chains unblock without barriers; a
// fixed per-step event budget keeps clocks fresh without a coordinator.
//
// Determinism of the merge: each step drains every in-channel's ring into
// that channel's FIFO, outside the shard's event heap. A channel's lookahead
// is fixed and its producer's clock only rises, so its FIFO is already in
// (deliver, sent, channel, seq) order — every component simulation-
// determined. The dispatch loop takes the earliest FIFO head by that key and
// merges it against the heap head with arrival-first tie-breaking, so the
// arrival order is that of one sorted queue, for any worker count.
// Delivering an arrival counts as one dispatched event (it replaces the
// link's delivery in the unsharded run), so sim.events_dispatched summed
// over shards equals the single-simulator count. Identity across worker
// counts is exact by construction; identity with an unsharded run of the
// same graph is not guaranteed. Its single heap orders same-instant events by
// insertion, which no shard sees, so two arrivals that tie on (deliver, sent)
// across channels may reach their shard the other way round. The two runs
// then queue those packets in different orders, and since a link schedules a
// transmit-done only while a packet waits, even their event totals may
// differ.
#ifndef SRC_SIM_SHARD_RUNNER_H_
#define SRC_SIM_SHARD_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/shard_channel.h"
#include "src/sim/simulator.h"
#include "src/util/ring_buffer.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace bundler {

class ShardRunner {
 public:
  struct Options {
    int workers = 1;  // clamped to [1, #shards]
  };

  // `sims[g]` is shard g's simulator; `channels` the boundary rings from the
  // sharded build. Neither is owned.
  ShardRunner(std::vector<Simulator*> sims, const ShardChannelSet* channels,
              Options options);

  // Advances every shard to `until` (inclusive, like Simulator::RunUntil) and
  // leaves all clocks parked there. Callable repeatedly with increasing
  // times.
  void RunUntil(TimePoint until);

  uint64_t total_events() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct InChannel {
    ShardChannel* ch;
    const std::atomic<int64_t>* src_clock;
    int64_t lookahead_ns;
    PacketHandler* dst;
    // Arrivals drained from `ch` and not yet delivered, in key order. Grows
    // on demand: it holds what the producer sent past this shard's bound.
    RingBuffer<BoundaryMsg> fifo;
  };

  // Everything below `owner_role` is owner-worker state: the static shard ->
  // worker map (shard i -> worker i % K) gives each shard exactly one driving
  // thread per RunUntil, and that ownership is what the role capability
  // encodes. Only `clock_ns` is shared — it is the published horizon peers
  // read with acquire ordering, and stays an atomic outside the role.
  struct Shard {
    Simulator* sim = nullptr;  // driven only by the owner worker
    alignas(64) std::atomic<int64_t> clock_ns{0};
    ThreadRole owner_role;
    // One per boundary ring into this shard; each owns the FIFO its ring
    // drains into.
    std::vector<InChannel> in GUARDED_BY(owner_role);
    bool done GUARDED_BY(owner_role) = false;  // per round
    uint64_t run_start_events GUARDED_BY(owner_role) = 0;
  };

  // One bounded step of shard g: refresh the bound, drain rings into the
  // FIFOs, dispatch up to kStepBudget events/arrivals below the bound,
  // republish the clock. Returns true when any event was dispatched.
  bool Step(Shard& s, int64_t until_ns) REQUIRES(s.owner_role);
  // The in-channel whose FIFO head delivers first by (deliver, sent, channel,
  // seq), or nullptr when every FIFO is empty.
  InChannel* EarliestArrival(Shard& s) REQUIRES(s.owner_role);
  void Worker(int w, TimePoint until);
  // Construction-time wiring of one boundary ring into its destination shard
  // (single-threaded; asserts the not-yet-contended owner role internally).
  void WireInChannel(Shard& dst, ShardChannel* ch);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bundler

#endif  // SRC_SIM_SHARD_RUNNER_H_
