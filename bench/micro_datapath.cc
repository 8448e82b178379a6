// Datapath micro-costs (§6.1): the paper's only added per-packet work is the
// FNV boundary hash ("4 integer multiplications ... negligible CPU
// overhead"). This self-contained benchmark (no external framework) measures
// the hash, the epoch boundary check, each qdisc's enqueue+dequeue cost, and
// — the simulator's real hot path — the event engine: schedule+dispatch
// churn, cancel-heavy churn, periodic re-arm, and an end-to-end experiment
// run in events per second.
//
// The inline-callback engine is benchmarked against `LegacyFunctionQueue`, a
// faithful copy of the pre-refactor queue (std::function callbacks in a
// std::priority_queue with lazy unordered_set cancellation), so every run
// reports the speedup and the allocations-per-event of both. Run with
// --json PATH to emit machine-readable results (scripts/bench.sh does; the
// file lands as BENCH_datapath.json for the repo's perf trajectory).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/bundler/epoch.h"
#include "src/bundler/site_egress.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/obs/trace.h"
#include "src/net/link_schedule.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/topo/fat_tree.h"
#include "src/topo/partition.h"
#include "src/topo/scenario.h"
#include "src/transport/tcp_flow.h"
#include "src/util/fnv.h"
#include "src/util/table.h"

// Binary-wide allocation counter so each timed section can report heap
// allocations per operation — the engine's zero-allocation claim is measured,
// not asserted.
static uint64_t g_heap_allocs = 0;

// noinline: keeps GCC from pairing the inlined malloc with a visible free
// (spurious -Wmismatched-new-delete) and from eliding counted allocations.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) { return operator new(size); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bundler {
namespace {

// The event queue this refactor replaced, kept verbatim as the comparison
// baseline: heap-allocating std::function callbacks, std::priority_queue
// storage, and lazy cancellation through an unordered_set of dead ids.
class LegacyFunctionQueue {
 public:
  using Callback = std::function<void()>;

  EventId Push(TimePoint time, Callback cb) {
    uint64_t seq = next_seq_++;
    heap_.push(Event{time, seq, seq, std::move(cb)});
    return seq;
  }

  void Cancel(EventId id) {
    if (id != kInvalidEventId) {
      cancelled_.insert(id);
    }
  }

  bool Empty() {
    DropCancelledHead();
    return heap_.empty();
  }

  TimePoint NextTime() {
    DropCancelledHead();
    return heap_.top().time;
  }

  Callback PopNext(TimePoint* time_out) {
    DropCancelledHead();
    Event& top = const_cast<Event&>(heap_.top());
    Callback cb = std::move(top.callback);
    *time_out = top.time;
    heap_.pop();
    return cb;
  }

 private:
  struct Event {
    TimePoint time;
    uint64_t seq;
    EventId id;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  void DropCancelledHead() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) {
        return;
      }
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<EventId> cancelled_;
  uint64_t next_seq_ = 1;
};

struct BenchResult {
  std::string name;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  double allocs_per_op = 0;
};

using Clock = std::chrono::steady_clock;

// Times `op` over `iters` iterations (after `warmup` untimed ones) and
// reports per-op cost and per-op heap allocations.
template <typename Fn>
BenchResult Measure(const std::string& name, uint64_t warmup, uint64_t iters, Fn&& op) {
  for (uint64_t i = 0; i < warmup; ++i) {
    op(i);
  }
  uint64_t allocs_before = g_heap_allocs;
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    op(warmup + i);
  }
  Clock::time_point end = Clock::now();
  uint64_t allocs = g_heap_allocs - allocs_before;
  double sec = std::chrono::duration<double>(end - start).count();
  BenchResult r;
  r.name = name;
  r.ns_per_op = sec / static_cast<double>(iters) * 1e9;
  r.ops_per_sec = static_cast<double>(iters) / sec;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(iters);
  return r;
}

Packet TypicalPacket(uint64_t i) {
  Packet p;
  p.flow_id = i % 64;
  p.key.src = MakeAddress(10, static_cast<uint16_t>(i % 200));
  p.key.dst = MakeAddress(100, 1);
  p.key.src_port = 80;
  p.key.dst_port = static_cast<uint16_t>(1024 + i % 5000);
  p.ip_id = static_cast<uint16_t>(i);
  p.size_bytes = kMtuBytes;
  return p;
}

volatile uint64_t g_sink = 0;

BenchResult BenchBoundaryHash() {
  Packet p = TypicalPacket(1);
  return Measure("boundary_hash", 1 << 16, 1 << 22, [&](uint64_t i) {
    p.ip_id = static_cast<uint16_t>(i);
    g_sink = g_sink + BoundaryHash(p);
  });
}

BenchResult BenchBoundaryCheck() {
  Packet p = TypicalPacket(1);
  return Measure("boundary_check", 1 << 16, 1 << 22, [&](uint64_t i) {
    p.ip_id = static_cast<uint16_t>(i);
    g_sink = g_sink + (IsEpochBoundary(BoundaryHash(p), 16) ? 1 : 0);
  });
}

template <typename MakeQdisc>
BenchResult BenchQdiscChurn(const std::string& name, MakeQdisc make) {
  auto q = make();
  TimePoint now;
  uint64_t seed = 0;
  // Keep ~64 packets resident so dequeue always finds work.
  for (int k = 0; k < 64; ++k) {
    q->Enqueue(TypicalPacket(seed++), now);
  }
  return Measure(name, 1 << 14, 1 << 19, [&](uint64_t i) {
    now += TimeDelta::Micros(1);
    q->Enqueue(TypicalPacket(i), now);
    std::optional<Packet> out = q->Dequeue(now);
    if (out.has_value()) {
      g_sink = g_sink + out->size_bytes;
    }
  });
}

// The acceptance microbenchmark: steady-state schedule+dispatch churn over a
// 4096-deep pending set, mirroring what the Simulator does per event — one
// schedule, then an Empty/NextTime/PopNext dispatch round. The capture is
// sized like the datapath's dominant event (a Link transmit/propagation
// event carrying a Packet, 176 bytes, plus the owner pointer) — far beyond
// std::function's inline buffer, so the legacy queue allocates per schedule
// exactly as it did in the real simulator.
struct ChurnPayload {
  uint64_t words[22];  // sizeof(Packet) stand-in
  uint64_t* sink;
};
static_assert(sizeof(ChurnPayload) == 184);

template <typename Queue>
BenchResult BenchScheduleDispatch(const std::string& name) {
  Queue q;
  static uint64_t sink_word = 0;
  TimePoint base;
  ChurnPayload payload{};
  payload.words[0] = 1;
  payload.sink = &sink_word;
  for (int i = 0; i < 4096; ++i) {
    (void)q.Push(base + TimeDelta::Micros(i), [payload]() { *payload.sink += payload.words[0]; });
  }
  uint64_t i = 0;
  BenchResult r = Measure(name, 1 << 16, 1 << 21, [&](uint64_t) {
    (void)q.Push(base + TimeDelta::Micros(4096 + i++),
                 [payload]() { *payload.sink += payload.words[1]; });
    if (!q.Empty()) {
      TimePoint next = q.NextTime();
      TimePoint t;
      q.PopNext(&t)();
      g_sink = g_sink + static_cast<uint64_t>(next.nanos() == t.nanos());
    }
  });
  g_sink = g_sink + sink_word;
  return r;
}

template <typename Queue>
BenchResult BenchScheduleCancel(const std::string& name) {
  Queue q;
  static uint64_t sink_word = 0;
  TimePoint base;
  ChurnPayload payload{};
  payload.sink = &sink_word;
  std::vector<EventId> pending;
  pending.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    pending.push_back(q.Push(base + TimeDelta::Micros(i),
                             [payload]() { *payload.sink += payload.words[0]; }));
  }
  uint64_t i = 0;
  // Each op: cancel a pending event, schedule a replacement, dispatch one —
  // the cancel-heavy pattern of RTO timers and shaper rate changes.
  BenchResult r = Measure(name, 1 << 14, 1 << 20, [&](uint64_t) {
    size_t victim = i % pending.size();
    (void)q.Cancel(pending[victim]);
    pending[victim] = q.Push(base + TimeDelta::Micros(4096 + i),
                             [payload]() { *payload.sink += payload.words[1]; });
    (void)q.Push(base + TimeDelta::Micros(4096 + i) + TimeDelta::Nanos(1),
                 [payload]() { *payload.sink += payload.words[2]; });
    TimePoint t;
    q.PopNext(&t)();
    ++i;
  });
  g_sink = g_sink + sink_word;
  return r;
}

BenchResult BenchPeriodicDispatch() {
  EventQueue q;
  static uint64_t ticks = 0;
  for (int i = 0; i < 64; ++i) {
    (void)q.PushPeriodic(TimePoint::FromNanos(i), TimeDelta::Micros(1), []() { ++ticks; });
  }
  BenchResult r = Measure("engine_periodic_dispatch", 1 << 14, 1 << 20,
                          [&](uint64_t) { q.DispatchHead(); });
  g_sink = g_sink + ticks;
  return r;
}

// TCP loss recovery under a steady lossy window: a backlogged flow holding a
// constant 450-packet window over a 480 Mbit/s / 40 ms path that drops every
// 23rd packet (~4.3%), so the sender cycles through SACK marking, hole
// reveals, hole retransmission, and lost-retransmit detection continuously
// at full window — the exact operation mix the scoreboard serves, with
// hundreds of marked segments resident (an adaptive controller would shrink
// the window to a handful of packets at this loss rate and leave the
// scoreboard nearly idle). Ops are simulator events; the scoreboard,
// receiver interval set, qdisc rings, and event engine together must make
// this allocation-free in steady state.
BenchResult BenchTcpRecoveryChurn() {
  Simulator sim;
  FlowTable flows;
  Host a(&sim, MakeAddress(1, 1), nullptr);
  Host b(&sim, MakeAddress(2, 1), nullptr);
  Link ba(&sim, "ba", Rate::Mbps(480), TimeDelta::Millis(20),
          std::make_unique<DropTailFifo>(int64_t{1} << 22), &a);
  Link ab(&sim, "ab", Rate::Mbps(480), TimeDelta::Millis(20),
          std::make_unique<DropTailFifo>(int64_t{1} << 22), &b);
  uint64_t count = 0;
  LambdaHandler mangler([&](Packet p) {
    if (++count % 23 != 0) {
      ab.HandlePacket(std::move(p));
    }
  });
  a.set_egress(&mangler);
  b.set_egress(&ba);
  TcpFlowParams params;
  params.size_bytes = -1;  // backlogged: recovery never ends for lack of data
  params.cc = HostCcType::kConstCwnd;
  params.const_cwnd_pkts = 450.0;
  StartTcpFlow(&flows, &a, &b, params, nullptr);

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(2));  // warmup
  uint64_t allocs_before = g_heap_allocs;
  uint64_t events_before = sim.events_dispatched();
  Clock::time_point start = Clock::now();
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(12));
  Clock::time_point end = Clock::now();
  double sec = std::chrono::duration<double>(end - start).count();
  uint64_t events = sim.events_dispatched() - events_before;
  BenchResult r;
  r.name = "tcp_recovery_churn";
  r.ns_per_op = sec / static_cast<double>(events) * 1e9;
  r.ops_per_sec = static_cast<double>(events) / sec;
  r.allocs_per_op =
      static_cast<double>(g_heap_allocs - allocs_before) / static_cast<double>(events);
  return r;
}

// Dynamic link events in steady state: a looping three-point rate trace
// (slow / parked / fast, 300 us period) drives a link that a self-refeeding
// packet keeps busy, so every trace firing exercises set_rate, the park and
// unpark paths, and the driver's rearm — which must all be allocation-free
// (the rearm rides one pooled event slot; scripts/bench.sh gates this at
// <= 0.001 allocs/op like the other churn benches).
BenchResult BenchLinkEventRearmChurn() {
  Simulator sim;
  Link* link_ptr = nullptr;
  LambdaHandler refeed([&](Packet p) { link_ptr->HandlePacket(std::move(p)); });
  Link link(&sim, "dyn", Rate::Mbps(100), TimeDelta::Micros(10),
            std::make_unique<DropTailFifo>(1 << 20), &refeed);
  link_ptr = &link;
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.protocol = 6;
  link.HandlePacket(MakeDataPacket(/*flow_id=*/1, key, /*seq=*/0, kMtuBytes));

  std::vector<LinkEventSpec> trace;
  trace.push_back({TimePoint::FromNanos(50'000), Rate::Mbps(5), false, TimeDelta::Zero()});
  trace.push_back({TimePoint::FromNanos(150'000), Rate::Zero(), false, TimeDelta::Zero()});
  trace.push_back(
      {TimePoint::FromNanos(250'000), Rate::Mbps(100), true, TimeDelta::Micros(10)});
  LinkScheduleDriver driver(&sim, &link, std::move(trace), TimeDelta::Micros(300));

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(1));  // warmup
  uint64_t allocs_before = g_heap_allocs;
  uint64_t events_before = sim.events_dispatched();
  Clock::time_point start = Clock::now();
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(11));
  Clock::time_point end = Clock::now();
  double sec = std::chrono::duration<double>(end - start).count();
  uint64_t events = sim.events_dispatched() - events_before;
  BenchResult r;
  r.name = "link_event_rearm_churn";
  r.ns_per_op = sec / static_cast<double>(events) * 1e9;
  r.ops_per_sec = static_cast<double>(events) / sec;
  r.allocs_per_op =
      static_cast<double>(g_heap_allocs - allocs_before) / static_cast<double>(events);
  g_sink = g_sink + driver.fired();
  return r;
}

// The multi-tenant egress hierarchy's datapath churn: 4 tenants across two
// priority bands, 8 bundles, packets enqueued round-robin while simulated
// time advances 1 us per op. Offered load (12 Gbit/s) sits inside every
// nested limit (site 24, bundles 3 each), so ops mix immediate sends with
// short token waits served by the pooled pump timer — packet-pool push/pop,
// IndexRing activation, three-level DRR bookkeeping, and rearm all cycle
// every op. A control-plane SetBundleRate lands every 256 ops like a
// manager tick. Gated allocation-free: once warm, the hierarchy rides its
// shared packet pool and one pooled timer slot, like the flat qdisc rows.
BenchResult BenchSiteEgressChurn() {
  Simulator sim;
  SiteEgress::Config cfg;
  cfg.aggregate_rate = Rate::Gbps(24);
  std::vector<SiteEgress::TenantSpec> tenants;
  tenants.push_back({"t0", 0, 1.0, Rate::Gbps(12)});
  tenants.push_back({"t1", 1, 1.0, Rate::Zero()});
  tenants.push_back({"t2", 1, 3.0, Rate::Zero()});
  tenants.push_back({"t3", 1, 1.0, Rate::Gbps(6)});
  std::vector<SiteEgress::BundleSpec> bundles;
  for (size_t i = 0; i < 8; ++i) {
    SiteEgress::BundleSpec spec;
    spec.tenant = i % tenants.size();
    spec.class_weight = 1.0 + static_cast<double>(i % 2);
    spec.initial_rate = Rate::Gbps(3);
    bundles.push_back(spec);
  }
  SiteEgress egress(
      &sim, cfg, std::move(tenants), std::move(bundles),
      InlineFunction<void(size_t, Packet)>(
          [](size_t, Packet pkt) { g_sink = g_sink + pkt.size_bytes; }),
      "bench_site");
  TimePoint now;
  return Measure("site_egress_churn", 1 << 14, 1 << 19, [&](uint64_t i) {
    now += TimeDelta::Micros(1);
    sim.RunUntil(now);
    if (i % 256 == 0) {
      egress.SetBundleRate(i % 8, (i % 512 == 0) ? Rate::Gbps(3)
                                                 : Rate::Mbps(2500));
    }
    egress.Enqueue(i % 8, TypicalPacket(i));
  });
}

// FlowTable arena reclamation in steady state: a 256-flow working set where
// each op releases the oldest object and emplaces a replacement — the
// swap-remove, header fixup, and free-list push/pop cycle of a churny
// scenario. Gated allocation-free: once the arena is warm, create/release
// recycles blocks instead of growing it.
BenchResult BenchFlowReclaimChurn() {
  struct Flowish {
    uint64_t words[48] = {};  // sender-ish footprint, a few size classes up
  };
  FlowTable table;
  std::vector<Flowish*> live(256);
  for (Flowish*& f : live) {
    f = table.Emplace<Flowish>();
  }
  size_t idx = 0;
  BenchResult r = Measure("flow_reclaim_churn", 1 << 14, 1 << 20, [&](uint64_t i) {
    table.Release(live[idx]);
    Flowish* f = table.Emplace<Flowish>();
    f->words[0] = i;
    g_sink = g_sink + f->words[0];
    live[idx] = f;
    idx = (idx + 1) % live.size();
  });
  for (Flowish* f : live) {
    table.Release(f);
  }
  return r;
}

// The cross-shard boundary exchange: one SendBoundary (stamp metadata, bump
// counters, ring push) plus the consumer's TryPop, per op. Everything is
// preallocated flat storage, so this is gated allocation-free like the other
// datapath churn rows.
BenchResult BenchBoundaryRingChurn() {
  struct Sink : PacketHandler {
    void HandlePacket(Packet pkt) override { (void)pkt; }
  };
  Simulator sim;
  Sink sink;
  ShardChannel::Spec spec;
  spec.id = 1;
  spec.dst_shard = 1;
  spec.lookahead_ns = TimeDelta::Millis(1).nanos();
  spec.dst = &sink;
  spec.src_sim = &sim;
  spec.capacity = 256;
  ShardChannel ch(spec);
  BoundaryMsg m;
  return Measure("boundary_ring_churn", 1 << 14, 1 << 20, [&](uint64_t i) {
    ch.SendBoundary(TimePoint::FromNanos(static_cast<int64_t>(i)),
                    TimeDelta::Millis(1), TypicalPacket(i));
    (void)ch.TryPop(&m);
    g_sink = g_sink + m.pkt.size_bytes;
  });
}

// Conservative parallel DES end to end: the fat_tree_incast workload (4
// leaves x 2 hosts over 2 spines -> 6 shards) run by ShardRunner with a given
// worker count, in simulator events per wall second. scripts/bench.sh
// compares the 4-worker row against the 1-worker row; on multi-core machines
// the partitioned run must scale (the win this PR exists for), on fewer
// cores it only has to avoid collapsing under the sync overhead.
BenchResult BenchParallelDesFatTree(int workers) {
  FatTreeConfig cfg;
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  const PartitionPlan plan = PartitionTopology(b);
  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i < plan.num_groups; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
  }
  ShardChannelSet channels;
  std::unique_ptr<Net> net = b.Build(plan, sims, &channels);

  // Staggered incast waves onto leaf 0 for the whole run, as in the
  // fat_tree_incast scenario.
  constexpr int kWaves = 40;
  int rr = 0;
  for (int w = 0; w < kWaves; ++w) {
    const TimePoint base =
        TimePoint::Zero() + TimeDelta::Millis(50) * w + TimeDelta::Millis(5);
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        Host* src = net->host(
            g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
        Host* dst = net->host(
            g.hosts[0][static_cast<size_t>(rr % cfg.hosts_per_leaf)]);
        const TimePoint start = base + TimeDelta::Micros((211 * rr) % 2000);
        ++rr;
        TcpFlowParams params;
        params.size_bytes = 256 * 1024;
        params.request_start = start;
        TcpSender* sender = CreateTcpFlow(net->flows(), src, dst, params, nullptr);
        src->sim()->ScheduleAt(start, [sender]() { sender->Start(); });
      }
    }
  }

  ShardRunner::Options opt;
  opt.workers = workers;
  ShardRunner sr(sims, &channels, opt);
  Clock::time_point start = Clock::now();
  sr.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(3));
  Clock::time_point end = Clock::now();
  double sec = std::chrono::duration<double>(end - start).count();
  uint64_t events = 0;
  for (Simulator* s : sims) {
    events += s->events_dispatched();
  }
  BenchResult r;
  r.name = "parallel_des_fat_tree_w" + std::to_string(workers);
  r.ns_per_op = sec / static_cast<double>(events) * 1e9;
  r.ops_per_sec = static_cast<double>(events) / sec;
  r.allocs_per_op = 0;  // not meaningful per event; the ring/reclaim rows gate allocs
  return r;
}

// Faulted datapath churn: every packet pays the targeting check, the
// blackout cursor, and a Gilbert-Elliott loss + transition draw; ~10% of
// survivors additionally pass through the bounded reorder hold slot (depth
// releases cancel the pooled flush timer; sim time advances so timers
// genuinely fire and recycle). Gated allocation-free like the other churn
// rows — the injector's 0 allocs/packet contract, measured.
BenchResult BenchFaultInjectorChurn() {
  struct Sink : PacketHandler {
    void HandlePacket(Packet pkt) override { g_sink = g_sink + pkt.size_bytes; }
  };
  Simulator sim;
  Sink sink;
  FaultProfileSpec spec;
  spec.ge_p_good_to_bad = 0.05;
  spec.ge_p_bad_to_good = 0.3;
  spec.ge_loss_good = 0.0;
  spec.ge_loss_bad = 1.0;
  spec.reorder_prob = 0.1;
  spec.reorder_depth = 8;
  spec.seed = 12345;
  FaultInjector inj(&sim, "bench", spec, &sink);
  TimePoint now;
  return Measure("fault_injector_churn", 1 << 14, 1 << 20, [&](uint64_t i) {
    now += TimeDelta::Micros(1);
    sim.RunUntil(now);
    inj.HandlePacket(TypicalPacket(i));
  });
}

// The fault-disabled fast path: a ctl-targeted profile while data packets
// stream through — one type check, no RNG draw, no stats update. The op
// (packet construction + sink delivery) is timed with and without the
// injector interposed; `added_ns_out` receives the difference, the
// injector's true added cost per untargeted packet. Together with the
// end-to-end row this bounds the cost of declaring a fault profile on a
// link whose targeted population is idle; a link with *no* profile has no
// injector in its chain at all (AddFaultProfile is the only way one enters
// a datapath), so its overhead is identically zero.
BenchResult BenchFaultUntargetedHook(double* added_ns_out) {
  struct Sink : PacketHandler {
    void HandlePacket(Packet pkt) override { g_sink = g_sink + pkt.size_bytes; }
  };
  Simulator sim;
  Sink sink;
  // Volatile handler pointer: the baseline pays the same indirect dispatch a
  // real delivery chain does, instead of letting the compiler collapse the
  // whole op and charge packet construction to the injector.
  PacketHandler* volatile base = &sink;
  BenchResult direct = Measure("fault_direct_baseline", 1 << 16, 1 << 22,
                               [&](uint64_t i) { base->HandlePacket(TypicalPacket(i)); });
  FaultProfileSpec spec;
  spec.target = FaultTarget::kCtl;
  spec.loss_prob = 0.5;
  FaultInjector inj(&sim, "bench_cold", spec, &sink);
  BenchResult hook = Measure("fault_untargeted_hook", 1 << 16, 1 << 22,
                             [&](uint64_t i) { inj.HandlePacket(TypicalPacket(i)); });
  *added_ns_out = std::max(0.0, hook.ns_per_op - direct.ns_per_op);
  return hook;
}

// The flight recorder's disabled hot path: a trace point whose category is
// not in the armed mask costs one mask-load + shift + test + branch. This is
// what every instrumented site pays when bundler_run runs without --trace
// (mask 0) or with the site's category filtered out. The volatile category
// read keeps the compiler from constant-folding the mask test away.
BenchResult BenchTraceDisabledHook() {
  obs::Tracer t;
  t.Enable(obs::CatBit(obs::TraceCat::kSim), 16);  // armed, but not for kQdisc
  uint32_t comp = t.RegisterComponent("bench", "cold");
  volatile uint8_t cat_raw = static_cast<uint8_t>(obs::TraceCat::kQdisc);
  BenchResult r = Measure("trace_disabled_hook", 1 << 16, 1 << 22, [&](uint64_t i) {
    t.Trace(static_cast<obs::TraceCat>(cat_raw), obs::TraceEv::kQdiscEnq, comp,
            TimePoint::FromNanos(static_cast<int64_t>(i)), i);
  });
  g_sink = g_sink + t.size();
  return r;
}

// The enabled hot path: recording into a preallocated ring, including wrap
// and eviction. scripts/bench.sh gates allocs_per_op at zero — the "no
// allocations per record when tracing is enabled" contract, measured.
BenchResult BenchTraceRecordEnabled() {
  obs::Tracer t;
  t.Enable(obs::kAllCats, 1 << 16);
  uint32_t comp = t.RegisterComponent("bench", "hot");
  BenchResult r = Measure("trace_record_enabled", 1 << 16, 1 << 22, [&](uint64_t i) {
    t.Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscEnq, comp,
            TimePoint::FromNanos(static_cast<int64_t>(i)), i, i, i);
  });
  g_sink = g_sink + t.dropped();
  return r;
}

// End to end: the paper-default experiment (96 Mbit/s bottleneck, 84 Mbit/s
// web load, Bundler on) measured in simulator events per wall second.
BenchResult BenchEndToEndExperiment() {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true, /*seed=*/1);
  cfg.duration = TimeDelta::Seconds(5);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(cfg);
  uint64_t allocs_before = g_heap_allocs;
  Clock::time_point start = Clock::now();
  e.Run();
  Clock::time_point end = Clock::now();
  double sec = std::chrono::duration<double>(end - start).count();
  uint64_t events = e.sim()->events_dispatched();
  BenchResult r;
  r.name = "end_to_end_experiment";
  r.ns_per_op = sec / static_cast<double>(events) * 1e9;
  r.ops_per_sec = static_cast<double>(events) / sec;
  r.allocs_per_op = static_cast<double>(g_heap_allocs - allocs_before) /
                    static_cast<double>(events);
  return r;
}

// Same experiment with the flight recorder armed for every category. Reports
// per-event cost with tracing on and, via `records_per_event_out`, how many
// trace records the datapath emits per simulator event — the multiplier that
// turns the disabled-hook cost into a whole-run overhead bound. Allocations
// are counted after Enable() preallocates the ring, so allocs_per_op reflects
// the recording path itself (plus the experiment's own baseline churn).
BenchResult BenchEndToEndExperimentTraced(double* records_per_event_out) {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true, /*seed=*/1);
  cfg.duration = TimeDelta::Seconds(5);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(cfg);
  e.sim()->trace().Enable(obs::kAllCats, 1 << 18);
  uint64_t allocs_before = g_heap_allocs;
  Clock::time_point start = Clock::now();
  e.Run();
  Clock::time_point end = Clock::now();
  double sec = std::chrono::duration<double>(end - start).count();
  uint64_t events = e.sim()->events_dispatched();
  uint64_t records = e.sim()->trace().size() + e.sim()->trace().dropped();
  *records_per_event_out = static_cast<double>(records) / static_cast<double>(events);
  BenchResult r;
  r.name = "end_to_end_experiment_traced";
  r.ns_per_op = sec / static_cast<double>(events) * 1e9;
  r.ops_per_sec = static_cast<double>(events) / sec;
  r.allocs_per_op = static_cast<double>(g_heap_allocs - allocs_before) /
                    static_cast<double>(events);
  return r;
}

void WriteJson(const std::string& path, const std::vector<BenchResult>& results,
               double speedup, double records_per_event, double disabled_overhead,
               double pdes_speedup, double fault_overhead) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schedule_dispatch_speedup_vs_legacy\": %.3f,\n", speedup);
  std::fprintf(f, "  \"parallel_des_speedup_w4_over_w1\": %.3f,\n", pdes_speedup);
  std::fprintf(f, "  \"trace_records_per_event\": %.4f,\n", records_per_event);
  std::fprintf(f, "  \"tracing_disabled_overhead_frac\": %.6f,\n", disabled_overhead);
  std::fprintf(f, "  \"fault_disabled_overhead_frac\": %.6f,\n", fault_overhead);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, \"ops_per_sec\": "
                 "%.1f, \"allocs_per_op\": %.6f}%s\n",
                 r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run(const std::string& json_path) {
  std::vector<BenchResult> results;
  results.push_back(BenchBoundaryHash());
  results.push_back(BenchBoundaryCheck());
  results.push_back(BenchQdiscChurn("qdisc_droptail_churn",
                                    [] { return std::make_unique<DropTailFifo>(1 << 20); }));
  results.push_back(BenchQdiscChurn("qdisc_sfq_churn", [] {
    Sfq::Config cfg;
    cfg.limit_packets = 1024;
    return std::make_unique<Sfq>(cfg);
  }));
  results.push_back(BenchQdiscChurn("qdisc_fq_codel_churn", [] {
    FqCodel::Config cfg;
    cfg.limit_packets = 1024;
    return std::make_unique<FqCodel>(cfg);
  }));
  results.push_back(BenchQdiscChurn("qdisc_strict_prio_churn", [] {
    return std::make_unique<StrictPrio>(3, 1 << 20);
  }));
  results.push_back(BenchSiteEgressChurn());

  BenchResult legacy = BenchScheduleDispatch<LegacyFunctionQueue>(
      "legacy_function_queue_schedule_dispatch");
  BenchResult engine = BenchScheduleDispatch<EventQueue>("engine_schedule_dispatch");
  results.push_back(legacy);
  results.push_back(engine);
  results.push_back(
      BenchScheduleCancel<LegacyFunctionQueue>("legacy_function_queue_schedule_cancel"));
  results.push_back(BenchScheduleCancel<EventQueue>("engine_schedule_cancel"));
  results.push_back(BenchPeriodicDispatch());
  results.push_back(BenchTcpRecoveryChurn());
  results.push_back(BenchLinkEventRearmChurn());
  results.push_back(BenchFlowReclaimChurn());
  results.push_back(BenchBoundaryRingChurn());
  BenchResult pdes_w1 = BenchParallelDesFatTree(1);
  BenchResult pdes_w4 = BenchParallelDesFatTree(4);
  results.push_back(pdes_w1);
  results.push_back(pdes_w4);
  results.push_back(BenchFaultInjectorChurn());
  double fault_added_ns = 0;
  BenchResult fault_cold = BenchFaultUntargetedHook(&fault_added_ns);
  results.push_back(fault_cold);
  BenchResult disabled_hook = BenchTraceDisabledHook();
  results.push_back(disabled_hook);
  results.push_back(BenchTraceRecordEnabled());
  BenchResult e2e = BenchEndToEndExperiment();
  results.push_back(e2e);
  double records_per_event = 0;
  results.push_back(BenchEndToEndExperimentTraced(&records_per_event));

  // Tracing-disabled overhead bound: every record the fully-traced run emits
  // corresponds to one branch-only hook execution in an untraced run, so the
  // whole-run overhead is at most hook-cost x records/event over the untraced
  // per-event cost. scripts/bench.sh gates this at 2%.
  double disabled_overhead =
      disabled_hook.ns_per_op * records_per_event / e2e.ns_per_op;
  // Fault-disabled overhead bound: at most one injector traversal per
  // simulator event (a packet delivery), each adding the untargeted
  // fast-path delta; scripts/bench.sh gates this at 2%.
  double fault_overhead = fault_added_ns / e2e.ns_per_op;

  Table table({"benchmark", "ns/op", "ops/sec", "allocs/op"});
  for (const BenchResult& r : results) {
    table.AddRow({r.name, Table::Num(r.ns_per_op, 1), Table::Num(r.ops_per_sec, 0),
                  Table::Num(r.allocs_per_op, 4)});
  }
  table.Print();

  double speedup = engine.ops_per_sec / legacy.ops_per_sec;
  std::printf("\nschedule+dispatch: engine %.1f ns/op vs legacy %.1f ns/op "
              "(%.2fx events/sec), %.4f vs %.4f allocs/op\n",
              engine.ns_per_op, legacy.ns_per_op, speedup, engine.allocs_per_op,
              legacy.allocs_per_op);
  double pdes_speedup = pdes_w4.ops_per_sec / pdes_w1.ops_per_sec;
  std::printf("parallel DES fat tree: %.0f events/sec at 4 workers vs %.0f at "
              "1 (%.2fx)\n",
              pdes_w4.ops_per_sec, pdes_w1.ops_per_sec, pdes_speedup);
  std::printf("tracing: %.2f records/event when fully armed; disabled-hook "
              "overhead bound %.4f%% of end-to-end run\n",
              records_per_event, disabled_overhead * 100);
  std::printf("fault injection: untargeted hook adds %.1f ns/packet; disabled "
              "overhead bound %.4f%% of end-to-end run\n",
              fault_added_ns, fault_overhead * 100);

  if (!json_path.empty()) {
    WriteJson(json_path, results, speedup, records_per_event, disabled_overhead,
              pdes_speedup, fault_overhead);
  }
  // The engine must not allocate per scheduled event in steady state.
  if (engine.allocs_per_op != 0.0) {
    std::fprintf(stderr, "FAIL: engine schedule+dispatch allocated %.6f per op\n",
                 engine.allocs_per_op);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bundler

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return bundler::Run(json_path);
}
