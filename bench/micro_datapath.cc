// Datapath costs that need a clock. The paper's only added per-packet work is
// the FNV boundary hash (§6.1: "4 integer multiplications ... negligible CPU
// overhead"); the boundary_hash and boundary_check rows time it, ungated. The
// other rows feed the three gates scripts/bench.sh checks, each the median of
// kReps interleaved repetitions:
//  - parallel DES speedup: the sharded fat tree's events/sec at 4 workers
//    over 1;
//  - tracing-disabled overhead: an unarmed trace point's cost, times the
//    records a fully armed run emits per event, over the untraced end-to-end
//    run's cost per event;
//  - fault-disabled overhead: what an injector adds per untargeted packet,
//    over the same cost per event.
// Allocation counts are exact, so ctest asserts them instead (README,
// "Zero-allocation datapath"). Self-contained: no benchmark framework. Run
// with --json PATH to write every row and gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bundler/epoch.h"
#include "src/net/fault_injector.h"
#include "src/obs/trace.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/topo/fat_tree.h"
#include "src/topo/partition.h"
#include "src/topo/scenario.h"
#include "src/transport/tcp_flow.h"
#include "src/util/fnv.h"
#include "src/util/table.h"

namespace bundler {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  double ns_per_op = 0;
  double ops_per_sec = 0;
};

BenchResult Timed(std::string name, Clock::time_point start, Clock::time_point end,
                  uint64_t ops) {
  const double sec = std::chrono::duration<double>(end - start).count();
  return {std::move(name), sec / static_cast<double>(ops) * 1e9,
          static_cast<double>(ops) / sec};
}

// Times `op` over `iters` iterations, after `warmup` untimed ones.
template <typename Fn>
BenchResult Measure(const std::string& name, uint64_t warmup, uint64_t iters, Fn&& op) {
  for (uint64_t i = 0; i < warmup; ++i) {
    op(i);
  }
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    op(warmup + i);
  }
  return Timed(name, start, Clock::now(), iters);
}

// Repetitions behind each gate.
constexpr int kReps = 5;

// One repetition of a gate: two runs taken back to back.
struct Pair {
  BenchResult a;
  BenchResult b;
};

// Runs `a` and `b` kReps times each as interleaved pairs, the order
// alternating so drift on a shared box hits both sides alike.
template <typename A, typename B>
std::vector<Pair> Interleave(A&& a, B&& b) {
  std::vector<Pair> pairs(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    Pair& p = pairs[static_cast<size_t>(rep)];
    if (rep % 2 == 0) {
      p.a = a();
      p.b = b();
    } else {
      p.b = b();
      p.a = a();
    }
  }
  return pairs;
}

// The run with the median cost among the pairs' `side` runs.
BenchResult MedianRun(const std::vector<Pair>& pairs, BenchResult Pair::*side) {
  std::vector<BenchResult> runs;
  for (const Pair& p : pairs) {
    runs.push_back(p.*side);
  }
  std::sort(runs.begin(), runs.end(), [](const BenchResult& x, const BenchResult& y) {
    return x.ns_per_op < y.ns_per_op;
  });
  return runs[runs.size() / 2];
}

// A gated value, one sample per repetition. The gate reads their median, so
// one noisy repetition can neither pass nor fail it.
struct Gate {
  const char* key;
  std::vector<double> samples;

  double Median() const {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
};

template <typename F>
Gate MakeGate(const char* key, const std::vector<Pair>& pairs, F value) {
  Gate gate{key, {}};
  for (const Pair& p : pairs) {
    gate.samples.push_back(value(p));
  }
  return gate;
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

// Conservative parallel DES end to end: staggered incast waves on the
// fat-tree preset (4 leaves x 2 hosts over 2 spines -> 6 shards) run by
// ShardRunner with a given worker count, in simulator events per wall second.
// On multi-core machines the partitioned run must scale; on fewer cores it
// only has to avoid collapsing under the sync overhead.
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

  // Staggered incast waves onto leaf 0 for the whole run.
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
  const Clock::time_point start = Clock::now();
  sr.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(3));
  const Clock::time_point end = Clock::now();
  uint64_t events = 0;
  for (Simulator* s : sims) {
    events += s->events_dispatched();
  }
  return Timed("parallel_des_fat_tree_w" + std::to_string(workers), start, end, events);
}

// The fault-disabled fast path: a ctl-targeted blackout profile while data
// packets stream through — one type check, no stats update. The op
// (packet construction + sink delivery) is timed without (`a`) and with
// (`b`) the injector interposed. A link with *no* profile has no injector in
// its chain at all (AddFaultProfile is the only way one enters a datapath),
// so its overhead is identically zero.
std::vector<Pair> BenchFaultUntargetedHook() {
  struct Sink : PacketHandler {
    void HandlePacket(Packet pkt) override { g_sink = g_sink + pkt.size_bytes; }
  };
  Simulator sim;
  Sink sink;
  // Volatile handler pointer: the baseline pays the same indirect dispatch a
  // real delivery chain does, instead of letting the compiler collapse the
  // whole op and charge packet construction to the injector.
  PacketHandler* volatile base = &sink;
  const FaultProfileSpec spec{FaultTarget::kCtl,
                              {{TimeDelta::Zero(), TimeDelta::Seconds(1)}}};
  FaultInjector inj(&sim, "bench_cold", spec, &sink);
  return Interleave(
      [&] {
        return Measure("fault_direct_baseline", 1 << 16, 1 << 22,
                       [&](uint64_t i) { base->HandlePacket(TypicalPacket(i)); });
      },
      [&] {
        return Measure("fault_untargeted_hook", 1 << 16, 1 << 22,
                       [&](uint64_t i) { inj.HandlePacket(TypicalPacket(i)); });
      });
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

// End to end: the paper-default experiment (96 Mbit/s bottleneck, 84 Mbit/s
// web load, Bundler on) in simulator events per wall second. With `traced`,
// the flight recorder is armed for every category, and `records_per_event`
// receives the trace records the datapath emits per event — the multiplier
// that turns the disabled-hook cost into a whole-run overhead bound.
BenchResult BenchEndToEndExperiment(bool traced = false,
                                    double* records_per_event = nullptr) {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true, /*seed=*/1);
  cfg.duration = TimeDelta::Seconds(5);
  cfg.warmup = TimeDelta::Seconds(1);
  Simulator sim;
  Experiment e(&sim, cfg);
  if (traced) {
    e.sim()->trace().Enable(obs::kAllCats, 1 << 18);
  }
  const Clock::time_point start = Clock::now();
  e.Run();
  const Clock::time_point end = Clock::now();
  const uint64_t events = e.sim()->events_dispatched();
  if (records_per_event != nullptr) {
    const uint64_t records = e.sim()->trace().size() + e.sim()->trace().dropped();
    *records_per_event = static_cast<double>(records) / static_cast<double>(events);
  }
  return Timed(traced ? "end_to_end_experiment_traced" : "end_to_end_experiment", start,
               end, events);
}

void WriteJson(const std::string& path, const std::vector<BenchResult>& rows,
               double records_per_event, const std::vector<Gate>& gates) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"trace_records_per_event\": %.4f,\n", records_per_event);
  for (const Gate& g : gates) {
    std::fprintf(f, "  \"%s\": %.6f,\n  \"%s_samples\": [", g.key, g.Median(), g.key);
    for (size_t i = 0; i < g.samples.size(); ++i) {
      std::fprintf(f, "%s%.6f", i > 0 ? ", " : "", g.samples[i]);
    }
    std::fprintf(f, "],\n");
  }
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.3f, \"ops_per_sec\": %.1f}%s\n",
                 rows[i].name.c_str(), rows[i].ns_per_op, rows[i].ops_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  std::vector<BenchResult> rows = {BenchBoundaryHash(), BenchBoundaryCheck()};

  const std::vector<Pair> pdes = Interleave([] { return BenchParallelDesFatTree(1); },
                                            [] { return BenchParallelDesFatTree(4); });
  rows.push_back(MedianRun(pdes, &Pair::a));
  rows.push_back(MedianRun(pdes, &Pair::b));

  // Every record the fully armed run emits is one unarmed hook execution in
  // an untraced run, so the whole-run tracing-disabled overhead is at most
  // hook cost x records/event over the untraced cost per event. The record
  // count is deterministic; one traced run gives it.
  double records_per_event = 0;
  const BenchResult traced = BenchEndToEndExperiment(/*traced=*/true, &records_per_event);
  const std::vector<Pair> trace =
      Interleave(BenchTraceDisabledHook, [] { return BenchEndToEndExperiment(); });
  const BenchResult e2e = MedianRun(trace, &Pair::b);
  rows.push_back(MedianRun(trace, &Pair::a));
  rows.push_back(e2e);
  rows.push_back(traced);

  // At most one injector traversal per simulator event (a packet delivery),
  // each adding the untargeted fast path's cost. The signed difference moves
  // with noise both ways, so noise cannot pin it at zero.
  const std::vector<Pair> fault = BenchFaultUntargetedHook();
  rows.push_back(MedianRun(fault, &Pair::a));
  rows.push_back(MedianRun(fault, &Pair::b));

  const std::vector<Gate> gates = {
      MakeGate("parallel_des_speedup", pdes,
               [](const Pair& p) { return p.b.ops_per_sec / p.a.ops_per_sec; }),
      MakeGate("tracing_disabled_overhead", trace,
               [records_per_event](const Pair& p) {
                 return p.a.ns_per_op * records_per_event / p.b.ns_per_op;
               }),
      MakeGate("fault_disabled_overhead", fault,
               [&e2e](const Pair& p) { return (p.b.ns_per_op - p.a.ns_per_op) / e2e.ns_per_op; }),
  };

  Table table({"benchmark", "ns/op", "ops/sec"});
  for (const BenchResult& r : rows) {
    table.AddRow({r.name, Table::Num(r.ns_per_op, 1), Table::Num(r.ops_per_sec, 0)});
  }
  table.Print();
  std::printf("\ntrace records per event, fully armed: %.4f\n", records_per_event);
  for (const Gate& g : gates) {
    const auto [lo, hi] = std::minmax_element(g.samples.begin(), g.samples.end());
    std::printf("%s: median %.6f over %d repetitions (%.6f to %.6f)\n", g.key, g.Median(),
                kReps, *lo, *hi);
  }
  if (!json_path.empty()) {
    WriteJson(json_path, rows, records_per_event, gates);
  }
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
  bundler::Run(json_path);
  return 0;
}
