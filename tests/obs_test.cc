// Tests for the observability layer (src/obs, and the TrialRunner that owns
// each trial's): flight-recorder ring semantics (wrap, oldest-first
// eviction, dropped accounting), category filtering, the zero-allocation
// guarantee of the enabled hot path, counter registry dump and freeze
// behavior, qdisc drop accounting through the NVI wrappers, and, through the
// runner, traces armed before construction, counters that outlive the
// topology, and the thread-count byte-identity of traces captured on worker
// threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/qdisc/fifo.h"
#include "src/runner/trial_runner.h"
#include "src/sim/simulator.h"
#include "src/topo/scenario.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

using obs::TraceCat;
using obs::TraceEv;
using obs::TraceRecord;
using obs::Tracer;

TEST(TracerTest, RingWrapEvictsOldestAndCountsDropped) {
  Tracer t;
  uint32_t comp = t.RegisterComponent("test", "x");
  t.Enable(obs::kAllCats, 4);
  for (uint64_t i = 0; i < 6; ++i) {
    t.Trace(TraceCat::kQdisc, TraceEv::kQdiscEnq, comp,
            TimePoint::FromNanos(static_cast<int64_t>(i)), i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  std::vector<TraceRecord> snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first, with the two oldest records (a=0, a=1) evicted.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].a, i + 2);
    EXPECT_EQ(snap[i].t_ns, static_cast<int64_t>(i + 2));
  }
}

TEST(TracerTest, CategoryMaskFilters) {
  Tracer t;
  uint32_t comp = t.RegisterComponent("test", "x");
  t.Enable(obs::CatBit(TraceCat::kTcp), 8);
  EXPECT_TRUE(t.enabled(TraceCat::kTcp));
  EXPECT_FALSE(t.enabled(TraceCat::kQdisc));
  t.Trace(TraceCat::kQdisc, TraceEv::kQdiscEnq, comp, TimePoint::FromNanos(1));
  t.Trace(TraceCat::kTcp, TraceEv::kTcpRetx, comp, TimePoint::FromNanos(2));
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Snapshot()[0].cat, static_cast<uint8_t>(TraceCat::kTcp));
  t.Disable();
  t.Trace(TraceCat::kTcp, TraceEv::kTcpRetx, comp, TimePoint::FromNanos(3));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TracerTest, ParseTraceCatsSpecs) {
  uint32_t mask = 0;
  EXPECT_TRUE(obs::ParseTraceCats("qdisc,tcp", &mask));
  EXPECT_EQ(mask, obs::CatBit(TraceCat::kQdisc) | obs::CatBit(TraceCat::kTcp));
  EXPECT_TRUE(obs::ParseTraceCats("all", &mask));
  EXPECT_EQ(mask, obs::kAllCats);
  EXPECT_FALSE(obs::ParseTraceCats("qdisc,bogus", &mask));
}

TEST(TracerTest, SteadyStateTracingDoesNotAllocate) {
  Tracer t;
  uint32_t comp = t.RegisterComponent("test", "x");
  t.Enable(obs::kAllCats, 1024);
  const uint64_t before = HeapAllocs();
  // 100k records through a 1k ring: covers both the fill and the wrap path.
  for (uint64_t i = 0; i < 100000; ++i) {
    t.Trace(TraceCat::kQdisc, TraceEv::kQdiscEnq, comp,
            TimePoint::FromNanos(static_cast<int64_t>(i)), i, i, i);
  }
  EXPECT_EQ(HeapAllocs(), before);
  EXPECT_EQ(t.size(), 1024u);
  EXPECT_EQ(t.dropped(), 100000u - 1024u);
}

TEST(TracerTest, JsonlSerializationShape) {
  Tracer t;
  uint32_t comp = t.RegisterComponent("qdisc", "bottleneck");
  t.Enable(obs::kAllCats, 8);
  t.Trace(TraceCat::kQdisc, TraceEv::kQdiscEnq, comp, TimePoint::FromNanos(5), 1, 1500, 1500);
  std::string out;
  t.WriteJsonl(&out);
  EXPECT_NE(out.find("\"type\":\"component\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"qdisc\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"record\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"qdisc\""), std::string::npos);
  EXPECT_NE(out.find("\"ev\":\"enq\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"trace_end\""), std::string::npos);
}

TEST(CounterRegistryTest, OwnedExposedGaugesAndDump) {
  obs::CounterRegistry reg;
  uint64_t* c = reg.Counter("qdisc.x.enq_pkts");
  *c += 3;
  EXPECT_EQ(reg.Counter("qdisc.x.enq_pkts"), c);  // stable address on re-lookup
  uint64_t src = 7;
  reg.Expose("link.y.tx_pkts", &src);
  double* g = reg.Gauge("sendbox.z.passthrough_frac");
  *g = 0.25;
  std::map<std::string, double> out;
  reg.DumpTo(&out, "ctr.");
  EXPECT_EQ(out.at("ctr.qdisc.x.enq_pkts"), 3.0);
  EXPECT_EQ(out.at("ctr.link.y.tx_pkts"), 7.0);
  EXPECT_EQ(out.at("ctr.sendbox.z.passthrough_frac"), 0.25);

  // Freezing keeps every name and value, and cuts the tie to the source.
  reg.FreezeExposed();
  std::map<std::string, double> frozen;
  reg.DumpTo(&frozen, "ctr.");
  EXPECT_EQ(frozen, out);
  src = 99;
  std::map<std::string, double> later;
  reg.DumpTo(&later, "ctr.");
  EXPECT_EQ(later, out);
}

TEST(QdiscCountersTest, NviWrappersCountEnqueueDequeueAndDrops) {
  DropTailFifo q(2 * kMtuBytes);  // room for two full-size packets
  TimePoint now = TimePoint::Zero();
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.flow_id = static_cast<uint64_t>(i);
    p.size_bytes = kMtuBytes;
    q.Enqueue(std::move(p), now);
  }
  EXPECT_EQ(q.counters().enq_pkts, 2u);
  EXPECT_EQ(q.counters().drop_pkts, 1u);
  int dequeued = 0;
  while (q.Dequeue(now).has_value()) {
    ++dequeued;
  }
  EXPECT_EQ(dequeued, 2);
  EXPECT_EQ(q.counters().deq_pkts, 2u);
}

// A short dumbbell trial, written like a registered scenario's body: it
// builds into the runner's simulator, runs, and returns its metrics. It also
// reads the bottleneck link's tx_pkts from the live link, which the runner's
// own dump (taken after the topology is gone) must match.
runner::TrialResult ShortDumbbellTrial(const runner::TrialPoint& point, Simulator* sim) {
  ExperimentConfig cfg = PaperExperimentDefaults(point.variant == "bundler", point.seed);
  cfg.bundle_web_load = {Rate::Mbps(30)};
  cfg.duration = TimeDelta::Seconds(2);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(sim, cfg);
  e.Run();
  runner::TrialResult result;
  result.scalars["completed"] = static_cast<double>(e.fct()->completed());
  result.scalars["live_bottleneck_tx_pkts"] =
      static_cast<double>(e.net()->path_link(0)->stats().packets_sent);
  return result;
}

// Two variants x two seeds of ShortDumbbellTrial.
struct ShortPlan {
  ShortPlan() {
    spec.name = "test_short_dumbbell";
    spec.variants = {"status_quo", "bundler"};
    spec.default_trials = 2;
    plan = runner::ExpandTrials(spec, 0);
  }

  std::vector<runner::TrialResult> Run(int threads, uint32_t trace_mask = 0,
                                       size_t trace_ring = 4096) const {
    runner::RunnerOptions opt;
    opt.threads = threads;
    opt.trace_mask = trace_mask;
    opt.trace_ring = trace_ring;
    return runner::TrialRunner(opt).Run(runner::Scenario{spec, ShortDumbbellTrial}, plan);
  }

  runner::ScenarioSpec spec;
  std::vector<runner::TrialPoint> plan;
};

std::string JoinTraces(const std::vector<runner::TrialResult>& results) {
  std::string blob;
  for (const runner::TrialResult& r : results) {
    blob += r.trace;
  }
  return blob;
}

// The flight-recorder end-to-end contract: traces captured on worker threads
// are byte-identical to a serial run's. The plan holds four trials, so at 4
// threads every trial runs off the calling thread.
TEST(TrialObsTest, TracedTrialsByteIdenticalAcrossThreadCounts) {
  const ShortPlan plan;
  ASSERT_EQ(plan.plan.size(), 4u);
  const std::vector<runner::TrialResult> r1 = plan.Run(1, obs::kAllCats);
  const std::vector<runner::TrialResult> r4 = plan.Run(4, obs::kAllCats);

  const std::string trace1 = JoinTraces(r1);
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, JoinTraces(r4));
  // Each trial also reports observability scalars: total events plus every
  // registry counter under "ctr." (e.g. the bundle cc's rate updates).
  ASSERT_EQ(r1.size(), 4u);
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].trace.rfind("{\"type\":\"trial\",\"signature\":\"" +
                                    runner::TrialSignature(plan.plan[i]) + "\"}\n",
                                0),
              0u)
        << "trial " << i << " trace is out of plan order";
    EXPECT_GT(r1[i].scalars.at("sim.events_dispatched"), 0.0);
    EXPECT_GT(r1[i].scalars.at("completed"), 0.0);
  }
  bool has_ctr = false;
  for (const auto& [name, value] : r1.back().scalars) {
    (void)value;
    has_ctr = has_ctr || name.rfind("ctr.", 0) == 0;
  }
  EXPECT_TRUE(has_ctr);
}

// The runner arms the tracer before the trial body builds its topology, so
// construction-time records are in the trace: each bundler trial's sendbox
// admits its one bundle at t = 0, and a status-quo trial has no sendbox.
TEST(TrialObsTest, TraceStartsBeforeTopologyIsBuilt) {
  const ShortPlan plan;
  const uint32_t tenant = obs::CatBit(TraceCat::kTenant);
  const std::vector<runner::TrialResult> r1 = plan.Run(1, tenant, 1 << 16);
  const std::vector<runner::TrialResult> r4 = plan.Run(4, tenant, 1 << 16);
  EXPECT_EQ(JoinTraces(r1), JoinTraces(r4));

  ASSERT_EQ(r1.size(), plan.plan.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    const bool bundler = plan.plan[i].variant == "bundler";
    EXPECT_NE(r1[i].trace.find("\"dropped\":0}"), std::string::npos) << "trial " << i;
    std::vector<std::string> admits;
    std::istringstream lines(r1[i].trace);
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"ev\":\"tenant_admit\"") != std::string::npos) {
        admits.push_back(line);
      }
    }
    ASSERT_EQ(admits.size(), bundler ? 1u : 0u) << "trial " << i;
    if (bundler) {
      EXPECT_NE(admits[0].find("\"t_ns\":0,"), std::string::npos) << admits[0];
    }
  }
}

// The runner dumps counters after the trial body, and the Net it built, are
// gone. Links publish tx_pkts by pointer, so the Net freezes them first: the
// dump must equal what the body read from the live link.
TEST(TrialObsTest, CountersOutliveTopologyTeardown) {
  const ShortPlan plan;
  for (const runner::TrialResult& r : plan.Run(1)) {
    EXPECT_TRUE(r.trace.empty());
    EXPECT_GT(r.scalars.at("live_bottleneck_tx_pkts"), 0.0);
    EXPECT_EQ(r.scalars.at("ctr.link.bottleneck.tx_pkts"),
              r.scalars.at("live_bottleneck_tx_pkts"));
  }
}

}  // namespace
}  // namespace bundler
