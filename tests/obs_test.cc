// Tests for the observability layer (src/obs + runner glue): flight-recorder
// ring semantics (wrap, oldest-first eviction, dropped accounting), category
// filtering, the zero-allocation guarantee of the enabled hot path, counter
// registry dump behavior, qdisc drop accounting through the NVI wrappers,
// and the thread-count byte-identity of traces captured on worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/qdisc/fifo.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
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
  std::string text;
  t.WriteText(&text);
  EXPECT_NE(text.find("enq"), std::string::npos);
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

// A short dumbbell trial that brackets its run with the trial obs calls, as
// every registered scenario does.
runner::TrialResult ShortTracedTrial(const runner::TrialPoint& point) {
  ExperimentConfig cfg = PaperExperimentDefaults(point.variant == "bundler", point.seed);
  cfg.bundle_web_load = {Rate::Mbps(30)};
  cfg.duration = TimeDelta::Seconds(2);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(cfg);
  runner::BeginTrialObs(e.sim());
  e.Run();
  runner::TrialResult result;
  result.scalars["completed"] = static_cast<double>(e.fct()->completed());
  runner::EndTrialObs(e.sim(), point, &result);
  return result;
}

// The flight-recorder end-to-end contract: traces captured on worker threads
// are byte-identical to a serial run's. The plan holds four trials (two
// variants x two seeds), so at 4 threads every trial runs off the calling
// thread.
TEST(TrialObsTest, TracedTrialsByteIdenticalAcrossThreadCounts) {
  runner::ScenarioSpec spec;
  spec.name = "test_traced_dumbbell";
  spec.variants = {"status_quo", "bundler"};
  spec.default_trials = 2;
  const runner::Scenario scenario{spec, ShortTracedTrial};
  const std::vector<runner::TrialPoint> plan = runner::ExpandTrials(spec, 0);
  ASSERT_EQ(plan.size(), 4u);

  auto run = [&](int threads) {
    runner::ArmTrace(obs::kAllCats, 4096, runner::TraceFormat::kJsonl);
    runner::RunnerOptions opt;
    opt.threads = threads;
    std::vector<runner::TrialResult> results = runner::TrialRunner(opt).Run(scenario, plan);
    runner::DisarmTrace();
    std::string blob;
    for (auto& [sig, serialized] : runner::TakeCapturedTraces()) {
      (void)sig;
      blob += serialized;
    }
    return std::pair{std::move(results), std::move(blob)};
  };
  auto [r1, trace1] = run(1);
  auto [r4, trace4] = run(4);

  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace4);
  // Each trial also reports observability scalars: total events plus every
  // registry counter under "ctr." (e.g. the bundle cc's rate updates).
  ASSERT_EQ(r1.size(), 4u);
  for (const runner::TrialResult& r : r1) {
    EXPECT_GT(r.scalars.at("sim.events_dispatched"), 0.0);
    EXPECT_GT(r.scalars.at("completed"), 0.0);
  }
  bool has_ctr = false;
  for (const auto& [name, value] : r1.back().scalars) {
    (void)value;
    has_ctr = has_ctr || name.rfind("ctr.", 0) == 0;
  }
  EXPECT_TRUE(has_ctr);
}

// The fault scenarios report observability like every other scenario: a
// feedback_blackout watchdog trial carries the sim./ctr. scalars, and its
// captured watchdog trace holds the whole degrade / probe / re-sync lifecycle.
TEST(TrialObsTest, FeedbackBlackoutTrialReportsWatchdogLifecycle) {
  runner::RegisterBuiltinScenarios();
  const runner::Scenario* scenario =
      runner::ScenarioRegistry::Global().Find("feedback_blackout");
  ASSERT_NE(scenario, nullptr);
  std::vector<runner::TrialPoint> plan =
      runner::ExpandTrials(scenario->spec, /*trials=*/1);
  plan.erase(std::remove_if(plan.begin(), plan.end(),
                            [](const runner::TrialPoint& p) {
                              return p.variant != "bundler_watchdog";
                            }),
             plan.end());
  ASSERT_EQ(plan.size(), 1u);
  ASSERT_EQ(plan[0].seed, 1u);

  runner::ArmTrace(obs::CatBit(TraceCat::kWatchdog), 4096, runner::TraceFormat::kJsonl);
  std::vector<runner::TrialResult> results =
      runner::TrialRunner(runner::RunnerOptions()).Run(*scenario, plan);
  runner::DisarmTrace();
  std::vector<std::pair<std::string, std::string>> traces = runner::TakeCapturedTraces();

  ASSERT_EQ(results.size(), 1u);
  const std::map<std::string, double>& scalars = results[0].scalars;
  ASSERT_EQ(scalars.count("sim.events_dispatched"), 1u);
  EXPECT_GT(scalars.at("sim.events_dispatched"), 0.0);
  ASSERT_EQ(scalars.count("ctr.watchdog.s10-s100.degrades"), 1u);
  EXPECT_GE(scalars.at("ctr.watchdog.s10-s100.degrades"), 1.0);
  ASSERT_EQ(traces.size(), 1u);
  for (const char* ev : {"wd_degrade", "wd_probe", "wd_resync"}) {
    EXPECT_NE(traces[0].second.find(std::string("\"ev\":\"") + ev + "\""),
              std::string::npos)
        << ev;
  }
}

}  // namespace
}  // namespace bundler
