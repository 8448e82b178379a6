// Tests for the workload layer: the heavy-tailed size CDF (§7.1), the Poisson
// web-request generator, FCT recording, and slowdown computation.
#include <gtest/gtest.h>

#include <memory>

#include "src/app/size_cdf.h"
#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/topo/scenario.h"
#include "src/util/random.h"

namespace bundler {
namespace {

TEST(SizeCdfTest, MatchesPaperQuantiles) {
  // §7.1: 97.6% of requests are <= 10 KB; the top 0.002% are 5-100 MB.
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  EXPECT_NEAR(cdf.CdfAt(10'000), 0.976, 0.01);
  EXPECT_NEAR(cdf.CdfAt(5'000'000), 1.0 - 2e-5, 1e-4);
  EXPECT_DOUBLE_EQ(cdf.CdfAt(100'000'000), 1.0);
}

TEST(SizeCdfTest, SamplesRespectSupportBounds) {
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    int64_t s = cdf.Sample(rng);
    EXPECT_GE(s, cdf.support().front().bytes);
    EXPECT_LE(s, 100'000'000);
  }
}

TEST(SizeCdfTest, EmpiricalFractionsMatchPmf) {
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  Rng rng(17);
  int small = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (cdf.Sample(rng) <= 10'000) {
      ++small;
    }
  }
  EXPECT_NEAR(static_cast<double>(small) / kN, 0.976, 0.005);
}

TEST(SizeCdfTest, MeanIsHeavyTailDominated) {
  // With a heavy tail, the mean is far above the median.
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  EXPECT_GT(cdf.MeanBytes(), 5'000.0);
  Rng rng(5);
  std::vector<int64_t> samples;
  for (int i = 0; i < 50001; ++i) {
    samples.push_back(cdf.Sample(rng));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  int64_t median = samples[samples.size() / 2];
  EXPECT_GT(cdf.MeanBytes(), 3.0 * static_cast<double>(median));
}

TEST(SizeCdfTest, CustomAnchorsRoundTrip) {
  SizeCdf cdf({{1000, 0.5}, {10000, 1.0}}, 10);
  EXPECT_NEAR(cdf.CdfAt(1000), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(cdf.CdfAt(10000), 1.0);
  EXPECT_DOUBLE_EQ(cdf.CdfAt(999'999), 1.0);
}

TEST(FctRecorderTest, RecordsLifecycle) {
  FctRecorder rec;
  TimePoint t0 = TimePoint::Zero() + TimeDelta::Seconds(1);
  uint64_t id = rec.RegisterRequest(5000, t0);
  EXPECT_EQ(rec.total(), 1u);
  EXPECT_EQ(rec.completed(), 0u);
  rec.OnComplete(id, t0 + TimeDelta::Millis(120));
  EXPECT_EQ(rec.completed(), 1u);
  auto fcts = rec.Fcts();
  ASSERT_EQ(fcts.count(), 1u);
  EXPECT_NEAR(fcts.Median(), 0.120, 1e-9);
}

TEST(FctRecorderTest, FiltersBySizeBucket) {
  FctRecorder rec;
  TimePoint t0;
  uint64_t small = rec.RegisterRequest(5'000, t0);
  uint64_t medium = rec.RegisterRequest(500'000, t0);
  uint64_t large = rec.RegisterRequest(5'000'000, t0);
  rec.OnComplete(small, t0 + TimeDelta::Millis(10));
  rec.OnComplete(medium, t0 + TimeDelta::Millis(100));
  rec.OnComplete(large, t0 + TimeDelta::Millis(1000));
  EXPECT_EQ(rec.Fcts(RequestFilter::SmallFlows()).count(), 1u);
  EXPECT_EQ(rec.Fcts(RequestFilter::MediumFlows()).count(), 1u);
  EXPECT_EQ(rec.Fcts(RequestFilter::LargeFlows()).count(), 1u);
  EXPECT_NEAR(rec.Fcts(RequestFilter::LargeFlows()).Median(), 1.0, 1e-9);
}

TEST(FctRecorderTest, FiltersByStartTimeAndPriority) {
  FctRecorder rec;
  TimePoint warm = TimePoint::Zero() + TimeDelta::Seconds(5);
  uint64_t early = rec.RegisterRequest(1000, TimePoint::Zero() + TimeDelta::Seconds(1));
  uint64_t late =
      rec.RegisterRequest(1000, TimePoint::Zero() + TimeDelta::Seconds(6), /*priority=*/1);
  rec.OnComplete(early, TimePoint::Zero() + TimeDelta::Seconds(2));
  rec.OnComplete(late, TimePoint::Zero() + TimeDelta::Seconds(7));
  RequestFilter post_warmup;
  post_warmup.min_start = warm;
  EXPECT_EQ(rec.Fcts(post_warmup).count(), 1u);
  RequestFilter prio;
  prio.priority = 1;
  EXPECT_EQ(rec.Fcts(prio).count(), 1u);
  prio.priority = 0;
  EXPECT_EQ(rec.Fcts(prio).count(), 1u);
}

TEST(FctRecorderTest, SlowdownDividesByIdeal) {
  FctRecorder rec;
  TimePoint t0;
  uint64_t id = rec.RegisterRequest(1000, t0);
  rec.OnComplete(id, t0 + TimeDelta::Millis(100));
  auto slow = rec.Slowdowns([](int64_t) { return TimeDelta::Millis(50); });
  ASSERT_EQ(slow.count(), 1u);
  EXPECT_NEAR(slow.Median(), 2.0, 1e-9);
}

TEST(FctRecorderTest, IncompleteRequestsExcluded) {
  FctRecorder rec;
  rec.RegisterRequest(1000, TimePoint::Zero());
  EXPECT_TRUE(rec.Fcts().empty());
  EXPECT_TRUE(rec.Slowdowns([](int64_t) { return TimeDelta::Millis(1); }).empty());
}

TEST(IdealFctTest, LargerFlowsTakeLonger) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(96), TimeDelta::Millis(50), HostCcType::kCubic);
  TimeDelta f10k = ideal(10'000);
  TimeDelta f1m = ideal(1'000'000);
  TimeDelta f10m = ideal(10'000'000);
  EXPECT_LT(f10k, f1m);
  EXPECT_LT(f1m, f10m);
  // Small flow: at least one RTT, at most a few.
  EXPECT_GE(f10k.ToMillis(), 50.0);
  EXPECT_LE(f10k.ToMillis(), 200.0);
}

TEST(IdealFctTest, LargeFlowApproachesLineRate) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(96), TimeDelta::Millis(50), HostCcType::kCubic);
  // 50 MB at 96 Mbit/s: serialization floor is ~4.2 s; window growth adds
  // some, but the total should be within 2x of the floor.
  TimeDelta fct = ideal(50'000'000);
  double floor_s = 50e6 * 8 / 96e6;
  EXPECT_GT(fct.ToSeconds(), floor_s);
  EXPECT_LT(fct.ToSeconds(), 2 * floor_s);
}

TEST(IdealFctTest, CachesConsistently) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(48), TimeDelta::Millis(20), HostCcType::kCubic);
  EXPECT_EQ(ideal(123'456).nanos(), ideal(123'456).nanos());
}

TEST(PoissonWorkloadTest, OfferedLoadMatchesConfig) {
  // Host pair on a fat link; offered load = requests/s * mean size.
  Simulator sim;
  FlowTable flows;
  Host server(&sim, MakeAddress(1, 1), nullptr);
  Host client(&sim, MakeAddress(2, 1), nullptr);
  Link up(&sim, "up", Rate::Gbps(10), TimeDelta::Millis(1),
          std::make_unique<DropTailFifo>(1 << 26), &client);
  Link down(&sim, "down", Rate::Gbps(10), TimeDelta::Millis(1),
            std::make_unique<DropTailFifo>(1 << 26), &server);
  server.set_egress(&up);
  client.set_egress(&down);

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig cfg;
  cfg.offered_load = Rate::Mbps(50);
  PoissonWebWorkload wl(&sim, &flows, &server, &client, &cdf, cfg, /*seed=*/11, &fct);
  const double kDur = 30.0;
  sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(kDur));

  // Total registered bytes / duration ~ offered load. Heavy-tailed sizes make
  // this noisy; accept a wide band.
  int64_t total_bytes = 0;
  for (const auto& r : fct.records()) {
    total_bytes += r.size_bytes;
  }
  double offered_mbps = static_cast<double>(total_bytes) * 8 / kDur / 1e6;
  EXPECT_GT(offered_mbps, 20.0);
  EXPECT_LT(offered_mbps, 120.0);
  EXPECT_GT(wl.issued(), 1000u);
}

TEST(PoissonWorkloadTest, StopTimeHonored) {
  Simulator sim;
  FlowTable flows;
  Host server(&sim, MakeAddress(1, 1), nullptr);
  Host client(&sim, MakeAddress(2, 1), nullptr);
  Link up(&sim, "up", Rate::Gbps(10), TimeDelta::Millis(1),
          std::make_unique<DropTailFifo>(1 << 26), &client);
  Link down(&sim, "down", Rate::Gbps(10), TimeDelta::Millis(1),
            std::make_unique<DropTailFifo>(1 << 26), &server);
  server.set_egress(&up);
  client.set_egress(&down);
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig cfg;
  cfg.offered_load = Rate::Mbps(20);
  cfg.stop = TimePoint::Zero() + TimeDelta::Seconds(2);
  PoissonWebWorkload wl(&sim, &flows, &server, &client, &cdf, cfg, 7, &fct);
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  for (const auto& r : fct.records()) {
    EXPECT_LE(r.start.ToSeconds(), 2.0);
  }
  EXPECT_GT(wl.issued(), 0u);
}

TEST(PoissonWorkloadTest, DeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    FlowTable flows;
    Host server(&sim, MakeAddress(1, 1), nullptr);
    Host client(&sim, MakeAddress(2, 1), nullptr);
    Link up(&sim, "up", Rate::Gbps(1), TimeDelta::Millis(5),
            std::make_unique<DropTailFifo>(1 << 26), &client);
    Link down(&sim, "down", Rate::Gbps(1), TimeDelta::Millis(5),
              std::make_unique<DropTailFifo>(1 << 26), &server);
    server.set_egress(&up);
    client.set_egress(&down);
    SizeCdf cdf = SizeCdf::InternetCoreRouter();
    FctRecorder fct;
    WebWorkloadConfig cfg;
    cfg.offered_load = Rate::Mbps(30);
    PoissonWebWorkload wl(&sim, &flows, &server, &client, &cdf, cfg, seed, &fct);
    sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
    // Unsigned arithmetic: this is a wraparound hash, not a count.
    uint64_t sig = wl.issued();
    for (const auto& r : fct.records()) {
      sig = sig * 31 + static_cast<uint64_t>(r.size_bytes);
    }
    return sig;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(BulkFlowsTest, StartsRequestedCount) {
  Simulator sim;
  FlowTable flows;
  Host server(&sim, MakeAddress(1, 1), nullptr);
  Host client(&sim, MakeAddress(2, 1), nullptr);
  Link up(&sim, "up", Rate::Mbps(96), TimeDelta::Millis(10),
          std::make_unique<DropTailFifo>(1 << 22), &client);
  Link down(&sim, "down", Rate::Mbps(96), TimeDelta::Millis(10),
            std::make_unique<DropTailFifo>(1 << 22), &server);
  server.set_egress(&up);
  client.set_egress(&down);
  auto senders = StartBulkFlows(&sim, &flows, &server, &client, 5, HostCcType::kCubic,
                                TimePoint::Zero());
  ASSERT_EQ(senders.size(), 5u);
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  int64_t total = 0;
  for (auto* s : senders) {
    EXPECT_FALSE(s->complete());
    EXPECT_GT(s->delivered_bytes(), 0);
    total += s->delivered_bytes();
  }
  EXPECT_GT(total, static_cast<int64_t>(0.7 * 5 * 96e6 / 8));
}

}  // namespace
}  // namespace bundler
