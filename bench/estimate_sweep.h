// Shared driver for Figures 5 and 6: runs the §7.1-style workload across a
// grid of link delays (20/50/100 ms) and bottleneck rates (24/48/96 Mbit/s),
// collecting (estimate - actual) differences between the sendbox's
// epoch-based measurements and ground truth observed at the emulated
// bottleneck, plus a 5-second example segment of estimate-vs-actual.
#ifndef BENCH_ESTIMATE_SWEEP_H_
#define BENCH_ESTIMATE_SWEEP_H_

#include <vector>

#include "src/app/workload.h"
#include "src/topo/dumbbell.h"
#include "src/util/stats.h"

namespace bundler {
namespace bench {

struct EstimatePoint {
  double t_s;
  double estimate;
  double actual;
};

struct EstimateSweepResult {
  QuantileEstimator rtt_diff_ms;    // estimate - actual per epoch sample
  QuantileEstimator rate_diff_mbps; // estimate - actual per epoch sample
  // One example trace segment (50 ms grid over 5 s) from the 50 ms / 48 Mbit/s
  // configuration, mirroring the top panels of Figs. 5 and 6.
  std::vector<EstimatePoint> rtt_segment;
  std::vector<EstimatePoint> rate_segment;
};

inline EstimateSweepResult RunEstimateSweep(int seeds_per_config = 2,
                                            double duration_s = 30) {
  EstimateSweepResult out;
  const int delays_ms[] = {20, 50, 100};
  const double rates_mbps[] = {24, 48, 96};
  for (int delay_ms : delays_ms) {
    for (double rate_mbps : rates_mbps) {
      for (int seed = 1; seed <= seeds_per_config; ++seed) {
        Simulator sim;
        DumbbellConfig cfg;
        cfg.bottleneck_rate = Rate::Mbps(rate_mbps);
        cfg.rtt = TimeDelta::Millis(delay_ms);
        cfg.rate_meter_window = TimeDelta::Millis(50);
        Dumbbell net(&sim, cfg);

        SizeCdf cdf = SizeCdf::InternetCoreRouter();
        FctRecorder fct;
        WebWorkloadConfig wl;
        wl.offered_load = Rate::Mbps(rate_mbps * 0.875);  // 84/96 of capacity
        PoissonWebWorkload workload(&sim, net.flows(), net.server(), net.client(), &cdf,
                                    wl, static_cast<uint64_t>(seed), &fct);

        // Collect every in-order epoch sample after warmup; ground truth is
        // evaluated lazily after the run from the bottleneck monitors.
        struct RawSample {
          TimePoint t;
          double rtt_ms;
          double rate_mbps;
          bool has_rates;
        };
        std::vector<RawSample> samples;
        const TimePoint warmup = TimePoint::Zero() + TimeDelta::Seconds(5);
        net.controller()->measurement().SetSampleCallback([&](const EpochSample& s) {
          if (!s.in_order || s.now < warmup) {
            return;
          }
          samples.push_back(
              {s.now, s.rtt.ToMillis(), s.recv_rate.Mbps(), s.has_rates});
        });

        sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(duration_s));

        const bool is_example =
            delay_ms == 50 && rate_mbps == 48 && seed == 1;
        for (const auto& s : samples) {
          // Actual RTT: propagation + queueing observed at the bottleneck.
          // The feedback that produced this sample left the bottleneck one
          // reverse propagation (rtt/2) before it reached the sendbox, so
          // ground truth must be read at that instant, not at arrival time.
          TimePoint transit = s.t - TimeDelta::Millis(delay_ms) / 2;
          double actual_rtt =
              delay_ms + net.bottleneck_delay()->DelayMsAt(transit);
          out.rtt_diff_ms.Add(s.rtt_ms - actual_rtt);
          double actual_rate = net.bundle_rate_meter()->RateMbpsAt(transit);
          if (s.has_rates && actual_rate > 0) {
            out.rate_diff_mbps.Add(s.rate_mbps - actual_rate);
          }
          if (is_example && s.t.ToSeconds() >= 20 && s.t.ToSeconds() < 25) {
            out.rtt_segment.push_back({s.t.ToSeconds(), s.rtt_ms, actual_rtt});
            if (s.has_rates && actual_rate > 0) {
              out.rate_segment.push_back({s.t.ToSeconds(), s.rate_mbps, actual_rate});
            }
          }
        }
      }
    }
  }
  return out;
}

inline void PrintSegment(const char* unit, const std::vector<EstimatePoint>& seg) {
  std::printf("example segment (50 ms / 48 Mbit/s trace, t = 20..25 s), %s:\n", unit);
  std::printf("  %8s %12s %12s %12s\n", "t(s)", "estimate", "actual", "diff");
  size_t stride = seg.size() > 25 ? seg.size() / 25 : 1;
  for (size_t i = 0; i < seg.size(); i += stride) {
    std::printf("  %8.2f %12.2f %12.2f %12.2f\n", seg[i].t_s, seg[i].estimate,
                seg[i].actual, seg[i].estimate - seg[i].actual);
  }
}

}  // namespace bench
}  // namespace bundler

#endif  // BENCH_ESTIMATE_SWEEP_H_
