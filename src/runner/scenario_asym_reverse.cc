// Asymmetric / congested reverse path, declared directly on NetBuilder. The
// forward direction is the paper's 96 Mbit/s bottleneck, but the reverse
// direction is a narrow link (swept) that ACKs, request packets, and
// Bundler's out-of-band feedback share with unbundled reverse bulk traffic:
//
//   srv -> rf --forward 96 Mbit/s--> rd -> cli
//   cli, rev_src -> agg --reverse (swept, deep-buffered)--> rr -> srv, rev_dst
//   rev_dst ACKs return via rf (the fat forward direction) — fully asymmetric
//   routing.
//
// This stresses the feedback channel the paper's design leans on (§4.5): the
// congestion-ACK stream from receivebox to sendbox crosses the congested
// reverse queue. Reported: short-flow FCTs, bundle throughput, reverse-queue
// delay, and feedback deliveries per second at the sendbox's measurement
// engine (a starved loop degrades epoch accounting).
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/transport/tcp_flow.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr SiteId kSrvSite = 10;
constexpr SiteId kCliSite = 100;
constexpr SiteId kRevSrcSite = 210;
constexpr SiteId kRevDstSite = 211;

constexpr auto kForwardRate = Rate::Mbps(96);
constexpr auto kOneWayDelay = TimeDelta::Millis(25);  // 50 ms base RTT
constexpr auto kRttEstimate = TimeDelta::Millis(50);
constexpr auto kBundleWebLoad = Rate::Mbps(60);
constexpr auto kDuration = TimeDelta::Seconds(30);
constexpr auto kWarmup = TimeDelta::Seconds(5);

struct AsymGraph {
  NetBuilder::NodeId srv = -1, cli = -1, rev_src = -1, rev_dst = -1;
  NetBuilder::EdgeId forward = -1, reverse = -1;
  NetBuilder::MonitorId reverse_delay = -1, bundle_meter = -1;
};

NetBuilder AsymReverseBuilder(Rate reverse_rate, bool bundled, bool watchdog,
                              AsymGraph* graph) {
  NetBuilder b;
  AsymGraph g;
  g.srv = b.AddSite("srv", kSrvSite);
  g.cli = b.AddSite("cli", kCliSite);
  g.rev_src = b.AddSite("rev_src", kRevSrcSite);
  g.rev_dst = b.AddSite("rev_dst", kRevDstSite);
  NetBuilder::NodeId rf = b.AddRouter("forward_router");
  NetBuilder::NodeId rd = b.AddRouter("dst_router");
  NetBuilder::NodeId agg = b.AddRouter("reverse_agg");
  NetBuilder::NodeId rr = b.AddRouter("reverse_router");

  NetBuilder::LinkSpec edge;  // uncontended access links
  b.AddLink(g.srv, rf, edge, "srv_edge");
  b.AddLink(g.rev_src, agg, edge, "rev_src_edge");

  NetBuilder::LinkSpec forward;
  forward.rate = kForwardRate;
  forward.delay = kOneWayDelay;
  forward.buffer_bytes = static_cast<int64_t>(
      2.0 * kForwardRate.BytesPerSecond() * kRttEstimate.ToSeconds());
  g.forward = b.AddLink(rf, rd, forward, "forward");
  b.AddWire(rd, g.cli);
  b.AddWire(rd, g.rev_src);  // reverse-bulk ACKs come back along the fat side

  b.AddWire(g.cli, agg);
  NetBuilder::LinkSpec reverse;
  reverse.rate = reverse_rate;
  reverse.delay = kOneWayDelay;
  // Provider-style deep buffer: the reverse queue can grow to multiple RTTs.
  reverse.buffer_bytes = static_cast<int64_t>(
      4.0 * reverse_rate.BytesPerSecond() * kRttEstimate.ToSeconds());
  g.reverse = b.AddLink(agg, rr, reverse, "reverse");
  b.AddWire(rr, g.srv);
  b.AddWire(rr, g.rev_dst);
  b.AddWire(g.rev_dst, rf);

  if (bundled) {
    NetBuilder::BundleSpec bundle;
    bundle.src_site = g.srv;
    bundle.dst_site = g.cli;
    bundle.ingress_edge = g.forward;
    // The watchdog arm (asym_reverse_sweep's "bundler_watchdog") is a
    // robustness configuration: feedback starvation on the congested reverse
    // queue must produce a controlled fallback to pass-through, not a shaped
    // collapse.
    bundle.sendbox.watchdog = watchdog;
    b.AddBundle(bundle);
  }

  g.reverse_delay = b.AddQueueMonitor(g.reverse);
  g.bundle_meter = b.AddRateMeter(g.forward, TimeDelta::Millis(50),
                                  PacketFilter::DataFrom(kSrvSite, kCliSite));
  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  bool watchdog = point.variant == "bundler_watchdog";
  bool bundler_on = watchdog || point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown asym_reverse_sweep variant '%s'", point.variant.c_str());
  Rate reverse_rate = Rate::Mbps(point.Param("reverse_mbps"));

  AsymGraph g;
  std::unique_ptr<Net> net =
      AsymReverseBuilder(reverse_rate, bundler_on, watchdog, &g).Build(sim);

  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = kBundleWebLoad;
  PoissonWebWorkload bundle_web(sim, net->flows(), net->host(g.srv), net->host(g.cli),
                                &kCdf, wl, point.seed, &fct);
  StartBulkFlows(sim, net->flows(), net->host(g.srv), net->host(g.cli), 1,
                 HostCcType::kCubic, TimePoint::Zero());
  // Two backlogged flows congest the narrow reverse direction.
  StartBulkFlows(sim, net->flows(), net->host(g.rev_src), net->host(g.rev_dst), 2,
                 HostCcType::kCubic, TimePoint::Zero());

  sim->RunUntil(TimePoint::Zero() + kDuration);

  TimePoint measured = TimePoint::Zero() + kWarmup;
  RequestFilter small = RequestFilter::SmallFlows();
  small.min_start = measured;
  small.max_start = TimePoint::Zero() + kDuration - TimeDelta::Seconds(2);

  TrialResult r;
  AddFctMillis(&r, fct.Fcts(small), "short_fct_ms");
  r.scalars["reverse_qdelay_ms_p95"] =
      SeriesQuantileSince(net->queue_monitor(g.reverse_delay)->delay_ms(), measured, 0.95);
  r.scalars["bundle_tput_mbps"] =
      net->rate_meter(g.bundle_meter)
          ->AverageRate(measured, TimePoint::Zero() + kDuration)
          .Mbps();
  r.scalars["requests_completed"] = static_cast<double>(fct.completed());
  if (bundler_on) {
    // Delivered-side count (matched at the sendbox's measurement engine) —
    // the receivebox's send count stays near-nominal because the loss happens
    // in the congested reverse queue between the two.
    r.scalars["feedback_delivered_per_sec"] =
        static_cast<double>(
            net->bundle_controller(0)->measurement().feedback_matched()) /
        kDuration.ToSeconds();
  }
  if (watchdog) {
    // Controlled-fallback forensics: how often the watchdog degraded, how
    // much of the run was spent degraded, and the mean time each degradation
    // lasted (the measured recovery time; an unrecovered tail counts to the
    // end of the run).
    const auto& log = net->bundle_controller(0)->watchdog_log();
    double degrades = 0;
    double resyncs = 0;
    TimeDelta degraded_total = TimeDelta::Zero();
    TimePoint degraded_since;
    bool degraded = false;
    for (const auto& [t, ev] : log) {
      if (ev == BundleController::WatchdogEvent::kDegrade) {
        ++degrades;
        degraded = true;
        degraded_since = t;
      } else if (ev == BundleController::WatchdogEvent::kResync && degraded) {
        ++resyncs;
        degraded = false;
        degraded_total += t - degraded_since;
      }
    }
    if (degraded) {
      degraded_total += TimePoint::Zero() + kDuration - degraded_since;
    }
    r.scalars["wd_degrades"] = degrades;
    r.scalars["wd_resyncs"] = resyncs;
    r.scalars["wd_degraded_frac"] = degraded_total / kDuration;
    r.scalars["wd_mean_recovery_ms"] =
        degrades > 0 ? degraded_total.ToMillis() / degrades : 0.0;
  }
  return r;
}

}  // namespace

void RegisterAsymReverseSweep(ScenarioRegistry* registry) {
  // A fine sweep of the reverse capacity around ~8 Mbit/s, where the
  // out-of-band feedback loop collapses: feedback_delivered_per_sec and
  // bundle throughput localize the threshold, FCT shows what the collapse
  // costs end users, and the watchdog arm shows what degrading buys.
  ScenarioSpec spec;
  spec.name = "asym_reverse_sweep";
  spec.summary =
      "Fine reverse-capacity sweep (5..12 Mbit/s) around the ~8 Mbit/s "
      "feedback-collapse threshold; the watchdog arm degrades gracefully "
      "instead of collapsing";
  spec.variants = {"status_quo", "bundler", "bundler_watchdog"};
  spec.axes = {{"reverse_mbps", {5, 6, 7, 8, 10, 12}}};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(
        AsymReverseBuilder(Rate::Mbps(7), /*bundled=*/true, /*watchdog=*/true,
                           nullptr),
        "asym_reverse_sweep");
  });
}

}  // namespace runner
}  // namespace bundler
