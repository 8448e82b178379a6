// Parking-lot multi-bottleneck scenario — a topology the paper never ran,
// unlocked by the composable NetBuilder. The bundle crosses TWO contended
// hops in sequence; independent unbundled web-mix cross traffic enters at
// each hop:
//
//   srv -> r1 --hop1 (96 Mbit/s)--> r2 --hop2 (swept)--> r3 -> cli
//   c1_src -> r1 (exits at r2)          c2_src -> r2 (exits at r3)
//
// The question under test: does Bundler's queue ownership survive when the
// queue can build at either of two hops? The `hop2_mbps` axis moves the
// tighter bottleneck: 72 (hop2 binding), 96 (balanced), 120 (hop1 binding).
// With the bundle elastic (web mix + one backlogged flow), Status Quo builds
// a standing queue at the binding hop; Bundler should pull it back to the
// sendbox — lower queue delay on BOTH hops and faster short flows — though
// (as in fig11) the delay-based aggregate yields some throughput to the
// unbundled cross traffic.
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr SiteId kSrvSite = 10;
constexpr SiteId kCliSite = 100;
constexpr SiteId kCross1Src = 200;
constexpr SiteId kCross1Dst = 201;
constexpr SiteId kCross2Src = 202;
constexpr SiteId kCross2Dst = 203;

constexpr auto kHop1Rate = Rate::Mbps(96);
constexpr auto kHop1Delay = TimeDelta::Millis(15);
constexpr auto kHop2Delay = TimeDelta::Millis(10);
constexpr auto kReverseDelay = TimeDelta::Millis(25);  // total base RTT: 50 ms
constexpr auto kRttEstimate = TimeDelta::Millis(50);
// The bundle (web mix + one backlogged flow) is the dominant load; per-hop
// cross web is kept light so the queue the sendbox must own is the bundle's
// (heavy unbundled web cross is fig11's over-yield regime, not this test).
constexpr auto kBundleWebLoad = Rate::Mbps(48);
constexpr auto kCrossWebLoad = Rate::Mbps(12);
constexpr auto kDuration = TimeDelta::Seconds(30);
constexpr auto kWarmup = TimeDelta::Seconds(5);

struct ParkingLotGraph {
  NetBuilder::NodeId srv = -1, cli = -1;
  NetBuilder::NodeId c1_src = -1, c1_dst = -1, c2_src = -1, c2_dst = -1;
  NetBuilder::EdgeId hop1 = -1, hop2 = -1;
  NetBuilder::MonitorId hop1_delay = -1, hop2_delay = -1, bundle_meter = -1;
};

int64_t BufferBytes(Rate rate) {
  return static_cast<int64_t>(2.0 * rate.BytesPerSecond() * kRttEstimate.ToSeconds());
}

NetBuilder ParkingLotBuilder(Rate hop2_rate, bool bundled, ParkingLotGraph* graph) {
  NetBuilder b;
  ParkingLotGraph g;
  g.srv = b.AddSite("srv", kSrvSite);
  g.cli = b.AddSite("cli", kCliSite);
  g.c1_src = b.AddSite("cross1_src", kCross1Src);
  g.c1_dst = b.AddSite("cross1_dst", kCross1Dst);
  g.c2_src = b.AddSite("cross2_src", kCross2Src);
  g.c2_dst = b.AddSite("cross2_dst", kCross2Dst);
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::NodeId r2 = b.AddRouter("r2");
  NetBuilder::NodeId r3 = b.AddRouter("r3");
  NetBuilder::NodeId agg = b.AddRouter("reverse_agg");
  NetBuilder::NodeId rrev = b.AddRouter("reverse_router");

  NetBuilder::LinkSpec edge;  // uncontended 1 Gbit/s access links
  b.AddLink(g.srv, r1, edge, "srv_edge");
  b.AddLink(g.c1_src, r1, edge, "cross1_edge");
  b.AddLink(g.c2_src, r2, edge, "cross2_edge");

  NetBuilder::LinkSpec hop1;
  hop1.rate = kHop1Rate;
  hop1.delay = kHop1Delay;
  hop1.buffer_bytes = BufferBytes(kHop1Rate);
  g.hop1 = b.AddLink(r1, r2, hop1, "hop1");
  NetBuilder::LinkSpec hop2;
  hop2.rate = hop2_rate;
  hop2.delay = kHop2Delay;
  hop2.buffer_bytes = BufferBytes(hop2_rate);
  g.hop2 = b.AddLink(r2, r3, hop2, "hop2");

  b.AddWire(r2, g.c1_dst);  // hop-1 cross traffic exits before hop 2
  b.AddWire(r3, g.cli);
  b.AddWire(r3, g.c2_dst);

  // Shared fat reverse path for ACKs and Bundler feedback.
  b.AddWire(g.cli, agg);
  b.AddWire(g.c1_dst, agg);
  b.AddWire(g.c2_dst, agg);
  NetBuilder::LinkSpec reverse;
  reverse.delay = kReverseDelay;
  reverse.buffer_bytes = 64 * 1024 * 1024;
  b.AddLink(agg, rrev, reverse, "reverse");
  b.AddWire(rrev, g.srv);
  b.AddWire(rrev, g.c1_src);
  b.AddWire(rrev, g.c2_src);

  if (bundled) {
    NetBuilder::BundleSpec bundle;
    bundle.src_site = g.srv;
    bundle.dst_site = g.cli;
    // The receivebox sits past BOTH contended hops.
    bundle.ingress_edge = g.hop2;
    b.AddBundle(bundle);
  }

  g.hop1_delay = b.AddQueueMonitor(g.hop1);
  g.hop2_delay = b.AddQueueMonitor(g.hop2);
  g.bundle_meter = b.AddRateMeter(g.hop2, TimeDelta::Millis(50),
                                  PacketFilter::DataFrom(kSrvSite, kCliSite));
  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

TrialResult RunTrial(const TrialPoint& point) {
  bool bundler_on = point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown parking_lot variant '%s'", point.variant.c_str());
  Rate hop2_rate = Rate::Mbps(point.Param("hop2_mbps"));

  Simulator sim;
  BeginTrialObs(&sim);
  ParkingLotGraph g;
  std::unique_ptr<Net> net = ParkingLotBuilder(hop2_rate, bundler_on, &g).Build(&sim);

  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = kBundleWebLoad;
  PoissonWebWorkload bundle_web(&sim, net->flows(), net->host(g.srv), net->host(g.cli),
                                &kCdf, wl, point.seed, &fct);
  // One backlogged flow keeps the bundle elastic, so a standing queue builds
  // at whichever hop binds.
  StartBulkFlows(&sim, net->flows(), net->host(g.srv), net->host(g.cli), 1,
                 HostCcType::kCubic, TimePoint::Zero());

  FctRecorder cross1_fct;
  FctRecorder cross2_fct;
  WebWorkloadConfig cross_wl;
  cross_wl.offered_load = kCrossWebLoad;
  PoissonWebWorkload cross1(&sim, net->flows(), net->host(g.c1_src), net->host(g.c1_dst),
                            &kCdf, cross_wl, point.seed + 77, &cross1_fct);
  PoissonWebWorkload cross2(&sim, net->flows(), net->host(g.c2_src), net->host(g.c2_dst),
                            &kCdf, cross_wl, point.seed + 177, &cross2_fct);

  sim.RunUntil(TimePoint::Zero() + kDuration);

  TimePoint measured = TimePoint::Zero() + kWarmup;
  RequestFilter small = RequestFilter::SmallFlows();
  small.min_start = measured;
  small.max_start = TimePoint::Zero() + kDuration - TimeDelta::Seconds(2);

  TrialResult r;
  AddFctMillis(&r, fct.Fcts(small), "short_fct_ms");
  r.scalars["hop1_qdelay_ms_p95"] =
      SeriesQuantileSince(net->queue_monitor(g.hop1_delay)->delay_ms(), measured, 0.95);
  r.scalars["hop2_qdelay_ms_p95"] =
      SeriesQuantileSince(net->queue_monitor(g.hop2_delay)->delay_ms(), measured, 0.95);
  r.scalars["bundle_tput_mbps"] =
      net->rate_meter(g.bundle_meter)
          ->AverageRate(measured, TimePoint::Zero() + kDuration)
          .Mbps();
  r.scalars["requests_completed"] = static_cast<double>(fct.completed());
  EndTrialObs(&sim, point, &r);
  return r;
}

}  // namespace

void RegisterParkingLot(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "parking_lot";
  spec.summary =
      "Parking lot: bundle crosses two contended hops (hop2 rate swept); "
      "Bundler must cut queue delay on BOTH hops and speed up short flows";
  spec.variants = {"status_quo", "bundler"};
  spec.axes = {{"hop2_mbps", {72, 96, 120}}};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(
        ParkingLotBuilder(Rate::Mbps(72), /*bundled=*/true, nullptr), "parking_lot");
  });
}

}  // namespace runner
}  // namespace bundler
