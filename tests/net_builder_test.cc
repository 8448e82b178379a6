// Unit tests for the composable topology builder (src/topo/net_builder):
// graph-validation failure cases (readable CHECK aborts), routing and bundle
// plumbing on hand-declared graphs, byte-identity between a hand-declared
// dumbbell and the Dumbbell preset on a fig09-style workload, a
// parking-lot smoke test asserting per-hop queue monitors see the expected
// bottleneck, and the site-pair packet filters monitors attach with.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/qdisc/fifo.h"
#include "src/runner/result_sink.h"
#include "src/runner/scenario.h"
#include "src/topo/dumbbell.h"
#include "src/topo/net_builder.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace {

// --- Validation failures: every malformed graph must die with a readable
// message, not mis-build. ---

TEST(NetBuilderValidationTest, DuplicateSiteIdsDie) {
  NetBuilder b;
  b.AddSite("a", 10);
  EXPECT_DEATH(
      {
        b.AddSite("b", 10);
        NetBuilder::NodeId r = b.AddRouter("r");
        (void)r;
        Simulator sim;
        (void)b.Build(&sim);
      },
      "share site id 10");
}

TEST(NetBuilderValidationTest, DuplicateNodeNamesDie) {
  NetBuilder b;
  b.AddSite("a", 10);
  b.AddSite("a", 11);
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "duplicate node name 'a'");
}

TEST(NetBuilderValidationTest, SiteWithoutEgressDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId r = b.AddRouter("r");
  b.AddWire(r, a);  // a can receive but never send
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "site 'a' has 0 egress edges");
}

TEST(NetBuilderValidationTest, SiteWithTwoEgressEdgesDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::NodeId r2 = b.AddRouter("r2");
  b.AddWire(a, r1);
  b.AddWire(a, r2);
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "site 'a' has 2 egress edges");
}

TEST(NetBuilderValidationTest, DanglingEdgeEndpointDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  EXPECT_DEATH(b.AddWire(a, 7), "refers to node 7");
}

TEST(NetBuilderValidationTest, UnreachableSiteDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId z = b.AddSite("z", 11);
  NetBuilder::NodeId r = b.AddRouter("r");
  b.AddWire(a, r);
  b.AddWire(z, r);  // both sites send to r, but nothing routes *to* z or a
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "unreachable from every router");
}

TEST(NetBuilderValidationTest, MonitorOnWireDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::EdgeId w = b.AddWire(a, r);
  EXPECT_DEATH(b.AddQueueMonitor(w), "attached to wire");
}

TEST(NetBuilderValidationTest, BundleIngressOffForwardRouteDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId c = b.AddSite("c", 100);
  NetBuilder::NodeId x = b.AddSite("x", 200);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::NodeId rx = b.AddRouter("rx");
  b.AddLink(a, r, {}, "a_edge");
  b.AddWire(r, c);
  b.AddWire(r, x);
  b.AddWire(c, r);
  // x's private edge: never on the a -> c route.
  NetBuilder::EdgeId stray = b.AddLink(x, rx, {}, "stray");
  b.AddWire(rx, a);

  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = c;
  bundle.ingress_edge = stray;
  b.AddBundle(bundle);
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "does not traverse ingress edge 'stray'");
}

TEST(NetBuilderValidationTest, NoReverseRouteDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId c = b.AddSite("c", 100);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::NodeId sink = b.AddRouter("sink");
  NetBuilder::EdgeId fwd = b.AddLink(a, r, {}, "fwd");
  b.AddWire(r, c);
  b.AddWire(r, a);      // a stays reachable, so only the reverse check fires
  b.AddWire(c, sink);   // c's egress dead-ends: sink can only reach c
  b.AddWire(sink, c);

  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = c;
  bundle.ingress_edge = fwd;
  b.AddBundle(bundle);
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "feedback loop cannot close");
}

TEST(NetBuilderValidationTest, TwoBundlesOneSiteEgressDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId c = b.AddSite("c", 100);
  NetBuilder::NodeId d = b.AddSite("d", 101);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::EdgeId fwd = b.AddLink(a, r, {}, "fwd");
  b.AddWire(r, c);
  b.AddWire(r, d);
  b.AddWire(c, r);
  b.AddWire(d, r);
  NetBuilder::BundleSpec b1;
  b1.src_site = a;
  b1.dst_site = c;
  b1.ingress_edge = fwd;
  b.AddBundle(b1);
  NetBuilder::BundleSpec b2 = b1;
  b2.dst_site = d;
  EXPECT_DEATH(b.AddBundle(b2), "two bundles originate at site 'a'");
}

TEST(NetBuilderValidationTest, TenantlessSitePolicyComesOnlyFromItsBundle) {
  // A tenant-less bundle's sendbox config is its site's egress policy: its
  // max_rate becomes the site aggregate (zero would stall the site), and a
  // second, declared policy would be silently overridden.
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId c = b.AddSite("c", 100);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::EdgeId fwd = b.AddLink(a, r, {}, "fwd");
  b.AddWire(r, c);
  b.AddWire(c, r);
  b.AddWire(r, a);
  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = c;
  bundle.ingress_edge = fwd;
  NetBuilder::BundleSpec unshaped = bundle;
  unshaped.sendbox.max_rate = Rate::Zero();
  EXPECT_DEATH(b.AddBundle(unshaped), "needs a positive sendbox.max_rate");
  b.AddBundle(bundle);
  b.SetSiteEgressPolicy(a, SendboxManager::Policy());
  Simulator sim;
  EXPECT_DEATH(b.Build(&sim), "sets an egress policy but originates a tenant-less");
}

// --- Routing and plumbing on a hand-declared graph. ---

TEST(NetBuilderTest, RoutesAcrossTwoRoutersAndBundlePlumbingWorks) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId c = b.AddSite("c", 100);
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::NodeId r2 = b.AddRouter("r2");
  NetBuilder::LinkSpec slow;
  slow.rate = Rate::Mbps(50);
  slow.delay = TimeDelta::Millis(5);
  NetBuilder::EdgeId e1 = b.AddLink(a, r1, {}, "a_edge");
  NetBuilder::EdgeId mid = b.AddLink(r1, r2, slow, "mid");
  b.AddWire(r2, c);
  b.AddWire(c, r1);  // reverse: c -> r1 -> (mid) ... routes back via r1? no —
  // c's ACKs to site 10 need a route at r1 toward a: none of r1's edges
  // deliver to a. Add one.
  b.AddWire(r1, a);

  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = c;
  bundle.ingress_edge = mid;
  b.AddBundle(bundle);

  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  EXPECT_EQ(net->link(e1)->name(), "a_edge");
  EXPECT_EQ(net->num_paths(mid), 1u);
  EXPECT_EQ(net->host_at_site(10), net->host(a));

  // Drive a real transfer through the bundle; sendbox and receivebox must
  // both see traffic and the out-of-band feedback loop must close.
  FctRecorder fct;
  IssueSingleRequest(&sim, net->flows(), net->host(a), net->host(c), 200000,
                     HostCcType::kCubic, &fct);
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  EXPECT_EQ(fct.completed(), 1u);
  EXPECT_GT(net->bundle_controller(0)->bytes_sent(), 200000);
  EXPECT_GT(net->receivebox(0)->bytes_received(), 200000);
  EXPECT_GT(net->receivebox(0)->feedback_sent(), 0u);
}

// A tenant-less bundle's sendbox is a single-tenant SendboxManager on its
// source site: always admitted, named by the site pair, and queueing through
// the bundle's scheduler (SFQ unless scheduler_factory says otherwise).
TEST(NetBuilderTest, TenantlessBundleRidesSingleTenantManager) {
  DumbbellConfig cfg;
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(cfg, &g);
  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  SendboxManager* mgr = net->manager(g.servers[0]);
  EXPECT_EQ(net->sendbox(0), mgr);
  EXPECT_TRUE(net->bundle_admitted(0));
  EXPECT_EQ(net->bundle_controller(0), mgr->controller(0));
  ASSERT_NE(mgr->controller(0), nullptr);
  EXPECT_EQ(mgr->num_bundles(), 1u);
  ASSERT_EQ(mgr->num_tenants(), 1u);
  EXPECT_EQ(mgr->tenant_name(0), "s10-s100");
  EXPECT_STREQ(mgr->egress_hierarchy().bundle_qdisc(0)->name(), "sfq");
}

TEST(NetBuilderTest, TenantlessBundleSchedulerFactoryOverridesDefault) {
  DumbbellConfig cfg;
  cfg.sendbox.scheduler_factory = [] {
    return MakeScheduler(SchedulerType::kFifo, 1000);
  };
  Simulator sim;
  std::unique_ptr<Net> net = DumbbellBuilder(cfg).Build(&sim);
  EXPECT_STREQ(net->sendbox(0)->egress_hierarchy().bundle_qdisc(0)->name(),
               "droptail_fifo");
}

TEST(NetBuilderTest, ToDotNamesNodesEdgesAndAttachments) {
  DumbbellConfig cfg;
  std::string dot = DumbbellBuilder(cfg).ToDot("dumbbell");
  EXPECT_NE(dot.find("digraph \"dumbbell\""), std::string::npos);
  EXPECT_NE(dot.find("server0"), std::string::npos);
  EXPECT_NE(dot.find("bottleneck"), std::string::npos);
  EXPECT_NE(dot.find("[sendbox b0]"), std::string::npos);
  EXPECT_NE(dot.find("[receivebox b0]"), std::string::npos);
  EXPECT_NE(dot.find("96 Mbit/s"), std::string::npos);
}

// --- Byte-identity: a hand-declared dumbbell must reproduce the Dumbbell
// preset exactly — same construction order, same routes, same simulation,
// byte-identical aggregate JSON on a fig09-style (shortened) workload. ---

runner::TrialResult RunFig09StyleTrial(Experiment& e) {
  e.Run();
  runner::TrialResult r;
  r.scalars["completed"] = static_cast<double>(e.fct()->completed());
  r.samples["fct_s"] = e.fct()->Fcts(e.MeasuredRequests()).samples();
  return r;
}

std::string SerializeTrial(const runner::TrialResult& result) {
  runner::ScenarioSpec spec;
  spec.name = "identity";
  spec.default_trials = 1;
  std::vector<runner::TrialPoint> plan = runner::ExpandTrials(spec, 1);
  return runner::ToJson(runner::Aggregate(spec, plan, {result}));
}

TEST(NetBuilderTest, HandDeclaredDumbbellByteIdenticalToPreset) {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true, /*seed=*/1);
  cfg.bundle_web_load = {Rate::Mbps(30)};
  cfg.duration = TimeDelta::Seconds(3);
  cfg.warmup = TimeDelta::Seconds(1);

  // Path A: the Dumbbell preset via Experiment.
  Simulator preset_sim;
  Experiment preset(&preset_sim, cfg);
  std::string json_preset = SerializeTrial(RunFig09StyleTrial(preset));

  // Path B: the same graph declared by hand on the builder, workload wired
  // the way Experiment wires it.
  NetBuilder b;
  NetBuilder::NodeId srv = b.AddSite("server0", BundleSrcSite(0));
  NetBuilder::NodeId cli = b.AddSite("client0", BundleDstSite(0));
  NetBuilder::NodeId xsrv = b.AddSite("cross_server", CrossSrcSite());
  NetBuilder::NodeId xcli = b.AddSite("cross_client", CrossDstSite());
  NetBuilder::NodeId bn_router = b.AddRouter("bottleneck_router");
  NetBuilder::NodeId dst_router = b.AddRouter("dst_router");
  NetBuilder::NodeId agg = b.AddRouter("reverse_agg");
  NetBuilder::NodeId rev_router = b.AddRouter("reverse_router");

  NetBuilder::LinkSpec edge;
  b.AddLink(srv, bn_router, edge, "edge0");
  b.AddLink(xsrv, bn_router, edge, "cross_edge");
  NetBuilder::LinkSpec bn;
  bn.rate = cfg.net.bottleneck_rate;
  bn.delay = cfg.net.rtt / 2;
  bn.buffer_bytes = static_cast<int64_t>(cfg.net.bottleneck_rate.BytesPerSecond() *
                                         cfg.net.rtt.ToSeconds() * 2.0);
  NetBuilder::EdgeId bottleneck = b.AddLink(bn_router, dst_router, bn, "bottleneck");
  b.AddWire(dst_router, cli);
  b.AddWire(dst_router, xcli);
  b.AddWire(cli, agg);
  b.AddWire(xcli, agg);
  NetBuilder::LinkSpec rev;
  rev.delay = cfg.net.rtt / 2;
  rev.buffer_bytes = 64 * 1024 * 1024;
  b.AddLink(agg, rev_router, rev, "reverse");
  b.AddWire(rev_router, srv);
  b.AddWire(rev_router, xsrv);

  NetBuilder::BundleSpec bundle;
  bundle.src_site = srv;
  bundle.dst_site = cli;
  bundle.ingress_edge = bottleneck;
  bundle.sendbox = cfg.net.sendbox;
  b.AddBundle(bundle);

  b.AddQueueMonitor(bottleneck);
  b.AddRateMeter(bottleneck, cfg.net.rate_meter_window, Dumbbell::BundleDataFilter(0));

  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wc;
  wc.offered_load = cfg.bundle_web_load[0];
  wc.host_cc = cfg.host_cc;
  PoissonWebWorkload web(&sim, net->flows(), net->host(srv), net->host(cli), &kCdf, wc,
                         cfg.seed, &fct);
  sim.RunUntil(TimePoint::Zero() + cfg.duration);

  RequestFilter measured;
  measured.min_start = TimePoint::Zero() + cfg.warmup;
  measured.max_start = TimePoint::Zero() + cfg.duration - TimeDelta::Seconds(2);
  runner::TrialResult hand;
  hand.scalars["completed"] = static_cast<double>(fct.completed());
  hand.samples["fct_s"] = fct.Fcts(measured).samples();

  EXPECT_GT(fct.completed(), 0u);
  EXPECT_EQ(SerializeTrial(hand), json_preset);
}

// --- Parking lot: per-hop queue monitors must see the bottleneck where it
// actually is. ---

TEST(NetBuilderTest, ParkingLotMonitorsSeeTheExpectedBottleneck) {
  // hop2 is four times narrower than hop1: a backlogged flow crossing both
  // must queue at hop2, not hop1.
  NetBuilder b;
  NetBuilder::NodeId srv = b.AddSite("srv", 10);
  NetBuilder::NodeId cli = b.AddSite("cli", 100);
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::NodeId r2 = b.AddRouter("r2");
  NetBuilder::NodeId r3 = b.AddRouter("r3");
  b.AddLink(srv, r1, {}, "srv_edge");
  NetBuilder::LinkSpec hop1_spec;
  hop1_spec.rate = Rate::Mbps(48);
  hop1_spec.delay = TimeDelta::Millis(5);
  hop1_spec.buffer_bytes = 600 * 1000;
  NetBuilder::EdgeId hop1 = b.AddLink(r1, r2, hop1_spec, "hop1");
  NetBuilder::LinkSpec hop2_spec;
  hop2_spec.rate = Rate::Mbps(12);
  hop2_spec.delay = TimeDelta::Millis(5);
  hop2_spec.buffer_bytes = 150 * 1000;
  NetBuilder::EdgeId hop2 = b.AddLink(r2, r3, hop2_spec, "hop2");
  b.AddWire(r3, cli);
  NetBuilder::LinkSpec rev;
  rev.delay = TimeDelta::Millis(5);
  b.AddLink(cli, r1, rev, "reverse");
  b.AddWire(r1, srv);

  NetBuilder::MonitorId hop1_mon = b.AddQueueMonitor(hop1);
  NetBuilder::MonitorId hop2_mon = b.AddQueueMonitor(hop2);

  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  StartBulkFlows(&sim, net->flows(), net->host(srv), net->host(cli), 1,
                 HostCcType::kCubic, TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));

  double hop1_delay = net->queue_monitor(hop1_mon)->delay_ms().MaxValue();
  double hop2_delay = net->queue_monitor(hop2_mon)->delay_ms().MaxValue();
  EXPECT_GT(net->link(hop2)->stats().bytes_sent, uint64_t{1000 * 1000});
  // The narrow hop owns the queue; the wide hop stays near-empty.
  EXPECT_GT(hop2_delay, 20.0);
  EXPECT_LT(hop1_delay, hop2_delay / 4);
}

// Multipath edges: monitors attach to every path; per-path accessors work.
TEST(NetBuilderTest, MultipathEdgeAccessorsAndMonitors) {
  DumbbellConfig cfg;
  cfg.num_paths = 3;
  Simulator sim;
  Dumbbell net(&sim, cfg);
  EXPECT_EQ(net.num_paths(), 3u);
  EXPECT_NE(net.path_link(2), nullptr);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 6, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(2));
  // The shared meter saw traffic on some path.
  EXPECT_GT(net.bundle_rate_meter()->total_bytes(), 0);
}

// Monitors filter what they observe by site pair and packet type.
TEST(LinkMonitorTest, PacketFilterSelectsSitePairData) {
  Simulator sim;
  int delivered = 0;
  LambdaHandler sink([&delivered](Packet) { ++delivered; });
  Link link(&sim, "mon", Rate::Mbps(8), TimeDelta::Zero(),
            std::make_unique<DropTailFifo>(1 << 20), &sink);
  RateMeter every(&sim, TimeDelta::Millis(10));
  RateMeter from1(&sim, TimeDelta::Millis(10), PacketFilter::DataFrom(1));
  RateMeter from1_to2(&sim, TimeDelta::Millis(10), PacketFilter::DataFrom(1, 2));
  QueueDelayMonitor delay_1_to_2(PacketFilter::DataFrom(1, 2));
  link.AddObserver(&every);
  link.AddObserver(&from1);
  link.AddObserver(&from1_to2);
  link.AddObserver(&delay_1_to_2);
  auto data = [](SiteId src, SiteId dst, uint32_t size) {
    FlowKey key;
    key.src = MakeAddress(src, 1);
    key.dst = MakeAddress(dst, 1);
    return MakeDataPacket(/*flow_id=*/1, key, /*seq=*/0, size);
  };
  link.HandlePacket(data(1, 2, 1000));
  link.HandlePacket(data(1, 3, 500));
  link.HandlePacket(data(3, 2, 300));
  // An ACK leaving site 1 for site 2: same sites as the data, wrong type.
  Packet reverse = data(2, 1, 1000);
  link.HandlePacket(MakeAckPacket(reverse, MakeAddress(1, 1), MakeAddress(2, 1)));
  sim.RunAll();

  EXPECT_EQ(every.total_bytes(), 1000 + 500 + 300 + kAckBytes);  // ACKs too
  EXPECT_EQ(from1.total_bytes(), 1000 + 500);  // no ACK, no site 3 source
  EXPECT_EQ(from1_to2.total_bytes(), 1000);    // no site 3 destination
  EXPECT_EQ(delay_1_to_2.delay_ms().size(), 1u);
  EXPECT_EQ(delivered, 4);  // filters select what monitors see, not what flows
}

}  // namespace
}  // namespace bundler
