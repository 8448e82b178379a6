// Tests for the sendbox (src/bundler/sendbox_manager.h +
// src/bundler/site_egress.h): admission control accepts/rejects in
// declaration order for both causes, a one-bundle site enforces, raises and
// drains its bundle's rate, the nested token buckets (site -> tenant cap ->
// bundle) never over-send versus an independent reference model, DRR shares
// out bandwidth by weight within and across priority bands, a bundle's own
// qdisc publishes qdisc.sendbox.* counters, and one tenant's feedback
// blackout degrades only that tenant's watchdog while its neighbors keep
// shaping.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/bundler/sendbox_manager.h"
#include "src/bundler/site_egress.h"
#include "src/qdisc/fifo.h"
#include "src/topo/net_builder.h"

namespace bundler {
namespace {

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

struct Sink : PacketHandler {
  std::vector<Packet> pkts;
  void HandlePacket(Packet pkt) override { pkts.push_back(std::move(pkt)); }
};

// A managed bundle's control config as NetBuilder would fill it in.
BundleControlConfig ControlFor(SiteId local, SiteId remote) {
  BundleControlConfig c;
  c.local_site = local;
  c.remote_site = remote;
  c.ctl_addr = MakeAddress(local, kBundlerCtlHost);
  c.receivebox_ctl_addr = MakeAddress(remote, kBundlerCtlHost);
  return c;
}

SendboxManager::BundleDecl Decl(size_t tenant, SiteId remote) {
  SendboxManager::BundleDecl d;
  d.tenant = tenant;
  d.control = ControlFor(/*local=*/1, remote);
  return d;
}

// --- Admission control ---

TEST(SendboxManagerTest, AdmitsUpToBundleCapThenRejects) {
  Simulator sim;
  Sink sink;
  SendboxManager::Policy policy;
  policy.max_bundles = 2;
  std::vector<SendboxManager::TenantPolicy> tenants(1);
  tenants[0].name = "t";
  std::vector<SendboxManager::BundleDecl> decls = {Decl(0, 10), Decl(0, 11),
                                                   Decl(0, 12)};
  SendboxManager mgr(&sim, policy, tenants, decls, /*local_site=*/1,
                     MakeAddress(1, kBundlerCtlHost), &sink, "mgr");

  EXPECT_TRUE(mgr.admitted(0));
  EXPECT_TRUE(mgr.admitted(1));
  EXPECT_FALSE(mgr.admitted(2));
  EXPECT_EQ(mgr.reject_cause(2), SendboxManager::RejectCause::kBundleCap);
  EXPECT_EQ(mgr.admitted_count(), 2u);
  EXPECT_EQ(mgr.rejected_count(), 1u);
  EXPECT_NE(mgr.controller(0), nullptr);
  EXPECT_EQ(mgr.controller(2), nullptr);
  // The admission verdict is also visible through the counters registry.
  EXPECT_EQ(*sim.counters().Counter("admit.mgr.admitted"), 2u);
  EXPECT_EQ(*sim.counters().Counter("admit.mgr.rejected_cap"), 1u);
  EXPECT_EQ(*sim.counters().Counter("admit.mgr.rejected_budget"), 0u);
}

TEST(SendboxManagerTest, RejectsWhenCommittedRatesExceedBudget) {
  Simulator sim;
  Sink sink;
  SendboxManager::Policy policy;
  policy.aggregate_rate = Rate::Mbps(100);
  policy.admission_budget = Rate::Mbps(10);
  std::vector<SendboxManager::TenantPolicy> tenants(1);
  tenants[0].name = "t";
  tenants[0].committed_rate = Rate::Mbps(4);
  // 4 + 4 fits the 10 Mbit/s budget; the third bundle would commit 12.
  std::vector<SendboxManager::BundleDecl> decls = {Decl(0, 10), Decl(0, 11),
                                                   Decl(0, 12)};
  SendboxManager mgr(&sim, policy, tenants, decls, 1,
                     MakeAddress(1, kBundlerCtlHost), &sink, "mgr");

  EXPECT_TRUE(mgr.admitted(0));
  EXPECT_TRUE(mgr.admitted(1));
  EXPECT_FALSE(mgr.admitted(2));
  EXPECT_EQ(mgr.reject_cause(2), SendboxManager::RejectCause::kRateBudget);
  EXPECT_EQ(*sim.counters().Counter("admit.mgr.rejected_budget"), 1u);
}

TEST(SendboxManagerTest, AdmitsExactlyFullBudget) {
  // An exact fit must not be rejected to floating-point noise.
  Simulator sim;
  Sink sink;
  SendboxManager::Policy policy;
  policy.admission_budget = Rate::Mbps(12);
  std::vector<SendboxManager::TenantPolicy> tenants(1);
  tenants[0].name = "t";
  tenants[0].committed_rate = Rate::Mbps(4);
  std::vector<SendboxManager::BundleDecl> decls = {Decl(0, 10), Decl(0, 11),
                                                   Decl(0, 12)};
  SendboxManager mgr(&sim, policy, tenants, decls, 1,
                     MakeAddress(1, kBundlerCtlHost), &sink, "mgr");
  EXPECT_EQ(mgr.admitted_count(), 3u);
  EXPECT_EQ(mgr.rejected_count(), 0u);
}

TEST(SendboxManagerTest, RejectedBundlePassesThroughUnshaped) {
  Simulator sim;
  Sink sink;
  SendboxManager::Policy policy;
  policy.max_bundles = 1;  // second declaration rejected (cap)
  std::vector<SendboxManager::TenantPolicy> tenants(1);
  tenants[0].name = "t";
  std::vector<SendboxManager::BundleDecl> decls = {Decl(0, 10), Decl(0, 11)};
  SendboxManager mgr(&sim, policy, tenants, decls, 1,
                     MakeAddress(1, kBundlerCtlHost), &sink, "mgr");
  ASSERT_FALSE(mgr.admitted(1));

  auto send = [&](SiteId dst, int n) {
    for (int i = 0; i < n; ++i) {
      Packet pkt;
      pkt.type = PacketType::kData;
      pkt.key.src = MakeAddress(1, kSiteHost);
      pkt.key.dst = MakeAddress(dst, kSiteHost);
      pkt.size_bytes = kMtuBytes;
      mgr.HandlePacket(std::move(pkt));
    }
  };
  // Rejected bundle: status quo ante — every packet exits immediately.
  send(11, 10);
  EXPECT_EQ(sink.pkts.size(), 10u);
  // Admitted bundle: the hierarchy shapes, so a burst beyond the token
  // allowance stays queued at the site.
  sink.pkts.clear();
  send(10, 10);
  EXPECT_LT(sink.pkts.size(), 10u);
  EXPECT_GT(mgr.bundle_queue_bytes(0), 0);

  // A rejected bundle's receivebox still emits feedback; the manager must
  // drop (and count) it rather than misroute it to a live controller.
  Packet fb;
  fb.type = PacketType::kBundlerFeedback;
  fb.key.src = MakeAddress(11, kBundlerCtlHost);
  fb.key.dst = MakeAddress(1, kBundlerCtlHost);
  fb.size_bytes = 40;
  size_t before = sink.pkts.size();
  mgr.HandlePacket(std::move(fb));
  EXPECT_EQ(sink.pkts.size(), before);
  EXPECT_EQ(*sim.counters().Counter("admit.mgr.orphan_feedback_pkts"), 1u);
}

// --- One tenant, one bundle: the sendbox of every paper figure ---

// A one-tenant, one-bundle hierarchy behind an uncontended 1 Gbit/s site
// bucket, queueing through a drop-tail FIFO: the bundle bucket alone paces.
struct OneBundleEgress {
  Simulator sim;
  int64_t out_pkts = 0;
  int64_t out_bytes = 0;
  std::unique_ptr<SiteEgress> egress;

  explicit OneBundleEgress(Rate rate) {
    SiteEgress::Config config;
    config.bundle_qdisc_factory = [] {
      return std::make_unique<DropTailFifo>(1 << 24);
    };
    std::vector<SiteEgress::TenantSpec> tenants = {{"t", 1, 1.0, Rate::Zero()}};
    std::vector<SiteEgress::BundleSpec> bundles = {{0, 1.0, rate}};
    egress = std::make_unique<SiteEgress>(
        &sim, config, tenants, bundles,
        [this](size_t, Packet pkt) {
          ++out_pkts;
          out_bytes += pkt.size_bytes;
        },
        "one");
  }

  void Offer(int n) {
    for (int i = 0; i < n; ++i) {
      Packet pkt;
      pkt.type = PacketType::kData;
      pkt.size_bytes = kMtuBytes;
      egress->Enqueue(0, std::move(pkt));
    }
  }
};

TEST(SiteEgressTest, OneBundleEnforcesRate) {
  OneBundleEgress e(Rate::Mbps(12));
  e.Offer(1000);
  e.sim.RunUntil(Sec(1.0));
  // 12 Mbit/s = 1.5 MB/s (plus the initial burst allowance).
  EXPECT_NEAR(static_cast<double>(e.out_bytes), 1.5e6, 0.05e6);
}

TEST(SiteEgressTest, OneBundleRateIncreaseTakesEffectImmediately) {
  OneBundleEgress e(Rate::Kbps(100));
  e.Offer(200);
  e.sim.RunUntil(Sec(0.1));
  const int64_t slow_pkts = e.out_pkts;
  e.egress->SetBundleRate(0, Rate::Mbps(96));
  e.sim.RunUntil(Sec(0.15));
  // At 96 Mbit/s the remaining ~198 packets drain in < 25 ms.
  EXPECT_EQ(e.out_pkts, 200);
  EXPECT_LT(slow_pkts, 10);
}

TEST(SiteEgressTest, OneBundleDrainsCompletely) {
  OneBundleEgress e(Rate::Mbps(96));
  e.Offer(50);
  e.sim.RunUntil(Sec(1.0));
  EXPECT_EQ(e.out_pkts, 50);
  EXPECT_TRUE(e.egress->bundle_qdisc(0)->Empty());
  EXPECT_EQ(e.egress->total_backlog_pkts(), 0);
}

// --- Per-bundle qdisc observability ---

TEST(SendboxManagerTest, BundleQdiscPublishesSendboxCounters) {
  // Every bundle with its own qdisc shows up under the sendbox qdisc names
  // (qdisc.sendbox.<local>-<remote>.*); FIFO bundles publish none.
  Simulator sim;
  Sink sink;
  SendboxManager::Policy policy;
  policy.bundle_qdisc_factory = [] {
    return std::make_unique<DropTailFifo>(4 * kMtuBytes);
  };
  std::vector<SendboxManager::TenantPolicy> tenants(1);
  tenants[0].name = "t";
  SendboxManager mgr(&sim, policy, tenants, {Decl(0, 10)}, 1,
                     MakeAddress(1, kBundlerCtlHost), &sink, "mgr");
  // A burst past the token allowance: 2 leave at once, 4 queue, 4 drop.
  for (int i = 0; i < 10; ++i) {
    Packet pkt;
    pkt.type = PacketType::kData;
    pkt.key.src = MakeAddress(1, kSiteHost);
    pkt.key.dst = MakeAddress(10, kSiteHost);
    pkt.size_bytes = kMtuBytes;
    mgr.HandlePacket(std::move(pkt));
  }
  std::map<std::string, double> ctr;
  sim.counters().DumpTo(&ctr, "");
  EXPECT_EQ(ctr.at("qdisc.sendbox.s1-s10.enq_pkts"), 6.0);
  EXPECT_EQ(ctr.at("qdisc.sendbox.s1-s10.deq_pkts"), 2.0);
  EXPECT_EQ(ctr.at("qdisc.sendbox.s1-s10.drop_pkts"), 4.0);
  EXPECT_EQ(ctr.at("qdisc.sendbox.s1-s10.mark_pkts"), 0.0);
  EXPECT_EQ(sink.pkts.size(), 2u);

  Simulator ring_sim;
  SendboxManager ring(&ring_sim, SendboxManager::Policy(), tenants,
                      {Decl(0, 10)}, 1, MakeAddress(1, kBundlerCtlHost), &sink,
                      "mgr");
  std::map<std::string, double> ring_ctr;
  ring_sim.counters().DumpTo(&ring_ctr, "");
  for (const auto& [name, v] : ring_ctr) {
    EXPECT_NE(name.rfind("qdisc.", 0), 0u) << name;
  }
}

// --- Nested-bucket conformance ---

// Replays the egress schedule against an independent token-bucket model
// (continuous refill, capped at burst, initial tokens = burst: the same
// contract qdisc/token_bucket.h implements) and fails if any send overdrew
// any level of the hierarchy.
struct RefBucket {
  double rate_bps;
  double burst;
  double tokens;
  double last_s = 0.0;

  RefBucket(Rate r, int64_t b)
      : rate_bps(r.bps()), burst(static_cast<double>(b)),
        tokens(static_cast<double>(b)) {}

  // Returns false if `bytes` exceeds the refilled token count at `at_s`.
  bool Take(double at_s, int64_t bytes, double slack) {
    tokens = std::min(burst, tokens + rate_bps / 8.0 * (at_s - last_s));
    last_s = at_s;
    if (static_cast<double>(bytes) > tokens + slack) {
      return false;
    }
    tokens -= static_cast<double>(bytes);
    return true;
  }
};

TEST(SiteEgressTest, NestedBucketsConformToReferenceModel) {
  Simulator sim;
  SiteEgress::Config config;
  config.aggregate_rate = Rate::Mbps(50);
  config.per_bundle_queue_pkts = 4096;
  // T0: capped below its bundle's rate, so the tenant cap is the binding
  // constraint; T1: uncapped, its bundles bound by bundle rate and the site.
  std::vector<SiteEgress::TenantSpec> tenants = {
      {"t0", /*priority=*/0, /*weight=*/1.0, Rate::Mbps(20)},
      {"t1", /*priority=*/1, /*weight=*/1.0, Rate::Zero()},
  };
  std::vector<SiteEgress::BundleSpec> bundles = {
      {0, 1.0, Rate::Mbps(30)},
      {1, 1.0, Rate::Mbps(8)},
      {1, 1.0, Rate::Mbps(50)},
  };
  struct Send {
    double at_s;
    size_t bundle;
    int64_t bytes;
  };
  std::vector<Send> sends;
  SiteEgress egress(
      &sim, config, tenants, bundles,
      [&sends, &sim](size_t b, Packet pkt) {
        sends.push_back({(sim.now() - TimePoint::Zero()).ToSeconds(), b,
                         static_cast<int64_t>(pkt.size_bytes)});
      },
      "conform");

  auto offer = [&](size_t bundle, int n) {
    for (int i = 0; i < n; ++i) {
      Packet pkt;
      pkt.type = PacketType::kData;
      pkt.size_bytes = kMtuBytes;
      egress.Enqueue(bundle, std::move(pkt));
    }
  };
  offer(0, 2000);
  offer(1, 2000);
  offer(2, 3000);
  sim.RunUntil(Sec(1.0));

  // Replay: per-bundle buckets, the tenant-0 cap, and the site aggregate.
  std::vector<RefBucket> bundle_ref = {
      {Rate::Mbps(30), config.burst_bytes},
      {Rate::Mbps(8), config.burst_bytes},
      {Rate::Mbps(50), config.burst_bytes},
  };
  RefBucket t0_cap(Rate::Mbps(20), config.burst_bytes);
  RefBucket site(Rate::Mbps(50), config.burst_bytes);
  const double kSlack = 64.0;  // double-vs-double rounding across refills
  std::vector<int64_t> sent_bytes(3, 0);
  for (const Send& s : sends) {
    EXPECT_TRUE(site.Take(s.at_s, s.bytes, kSlack)) << "site @" << s.at_s;
    if (s.bundle == 0) {
      EXPECT_TRUE(t0_cap.Take(s.at_s, s.bytes, kSlack)) << "cap @" << s.at_s;
    }
    EXPECT_TRUE(bundle_ref[s.bundle].Take(s.at_s, s.bytes, kSlack))
        << "bundle " << s.bundle << " @" << s.at_s;
    sent_bytes[s.bundle] += s.bytes;
  }
  // Work conservation: every level runs at its binding constraint.
  // b0 = 20 Mbit/s (tenant cap), b1 = 8 Mbit/s (bundle rate), b2 = the
  // site residual 22 Mbit/s; 5% tolerance for startup transients.
  EXPECT_NEAR(static_cast<double>(sent_bytes[0]), 20e6 / 8, 0.05 * 20e6 / 8);
  EXPECT_NEAR(static_cast<double>(sent_bytes[1]), 8e6 / 8, 0.05 * 8e6 / 8);
  EXPECT_NEAR(static_cast<double>(sent_bytes[2]), 22e6 / 8, 0.05 * 22e6 / 8);
}

// --- DRR fairness under mixed priorities ---

TEST(SiteEgressTest, DrrSharesByWeightAcrossAndWithinTenants) {
  Simulator sim;
  SiteEgress::Config config;
  config.aggregate_rate = Rate::Mbps(50);
  config.per_bundle_queue_pkts = 4096;
  // A capped high-priority tenant (it gets exactly its cap, strictly first)
  // over two best-effort tenants splitting the residual 1:3; tenant t2's
  // two bundles split its share 1:2 by class weight.
  std::vector<SiteEgress::TenantSpec> tenants = {
      {"t0", 0, 1.0, Rate::Mbps(10)},
      {"t1", 1, 1.0, Rate::Zero()},
      {"t2", 1, 3.0, Rate::Zero()},
  };
  const Rate unconstrained = Rate::Mbps(100);
  std::vector<SiteEgress::BundleSpec> bundles = {
      {0, 1.0, unconstrained},
      {1, 1.0, unconstrained},
      {2, 1.0, unconstrained},
      {2, 2.0, unconstrained},
  };
  std::vector<int64_t> sent(4, 0);
  SiteEgress egress(
      &sim, config, tenants, bundles,
      [&sent](size_t b, Packet pkt) {
        sent[b] += static_cast<int64_t>(pkt.size_bytes);
      },
      "drr");
  for (size_t b = 0; b < 4; ++b) {
    for (int i = 0; i < 3000; ++i) {
      Packet pkt;
      pkt.type = PacketType::kData;
      pkt.size_bytes = kMtuBytes;
      egress.Enqueue(b, std::move(pkt));
    }
  }
  sim.RunUntil(Sec(1.0));

  const double mb = 1e6 / 8;  // bytes per second per Mbit/s
  EXPECT_NEAR(static_cast<double>(sent[0]), 10 * mb, 0.05 * 10 * mb);
  EXPECT_NEAR(static_cast<double>(sent[1]), 10 * mb, 0.05 * 10 * mb);
  EXPECT_NEAR(static_cast<double>(sent[2] + sent[3]), 30 * mb, 0.05 * 30 * mb);
  // Intra-tenant class weights: bundle 3 carries twice bundle 2.
  EXPECT_NEAR(static_cast<double>(sent[3]) / static_cast<double>(sent[2]), 2.0,
              0.2);
  // Tenant accounting agrees with the per-bundle observation.
  EXPECT_EQ(egress.tenant_tx_bytes(2),
            static_cast<uint64_t>(sent[2] + sent[3]));
}

// --- Watchdog independence across tenants ---

TEST(SendboxManagerTest, FeedbackBlackoutDegradesOnlyTheAffectedTenant) {
  // Two tenants' bundles share one managed site; a feedback-only blackout on
  // tenant b's reverse path must degrade b's watchdog while tenant a keeps
  // its live control loop (rate well below the wide-open degraded rate).
  Simulator sim;
  NetBuilder b;
  auto edge = b.AddSite("edge", 1);
  auto core = b.AddRouter("core");
  auto d0 = b.AddSite("d0", 10);
  auto d1 = b.AddSite("d1", 11);

  NetBuilder::LinkSpec up;
  up.rate = Rate::Mbps(100);
  up.delay = TimeDelta::Millis(5);
  auto uplink = b.AddLink(edge, core, up, "uplink");
  (void)uplink;
  NetBuilder::LinkSpec last;
  last.rate = Rate::Mbps(100);
  last.delay = TimeDelta::Millis(5);
  auto last0 = b.AddLink(core, d0, last, "last0");
  auto last1 = b.AddLink(core, d1, last, "last1");
  auto agg = b.AddRouter("agg");
  NetBuilder::LinkSpec rev;
  rev.rate = Rate::Gbps(1);
  rev.delay = TimeDelta::Millis(5);
  auto rev0 = b.AddLink(d0, agg, rev, "rev0");
  auto rev1 = b.AddLink(d1, agg, rev, "rev1");
  auto rev_agg = b.AddLink(agg, edge, rev, "rev_agg");
  (void)rev0;
  (void)rev_agg;

  SendboxManager::Policy policy;
  policy.aggregate_rate = Rate::Mbps(50);
  b.SetSiteEgressPolicy(edge, policy);
  SendboxManager::TenantPolicy ta;
  ta.name = "a";
  SendboxManager::TenantPolicy tb;
  tb.name = "b";
  b.AddTenant(edge, ta);
  b.AddTenant(edge, tb);

  NetBuilder::BundleSpec spec;
  spec.src_site = edge;
  spec.ingress_edge = last0;
  spec.dst_site = d0;
  spec.sendbox.watchdog = true;
  spec.sendbox.warm_restart = true;
  spec.tenant = "a";
  auto bundle_a = b.AddBundle(spec);
  spec.ingress_edge = last1;
  spec.dst_site = d1;
  spec.tenant = "b";
  auto bundle_b = b.AddBundle(spec);

  FaultProfileSpec fault;
  fault.target = FaultTarget::kFeedbackOnly;
  fault.blackouts = {{TimeDelta::SecondsF(5.0), TimeDelta::SecondsF(30.0)}};
  b.AddFaultProfile(rev1, fault);

  auto net = b.Build(&sim);
  ASSERT_TRUE(net->bundle_admitted(bundle_a));
  ASSERT_TRUE(net->bundle_admitted(bundle_b));
  StartBulkFlows(&sim, net->flows(), net->host_at_site(1),
                 net->host_at_site(10), 2, HostCcType::kCubic,
                 TimePoint::Zero());
  StartBulkFlows(&sim, net->flows(), net->host_at_site(1),
                 net->host_at_site(11), 2, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(Sec(10.0));

  BundleController* ca = net->bundle_controller(bundle_a);
  BundleController* cb = net->bundle_controller(bundle_b);
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  // Tenant b: degraded (shaper opened to max_rate) since ~5.5 s.
  EXPECT_TRUE(cb->watchdog_degraded());
  ASSERT_FALSE(cb->watchdog_log().empty());
  const double t =
      (cb->watchdog_log().front().first - TimePoint::Zero()).ToSeconds();
  EXPECT_GE(t, 5.5);
  EXPECT_LE(t, 6.0);
  // Tenant a: untouched — no watchdog events, still shaping live (its rate
  // tracks its bottleneck share, far below the wide-open degraded rate).
  EXPECT_FALSE(ca->watchdog_degraded());
  EXPECT_TRUE(ca->watchdog_log().empty());
  SendboxManager* mgr = net->manager(edge);
  EXPECT_LT(mgr->bundle_rate(0).bps(),
            spec.sendbox.max_rate.bps() / 2);
  EXPECT_EQ(mgr->bundle_rate(1), spec.sendbox.max_rate);
}

}  // namespace
}  // namespace bundler
