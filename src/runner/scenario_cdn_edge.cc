// cdn_edge_flash_crowd: the multi-tenant control plane at scale — one CDN
// edge site originating 208 managed bundles (52 tenants x 4 service classes)
// through a single SendboxManager, against the same workload with no bundler
// at all ("status_quo").
//
//   edge -> uplink (250 Mbit/s physical, 200 Mbit/s shaped) -> core
//   core -> last-hop link -> dst_k   (one destination site per bundle;
//                                     the receivebox rides the last hop)
//   dst_k -> reverse_agg -> edge     (shared fat reverse path)
//
// Admission: every bundle commits 0.9 Mbit/s against a 180 Mbit/s budget, so
// declaration order admits exactly 200 bundles and rejects the last 8 (the
// two final tenants) with admit.s1.rejected_budget verdicts; the rejected
// tenants' traffic still flows, unshaped, and their receiveboxes' feedback is
// dropped and counted (admit.s1.orphan_feedback_pkts).
//
// Workload: per-bundle request flows with heavy-tailed per-class sizes
// (a 10x tail on a per-class base, classes weighted 4/2/1/0.5). Tenant 0 is
// a whale (~8x a victim tenant's load) and suffers a 10x flash crowd during
// [3 s, 5 s); every other tenant's arrivals are unchanged. The scenario
// scores per-tenant isolation: max over admitted victim tenants of
// p50(flash window) / p50(base window). Managed, the hierarchy confines the
// crowd to tenant 0's own queues (ratio stays ~1); status quo, the flash
// overloads the shared FIFO uplink and every tenant's FCT inflates.
//
// All flows are created up front with deferred starts and the run is
// single-simulator, so output is byte-identical for any --threads value.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/runner/builtin_scenarios.h"
#include "src/transport/tcp_flow.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

constexpr int kNumTenants = 52;
constexpr int kClassesPerTenant = 4;
constexpr int kNumBundles = kNumTenants * kClassesPerTenant;  // 208 declared
constexpr int kAdmittedBundles = 200;                         // 180 / 0.9

constexpr SiteId kEdgeSite = 1;
constexpr SiteId kFirstDstSite = 10;

constexpr auto kUplinkRate = Rate::Mbps(250);     // physical
constexpr auto kAggregateRate = Rate::Mbps(200);  // shaped site egress
constexpr auto kAdmissionBudget = Rate::Mbps(180);
constexpr auto kCommittedRate = Rate::Mbps(0.9);  // per declared bundle
constexpr auto kUplinkDelay = TimeDelta::Millis(5);
constexpr auto kLastHopDelay = TimeDelta::Millis(5);
constexpr auto kReverseDelay = TimeDelta::Millis(10);  // base RTT: 20 ms

// Arrival periods per bundle. Tenant 0 is the whale; the flash crowd divides
// its period by another 10 during the flash window.
constexpr auto kVictimPeriod = TimeDelta::Millis(125);
constexpr auto kWhalePeriod = TimeDelta::Micros(15625);
constexpr int kFlashMultiplier = 10;

constexpr auto kBaseWindowStart = TimeDelta::Seconds(1);
constexpr auto kFlashWindowStart = TimeDelta::Seconds(3);
constexpr auto kFlashWindowEnd = TimeDelta::Seconds(5);
constexpr auto kArrivalsUntil = TimeDelta::Millis(5500);
constexpr auto kRunUntil = TimeDelta::Millis(6500);

// Per-class request-size bases (bytes); a 1-in-10 draw is 10x the base, so
// the mean is 1.9x the base — heavy-tailed without an unbounded tail.
constexpr int64_t kClassBaseBytes[kClassesPerTenant] = {1000, 2000, 4000,
                                                        10000};
constexpr double kClassWeight[kClassesPerTenant] = {4.0, 2.0, 1.0, 0.5};

struct CdnEdgeGraph {
  NetBuilder::NodeId edge = -1;
  NetBuilder::NodeId dst[kNumBundles];
  NetBuilder::EdgeId uplink = -1;
};

NetBuilder CdnEdgeBuilder(bool managed, CdnEdgeGraph* graph) {
  NetBuilder b;
  CdnEdgeGraph g;
  g.edge = b.AddSite("edge", kEdgeSite);
  NetBuilder::NodeId core = b.AddRouter("core");
  NetBuilder::NodeId agg = b.AddRouter("reverse_agg");

  NetBuilder::LinkSpec uplink;
  uplink.rate = kUplinkRate;
  uplink.delay = kUplinkDelay;
  // ~2x the 250 Mbit/s x 20 ms RTT BDP: enough to absorb the shaped
  // aggregate's bursts, small enough that FIFO overload visibly queues.
  uplink.buffer_bytes = 1250 * 1000;
  g.uplink = b.AddLink(g.edge, core, uplink, "uplink");

  NetBuilder::LinkSpec last_hop;  // uncontended
  last_hop.delay = kLastHopDelay;
  std::vector<NetBuilder::EdgeId> ingress(kNumBundles, -1);
  for (int i = 0; i < kNumBundles; ++i) {
    g.dst[i] = b.AddSite("dst" + std::to_string(i),
                         static_cast<SiteId>(kFirstDstSite + i));
    ingress[static_cast<size_t>(i)] =
        b.AddLink(core, g.dst[i], last_hop, "last_hop" + std::to_string(i));
    b.AddWire(g.dst[i], agg);
  }

  NetBuilder::LinkSpec reverse;  // shared fat reverse path (ACKs + feedback)
  reverse.delay = kReverseDelay;
  reverse.buffer_bytes = 64 * 1024 * 1024;
  b.AddLink(agg, g.edge, reverse, "reverse");

  if (managed) {
    SendboxManager::Policy policy;
    policy.aggregate_rate = kAggregateRate;
    policy.admission_budget = kAdmissionBudget;
    policy.max_bundles = 256;
    b.SetSiteEgressPolicy(g.edge, policy);
    for (int t = 0; t < kNumTenants; ++t) {
      SendboxManager::TenantPolicy tenant;
      tenant.name = "tenant" + std::to_string(t);
      // A small premium band exercises strict priorities; its aggregate
      // demand (~16 Mbit/s) is far below the uplink, so it cannot starve
      // band 1.
      tenant.priority = (t >= 1 && t <= 8) ? 0 : 1;
      tenant.committed_rate = kCommittedRate;
      b.AddTenant(g.edge, tenant);
    }
    for (int i = 0; i < kNumBundles; ++i) {
      NetBuilder::BundleSpec bundle;
      bundle.src_site = g.edge;
      bundle.dst_site = g.dst[i];
      bundle.ingress_edge = ingress[static_cast<size_t>(i)];
      bundle.tenant = "tenant" + std::to_string(i / kClassesPerTenant);
      bundle.class_weight = kClassWeight[i % kClassesPerTenant];
      b.AddBundle(bundle);
    }
  }

  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

// Windowed per-tenant FCT accounting: base = [1 s, 3 s), flash = [3 s, 5 s),
// keyed by the flow's start time. Each bucket also points at the trial-wide
// sinks, so a flow's completion callback captures only its bucket and start.
struct TenantFcts {
  QuantileEstimator base;
  QuantileEstimator flash;
  QuantileEstimator* agg = nullptr;
  uint64_t* completed = nullptr;
};

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  const bool managed = point.variant == "managed";
  BUNDLER_CHECK_MSG(managed || point.variant == "status_quo",
                    "unknown cdn_edge_flash_crowd variant '%s'",
                    point.variant.c_str());

  CdnEdgeGraph g;
  NetBuilder b = CdnEdgeBuilder(managed, &g);

  std::unique_ptr<Net> net = b.Build(sim);

  // Seeded splitmix-style stream for arrival jitter and size tails. The
  // stream is consumed identically in both variants, so managed and
  // status_quo face the exact same request sequence.
  uint64_t rng = point.seed * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL;
  auto draw = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };

  QuantileEstimator agg_fct;
  uint64_t flows_created = 0, flows_completed = 0;
  std::vector<TenantFcts> per_tenant(kNumTenants);
  for (TenantFcts& f : per_tenant) {
    f.agg = &agg_fct;
    f.completed = &flows_completed;
  }

  const TimePoint zero = TimePoint::Zero();
  Host* src = net->host(g.edge);
  for (int i = 0; i < kNumBundles; ++i) {
    const int tenant = i / kClassesPerTenant;
    const int klass = i % kClassesPerTenant;
    Host* dst = net->host(g.dst[i]);
    const TimeDelta period = tenant == 0 ? kWhalePeriod : kVictimPeriod;
    // Stagger bundle start phases across one period.
    TimePoint cursor =
        zero + TimeDelta::Nanos(static_cast<int64_t>(
                   draw() % static_cast<uint64_t>(period.nanos())));
    while (cursor < zero + kArrivalsUntil) {
      const bool flash = tenant == 0 && cursor >= zero + kFlashWindowStart &&
                         cursor < zero + kFlashWindowEnd;
      // Heavy tail: 1 in 10 requests is 10x the class base, and every size
      // gets +/-15% jitter.
      int64_t size = kClassBaseBytes[klass];
      if (draw() % 10 == 0) {
        size *= 10;
      }
      size += static_cast<int64_t>(draw() % 600) * size / 2000 - size * 3 / 20;

      TcpFlowParams params;
      params.size_bytes = size;
      params.request_start = cursor;
      TenantFcts* bucket = &per_tenant[static_cast<size_t>(tenant)];
      const TimePoint start = cursor;
      TcpSender* sender = CreateTcpFlow(
          net->flows(), src, dst, params,
          [bucket, start](TimePoint end) {
            const TimePoint origin = TimePoint::Zero();
            const double ms = (end - start).ToMillis();
            ++*bucket->completed;
            if (start >= origin + kBaseWindowStart &&
                start < origin + kFlashWindowStart) {
              bucket->base.Add(ms);
              bucket->agg->Add(ms);
            } else if (start < origin + kFlashWindowEnd) {
              bucket->flash.Add(ms);
              bucket->agg->Add(ms);
            }
          });
      src->sim()->ScheduleAt(start, [sender]() { sender->Start(); });
      ++flows_created;

      const TimeDelta step = flash ? period / kFlashMultiplier : period;
      // +/-15% arrival jitter keeps waves from locking step.
      cursor = cursor + TimeDelta::Nanos(step.nanos() *
                                         (850 + static_cast<int64_t>(
                                                    draw() % 300)) /
                                         1000);
    }
  }

  sim->RunUntil(zero + kRunUntil);

  TrialResult r;
  // Isolation: worst flash/base p50 inflation over admitted victim tenants
  // (1..49; tenants 50 and 51 hold the 8 budget-rejected bundles).
  const int first_rejected_tenant = kAdmittedBundles / kClassesPerTenant;
  double iso_max = 0.0;
  QuantileEstimator victim_base, victim_flash, rejected_base, rejected_flash;
  for (int t = 1; t < kNumTenants; ++t) {
    const TenantFcts& f = per_tenant[static_cast<size_t>(t)];
    QuantileEstimator* base_pool =
        t < first_rejected_tenant ? &victim_base : &rejected_base;
    QuantileEstimator* flash_pool =
        t < first_rejected_tenant ? &victim_flash : &rejected_flash;
    for (double v : f.base.samples()) {
      base_pool->Add(v);
    }
    for (double v : f.flash.samples()) {
      flash_pool->Add(v);
    }
    if (t < first_rejected_tenant && !f.base.empty() && !f.flash.empty()) {
      iso_max = std::max(iso_max, f.flash.Median() / f.base.Median());
    }
  }
  r.samples["agg_fct_ms"] = agg_fct.samples();
  r.scalars["victim_iso_p50_ratio_max"] = iso_max;
  r.scalars["victim_fct_ms_p50_base"] =
      victim_base.empty() ? 0.0 : victim_base.Median();
  r.scalars["victim_fct_ms_p50_flash"] =
      victim_flash.empty() ? 0.0 : victim_flash.Median();
  r.scalars["victim_fct_ms_p99_flash"] =
      victim_flash.empty() ? 0.0 : victim_flash.Quantile(0.99);
  r.scalars["rejected_fct_ms_p50_flash"] =
      rejected_flash.empty() ? 0.0 : rejected_flash.Median();
  r.scalars["tenant0_fct_ms_p50_base"] =
      per_tenant[0].base.empty() ? 0.0 : per_tenant[0].base.Median();
  r.scalars["tenant0_fct_ms_p50_flash"] =
      per_tenant[0].flash.empty() ? 0.0 : per_tenant[0].flash.Median();
  r.scalars["agg_fct_ms_p50"] = agg_fct.empty() ? 0.0 : agg_fct.Median();
  r.scalars["agg_fct_ms_p99"] = agg_fct.empty() ? 0.0 : agg_fct.Quantile(0.99);
  r.scalars["flows_created"] = static_cast<double>(flows_created);
  r.scalars["flows_completed"] = static_cast<double>(flows_completed);
  if (managed) {
    SendboxManager* mgr = net->manager(g.edge);
    r.scalars["admitted"] = static_cast<double>(mgr->admitted_count());
    r.scalars["rejected"] = static_cast<double>(mgr->rejected_count());
    BUNDLER_CHECK(mgr->admitted_count() == kAdmittedBundles);
    BUNDLER_CHECK(mgr->rejected_count() == kNumBundles - kAdmittedBundles);
  } else {
    r.scalars["admitted"] = 0.0;
    r.scalars["rejected"] = 0.0;
  }
  return r;
}

}  // namespace

void RegisterCdnEdgeFlashCrowd(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "cdn_edge_flash_crowd";
  spec.summary =
      "208 tenant bundles (52 tenants x 4 classes) through one SendboxManager "
      "at a CDN edge; 200 admitted / 8 budget-rejected; a 10x flash crowd on "
      "tenant 0 must not inflate any admitted victim tenant's FCT p50";
  spec.variants = {"status_quo", "managed"};
  spec.default_trials = 2;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(CdnEdgeBuilder(/*managed=*/true, nullptr),
                             "cdn_edge_flash_crowd");
  });
}

}  // namespace runner
}  // namespace bundler
