#include "src/topo/internet.h"

#include <algorithm>
#include <memory>

#include "src/app/workload.h"
#include "src/transport/udp_pingpong.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace bundler {

namespace {
constexpr SiteId kHubSite = 10;
constexpr SiteId kRegionSite = 100;
// The §8 workload: closed-loop UDP request/response pairs, plus backlogged
// flows outside Base mode.
constexpr int kPingPongPairs = 10;
constexpr int kBulkFlows = 20;
}  // namespace

std::vector<WanPathSpec> DefaultWanPaths() {
  // Base RTTs approximate Iowa -> region over the public Internet. Rates are
  // scaled down (paper: 2-4 Gbit/s) to keep simulated packet counts tractable;
  // buffers follow provider rate-limiter depth (multiple BDP).
  return {
      {"us-west (Oregon)", TimeDelta::Millis(36), Rate::Mbps(200), 2.0},
      {"us-east (S.Carolina)", TimeDelta::Millis(30), Rate::Mbps(200), 2.0},
      {"eu-west (Belgium)", TimeDelta::Millis(96), Rate::Mbps(200), 2.0},
      {"eu-central (Frankfurt)", TimeDelta::Millis(106), Rate::Mbps(200), 2.0},
      {"asia-ne (Tokyo)", TimeDelta::Millis(132), Rate::Mbps(200), 2.0},
  };
}

NetBuilder WanPathBuilder(const WanPathSpec& spec, bool bundled, WanGraph* graph) {
  double bdp_bytes = spec.bottleneck_rate.BytesPerSecond() * spec.base_rtt.ToSeconds();
  int64_t buffer_bytes = std::max<int64_t>(
      static_cast<int64_t>(bdp_bytes * spec.buffer_bdp), 8 * kMtuBytes);

  NetBuilder b;
  WanGraph g;
  g.hub = b.AddSite("hub", kHubSite);
  g.region = b.AddSite("region", kRegionSite);
  NetBuilder::NodeId wan_router = b.AddRouter("wan_router");
  NetBuilder::NodeId region_router = b.AddRouter("region_router");
  NetBuilder::NodeId hub_router = b.AddRouter("hub_router");

  NetBuilder::LinkSpec hub_edge;
  hub_edge.rate = Rate::Gbps(1);
  b.AddLink(g.hub, wan_router, hub_edge, "hub_edge");

  // The provider bottleneck: rate-limited and deep-buffered, somewhere
  // outside either site.
  NetBuilder::LinkSpec provider;
  provider.rate = spec.bottleneck_rate;
  provider.delay = spec.base_rtt / 2;
  provider.buffer_bytes = buffer_bytes;
  g.bottleneck = b.AddLink(wan_router, region_router, provider, "provider_bottleneck");
  b.AddWire(region_router, g.region);

  NetBuilder::LinkSpec reverse;
  reverse.rate = Rate::Gbps(1);
  reverse.delay = spec.base_rtt / 2;
  reverse.buffer_bytes = 64 * 1024 * 1024;
  b.AddLink(g.region, hub_router, reverse, "reverse");
  b.AddWire(hub_router, g.hub);

  if (bundled) {
    NetBuilder::BundleSpec bundle;
    bundle.src_site = g.hub;
    bundle.dst_site = g.region;
    bundle.ingress_edge = g.bottleneck;
    bundle.sendbox.scheduler = SchedulerType::kSfq;
    bundle.sendbox.cc = BundleCcType::kCopa;
    b.AddBundle(bundle);
  }

  g.bottleneck_delay = b.AddQueueMonitor(g.bottleneck);
  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

WanRunResult RunWanPath(Simulator* sim, const WanPathSpec& spec, WanMode mode,
                        TimeDelta duration, TimeDelta warmup, uint64_t seed) {
  WanGraph g;
  std::unique_ptr<Net> net = WanPathBuilder(spec, mode == WanMode::kBundler, &g).Build(sim);
  Host* hub = net->host(g.hub);
  Host* region = net->host(g.region);

  // 10 closed-loop UDP request/response pairs; responses (hub -> region)
  // traverse the bundle direction.
  std::vector<UdpPingPongClient*> pingers;
  for (int i = 0; i < kPingPongPairs; ++i) {
    UdpPingPongClient* c = StartUdpPingPong(net->flows(), region, hub);
    c->SetRecordingWindow(TimePoint::Zero() + warmup, TimePoint::Zero() + duration);
    pingers.push_back(c);
  }

  // Bulk flows start with seed-derived jitter across the first RTT (real
  // transfers do not all begin at t=0), so seeded trials sample genuinely
  // different slow-start interleavings. Flows are created at their start
  // time; `bulk` outlives the run, so collecting senders from the callback
  // is safe.
  std::vector<TcpSender*> bulk;
  FlowTable* flows = net->flows();
  if (mode != WanMode::kBase) {
    bulk.reserve(static_cast<size_t>(kBulkFlows));
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    for (int i = 0; i < kBulkFlows; ++i) {
      TimeDelta jitter = TimeDelta::SecondsF(rng.NextDouble() * spec.base_rtt.ToSeconds());
      sim->Schedule(jitter, [&bulk, flows, hub, region]() {
        TcpFlowParams params;
        params.size_bytes = -1;  // backlogged
        params.cc = HostCcType::kCubic;
        bulk.push_back(StartTcpFlow(flows, hub, region, params, nullptr));
      });
    }
  }

  sim->RunUntil(TimePoint::Zero() + duration);

  QuantileEstimator rtts;
  for (UdpPingPongClient* c : pingers) {
    rtts.AddAll(c->rtt_ms().samples());
  }
  WanRunResult result;
  result.path = spec.name;
  result.mode = mode;
  if (!rtts.empty()) {
    result.rtt_ms_p10 = rtts.Quantile(0.10);
    result.rtt_ms_p50 = rtts.Quantile(0.50);
    result.rtt_ms_p90 = rtts.Quantile(0.90);
    result.rtt_ms_p99 = rtts.Quantile(0.99);
  }
  result.rtt_ms_samples = rtts.samples();
  double bulk_bytes = 0;
  for (TcpSender* s : bulk) {
    bulk_bytes += static_cast<double>(s->delivered_bytes());
  }
  result.bulk_goodput_mbps = bulk_bytes * 8.0 / duration.ToSeconds() * 1e-6;
  return result;
}

}  // namespace bundler
