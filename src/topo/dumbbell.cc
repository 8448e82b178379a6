#include "src/topo/dumbbell.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/qdisc/drr.h"
#include "src/qdisc/fifo.h"
#include "src/util/check.h"

namespace bundler {

namespace {
// The bottleneck's drop-tail limit as a multiple of its BDP, and the rate of
// every access link.
constexpr double kBottleneckBufferBdp = 2.0;
constexpr Rate kEdgeRate = Rate::Gbps(1);
}  // namespace

SiteId BundleSrcSite(int bundle) { return static_cast<SiteId>(10 + bundle); }
SiteId BundleDstSite(int bundle) { return static_cast<SiteId>(100 + bundle); }
SiteId CrossSrcSite() { return 200; }
SiteId CrossDstSite() { return 201; }

PacketFilter Dumbbell::BundleDataFilter(int bundle) {
  return PacketFilter::DataFrom(BundleSrcSite(bundle), BundleDstSite(bundle));
}

NetBuilder DumbbellBuilder(const DumbbellConfig& config, DumbbellGraph* graph) {
  BUNDLER_CHECK(config.num_bundles >= 1);
  BUNDLER_CHECK(config.num_paths >= 1);
  double bdp_bytes =
      config.bottleneck_rate.BytesPerSecond() * config.rtt.ToSeconds();
  int64_t buffer_bytes = static_cast<int64_t>(bdp_bytes * kBottleneckBufferBdp);
  buffer_bytes = std::max<int64_t>(buffer_bytes, 8 * kMtuBytes);

  NetBuilder b;
  DumbbellGraph g;

  // Nodes.
  for (int i = 0; i < config.num_bundles; ++i) {
    g.servers.push_back(b.AddSite("server" + std::to_string(i), BundleSrcSite(i)));
    g.clients.push_back(b.AddSite("client" + std::to_string(i), BundleDstSite(i)));
  }
  g.cross_server = b.AddSite("cross_server", CrossSrcSite());
  g.cross_client = b.AddSite("cross_client", CrossDstSite());
  NetBuilder::NodeId bottleneck_router = b.AddRouter("bottleneck_router");
  NetBuilder::NodeId dst_router = b.AddRouter("dst_router");
  g.reverse_agg = b.AddRouter("reverse_agg");
  NetBuilder::NodeId reverse_router = b.AddRouter("reverse_router");

  // Forward direction: per-bundle edge links and the cross edge feed the
  // bottleneck router; the bottleneck (single link, DRR when in-network FQ is
  // on, or a load-balanced multipath) delivers to the destination router.
  NetBuilder::LinkSpec edge_spec;
  edge_spec.rate = kEdgeRate;
  edge_spec.buffer_bytes = 16 * 1024 * 1024;
  for (int i = 0; i < config.num_bundles; ++i) {
    g.edge_links.push_back(b.AddLink(g.servers[static_cast<size_t>(i)],
                                     bottleneck_router, edge_spec,
                                     "edge" + std::to_string(i)));
  }
  g.cross_edge = b.AddLink(g.cross_server, bottleneck_router, edge_spec, "cross_edge");

  if (config.num_paths == 1) {
    NetBuilder::LinkSpec bn;
    bn.rate = config.bottleneck_rate;
    bn.delay = config.rtt / 2;
    bn.buffer_bytes = buffer_bytes;
    if (config.in_network_fq) {
      bn.qdisc_factory = [buffer_bytes]() -> std::unique_ptr<Qdisc> {
        return std::make_unique<Drr>(buffer_bytes);
      };
    }
    g.bottleneck = b.AddLink(bottleneck_router, dst_router, bn, "bottleneck");
  } else {
    BUNDLER_CHECK_MSG(!config.in_network_fq, "in-network FQ requires a single path");
    std::vector<MultipathLink::PathSpec> specs;
    for (int p = 0; p < config.num_paths; ++p) {
      MultipathLink::PathSpec spec;
      spec.rate = config.bottleneck_rate / config.num_paths;
      spec.prop_delay = config.rtt / 2 + config.path_delay_spread * p;
      spec.queue_limit_bytes =
          std::max<int64_t>(buffer_bytes / config.num_paths, 4 * kMtuBytes);
      specs.push_back(spec);
    }
    g.bottleneck = b.AddMultipathLink(bottleneck_router, dst_router, specs, "bottleneck");
  }

  for (int i = 0; i < config.num_bundles; ++i) {
    b.AddWire(dst_router, g.clients[static_cast<size_t>(i)]);
  }
  b.AddWire(dst_router, g.cross_client);

  // Reverse direction: every receiver feeds the shared fat reverse link.
  for (int i = 0; i < config.num_bundles; ++i) {
    b.AddWire(g.clients[static_cast<size_t>(i)], g.reverse_agg);
  }
  b.AddWire(g.cross_client, g.reverse_agg);
  NetBuilder::LinkSpec reverse_spec;
  reverse_spec.rate = config.reverse_rate;
  reverse_spec.delay = config.rtt / 2;
  reverse_spec.buffer_bytes = config.reverse_buffer_bytes;
  g.reverse_link = b.AddLink(g.reverse_agg, reverse_router, reverse_spec, "reverse");
  for (int i = 0; i < config.num_bundles; ++i) {
    b.AddWire(reverse_router, g.servers[static_cast<size_t>(i)]);
  }
  b.AddWire(reverse_router, g.cross_server);

  // Bundles (sendbox at each server's egress, receivebox chained at the
  // bottleneck's delivery side, first bundle closest to the link).
  if (config.bundler_enabled) {
    for (int i = 0; i < config.num_bundles; ++i) {
      NetBuilder::BundleSpec spec;
      spec.src_site = g.servers[static_cast<size_t>(i)];
      spec.dst_site = g.clients[static_cast<size_t>(i)];
      spec.ingress_edge = g.bottleneck;
      spec.sendbox = config.sendbox;
      b.AddBundle(spec);
    }
  }

  // Monitors on every bottleneck path: queue delay over all packets, then
  // per-bundle rate meters.
  g.bottleneck_delay = b.AddQueueMonitor(g.bottleneck);
  for (int i = 0; i < config.num_bundles; ++i) {
    g.bundle_meters.push_back(b.AddRateMeter(g.bottleneck, config.rate_meter_window,
                                             Dumbbell::BundleDataFilter(i)));
  }

  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

Dumbbell::Dumbbell(Simulator* sim, const DumbbellConfig& config)
    : sim_(sim), config_(config) {
  net_ = DumbbellBuilder(config_, &graph_).Build(sim);
}

SendboxManager* Dumbbell::sendbox(int bundle) {
  return config_.bundler_enabled ? net_->sendbox(bundle) : nullptr;
}

BundleController* Dumbbell::controller(int bundle) {
  return config_.bundler_enabled ? net_->bundle_controller(bundle) : nullptr;
}

Receivebox* Dumbbell::receivebox(int bundle) {
  return config_.bundler_enabled ? net_->receivebox(bundle) : nullptr;
}

size_t Dumbbell::num_paths() const { return static_cast<size_t>(config_.num_paths); }

Link* Dumbbell::path_link(size_t i) { return net_->path_link(graph_.bottleneck, i); }

Link* Dumbbell::edge_link(int bundle) {
  return net_->link(graph_.edge_links[static_cast<size_t>(bundle)]);
}

}  // namespace bundler
