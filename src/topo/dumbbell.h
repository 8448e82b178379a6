// Dumbbell topology mirroring the paper's emulation setup (§7.1): per-bundle
// sender sites behind sendboxes, a shared bottleneck link (optionally
// load-balanced across N paths, optionally with in-network fair queueing for
// the "In-Network" baseline), receiveboxes at the far side, receiver sites,
// and a fat reverse path carrying ACKs and Bundler feedback. Unbundled cross
// traffic enters at the bottleneck router and exits behind the receiveboxes.
//
//   server_i -> sendbox_i -> edge_i \                        / -> client_i
//                                    bottleneck -> rb_0..rb_k
//   cross_server -> cross_edge ----- /                        \ -> cross_client
//
// Since PR 3 this is a preset over the composable NetBuilder
// (topo/net_builder.h): DumbbellBuilder() declares the graph, Dumbbell wraps
// the built Net behind the accessors the benches and tests grew up with.
#ifndef SRC_TOPO_DUMBBELL_H_
#define SRC_TOPO_DUMBBELL_H_

#include <memory>
#include <vector>

#include "src/topo/net_builder.h"

namespace bundler {

// What callers vary. Fixed by the preset: a drop-tail bottleneck buffer of
// two BDPs (split evenly across paths), 1 Gbit/s access links, and flow-hash
// load balancing over a multipath bottleneck.
struct DumbbellConfig {
  Rate bottleneck_rate = Rate::Mbps(96);
  TimeDelta rtt = TimeDelta::Millis(50);
  bool in_network_fq = false;  // DRR at the bottleneck ("In-Network")

  int num_bundles = 1;
  bool bundler_enabled = true;
  SendboxConfig sendbox;  // site/address fields are filled in per bundle

  int num_paths = 1;  // >1 = load-balanced bottleneck (§5.2 / §7.6)
  TimeDelta path_delay_spread = TimeDelta::Zero();  // extra delay per path index

  Rate reverse_rate = Rate::Gbps(1);
  // Effectively unbounded by default; narrow it together with reverse_rate
  // to give the shared reverse path a provider-style capped standing queue
  // (feedback-delay fault studies).
  int64_t reverse_buffer_bytes = 64 * 1024 * 1024;

  // Monitoring knobs.
  TimeDelta rate_meter_window = TimeDelta::Millis(50);
};

SiteId BundleSrcSite(int bundle);
SiteId BundleDstSite(int bundle);
SiteId CrossSrcSite();
SiteId CrossDstSite();

// Builder-id handles into the dumbbell graph, for callers that want to extend
// the preset (extra monitors, extra edges) before building it themselves.
struct DumbbellGraph {
  std::vector<NetBuilder::NodeId> servers;
  std::vector<NetBuilder::NodeId> clients;
  NetBuilder::NodeId cross_server = -1;
  NetBuilder::NodeId cross_client = -1;
  NetBuilder::EdgeId bottleneck = -1;
  std::vector<NetBuilder::EdgeId> edge_links;  // per-bundle server -> bottleneck router
  NetBuilder::NodeId reverse_agg = -1;  // entry router of the shared reverse path
  // The shared fat reverse link (ACKs + Bundler feedback). Fault scenarios
  // attach ctl-targeted profiles here via NetBuilder::AddFaultProfile.
  NetBuilder::EdgeId reverse_link = -1;
  NetBuilder::MonitorId bottleneck_delay = -1;
  std::vector<NetBuilder::MonitorId> bundle_meters;
};

// Declares the §7.1 dumbbell on a NetBuilder. `graph` (optional) receives the
// ids of the pieces callers typically touch.
NetBuilder DumbbellBuilder(const DumbbellConfig& config, DumbbellGraph* graph = nullptr);

class Dumbbell {
 public:
  Dumbbell(Simulator* sim, const DumbbellConfig& config);
  Dumbbell(const Dumbbell&) = delete;
  Dumbbell& operator=(const Dumbbell&) = delete;

  Host* server(int bundle = 0) { return net_->host(graph_.servers[static_cast<size_t>(bundle)]); }
  Host* client(int bundle = 0) { return net_->host(graph_.clients[static_cast<size_t>(bundle)]); }
  Host* cross_server() { return net_->host(graph_.cross_server); }
  Host* cross_client() { return net_->host(graph_.cross_client); }

  // Null when the bundler is disabled. Each bundle's sendbox is its source
  // site's single-bundle SendboxManager, so the bundle is index 0 there
  // (sendbox(i)->bundle_rate(0), ->egress_hierarchy().bundle_qdisc(0)).
  SendboxManager* sendbox(int bundle = 0);
  // Bundle `i`'s control loop (mode, measurement, watchdog, logs).
  BundleController* controller(int bundle = 0);
  Receivebox* receivebox(int bundle = 0);

  // The bottleneck's paths: one link unless num_paths > 1.
  size_t num_paths() const;
  Link* path_link(size_t i);

  // Bundle `i`'s 1 Gbit/s access link (server_i -> bottleneck router).
  Link* edge_link(int bundle = 0);

  FlowTable* flows() { return net_->flows(); }
  Simulator* sim() { return sim_; }
  const DumbbellConfig& config() const { return config_; }
  Net* net() { return net_.get(); }

  // Entry point of the shared reverse path (ACKs + Bundler feedback). Tests
  // interpose packet handlers here via Receivebox::set_reverse.
  PacketHandler* reverse_path() { return net_->router(graph_.reverse_agg); }

  // Bottleneck observation: queue delay over all packets, and per-bundle
  // rate meters (attached to every path).
  QueueDelayMonitor* bottleneck_delay() {
    return net_->queue_monitor(graph_.bottleneck_delay);
  }
  RateMeter* bundle_rate_meter(int bundle = 0) {
    return net_->rate_meter(graph_.bundle_meters[static_cast<size_t>(bundle)]);
  }

  // Monitor filter for bundle `i`'s data packets.
  static PacketFilter BundleDataFilter(int bundle);

 private:
  Simulator* sim_;
  DumbbellConfig config_;
  DumbbellGraph graph_;
  std::unique_ptr<Net> net_;
};

}  // namespace bundler

#endif  // SRC_TOPO_DUMBBELL_H_
