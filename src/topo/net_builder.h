// Composable topology-graph API. Callers declare a network — sites (one host
// each), routers, links (rate / delay / buffer / qdisc per edge), zero-cost
// wires, load-balanced multipath edges — then attach sendbox/receivebox pairs
// to chosen edges and monitors to chosen links, and finally Build(Simulator*)
// validates the graph (dangling endpoints, duplicate sites, missing egress,
// bundles whose feedback loop cannot close -> CHECK with a readable message)
// and materializes hosts, routing tables, reverse paths, and per-bundle
// plumbing. Routing is per destination site, feedback included: the
// receivebox's feedback to CtlAddress(src) crosses every edge back into the
// source site, whose host hands it to the site's SendboxManager, so the
// controller's RTT is the whole round trip. The paper's dumbbell
// (topo/dumbbell.h) and WAN paths (topo/internet.h) are thin presets over
// this builder; new shapes (asymmetric reverse paths, fat trees, ...) are a
// few declarations instead of bespoke constructor plumbing.
//
// Determinism contract: Build materializes the only event-scheduling
// components, the sendbox managers, in declaration order, so two builders
// declaring the same graph in the same order drive byte-identical
// simulations.
#ifndef SRC_TOPO_NET_BUILDER_H_
#define SRC_TOPO_NET_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bundler/receivebox.h"
#include "src/bundler/sendbox.h"
#include "src/bundler/sendbox_manager.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/net/monitors.h"
#include "src/net/multipath_link.h"
#include "src/net/router.h"
#include "src/qdisc/qdisc.h"
#include "src/sim/simulator.h"
#include "src/transport/endpoint.h"

namespace bundler {

// Host number of the one endpoint host a site node materializes.
inline constexpr uint16_t kSiteHost = 1;

class Net;
class ShardChannelSet;
struct PartitionPlan;

class NetBuilder {
 public:
  using NodeId = int;
  using EdgeId = int;
  using BundleId = int;
  using MonitorId = int;
  using FaultId = int;

  // Per-link configuration. The default queue is a byte-limited drop-tail
  // FIFO; `qdisc_factory` overrides it (e.g. DRR for an in-network fair
  // queueing hop).
  struct LinkSpec {
    Rate rate = Rate::Gbps(1);
    TimeDelta delay = TimeDelta::Zero();
    int64_t buffer_bytes = 16 * 1024 * 1024;
    std::function<std::unique_ptr<Qdisc>()> qdisc_factory;
  };

  // A sendbox-receivebox pair. The sendbox (a SendboxManager) interposes on
  // `src_site`'s egress edge; the receivebox interposes at the delivery end
  // of `ingress_edge` (which must lie on the forward route from src to dst).
  // Both boxes derive their control addresses and the bundle's name from the
  // two sites (CtlAddress, BundleName).
  //
  // With `tenant` empty the site may originate only this one bundle and gets
  // a single-tenant manager built from `sendbox`: one tenant named by the
  // site pair ("s10-s100"), always admitted, site aggregate = max_rate, the
  // bundle's control interval, and its scheduler (scheduler_factory, else
  // MakeScheduler(scheduler, queue_limit_pkts)) as the bundle qdisc. Naming a
  // tenant (declared earlier via AddTenant on the same source site) instead
  // multiplexes all of the site's bundles through one manager under the
  // site's declared policy — admission control, tenant sharing — and
  // `class_weight` sets the bundle's DRR share within its tenant. A site
  // cannot mix tenant-less and tenanted bundles.
  struct BundleSpec {
    NodeId src_site = -1;
    NodeId dst_site = -1;
    EdgeId ingress_edge = -1;
    SendboxConfig sendbox;
    std::string tenant;
    double class_weight = 1.0;
  };

  // --- Graph declaration (ids are dense, in declaration order) ---
  NodeId AddSite(std::string name, SiteId site);
  NodeId AddRouter(std::string name);
  EdgeId AddLink(NodeId from, NodeId to, const LinkSpec& spec, std::string name = "");
  // Zero-cost synchronous handoff (e.g. router -> attached site).
  EdgeId AddWire(NodeId from, NodeId to);
  EdgeId AddMultipathLink(NodeId from, NodeId to,
                          const std::vector<MultipathLink::PathSpec>& paths,
                          std::string name = "");

  BundleId AddBundle(const BundleSpec& spec);

  // --- Multi-tenant control plane (src/bundler/sendbox_manager.h) ---
  // Declares a tenant on `site`, making the site TENANTED: its bundles (which
  // must each name a declared tenant) share the site's SendboxManager. Tenant
  // order is declaration order; duplicate names on one site CHECK-fail.
  void AddTenant(NodeId site, const SendboxManager::TenantPolicy& policy);
  // Overrides the tenanted site's egress policy (aggregate rate, admission
  // caps, shared tick period). At most once per site; optional — a tenanted
  // site without one uses SendboxManager::Policy defaults.
  void SetSiteEgressPolicy(NodeId site, const SendboxManager::Policy& policy);

  // Monitors observe links (every path of a multipath edge). Attach order on
  // a link follows declaration order.
  MonitorId AddQueueMonitor(EdgeId edge, PacketFilter filter = {});
  MonitorId AddRateMeter(EdgeId edge, TimeDelta window, PacketFilter filter = {});

  // --- Fault injection (src/net/fault_injector.h) ---
  // Attaches a fault profile to a plain link's delivery path: packets that
  // finish propagation pass through the injector (blackout drops) before
  // reaching receiveboxes and the node entry. Validated here (CHECK-fails on
  // malformed specs, wires, multipath edges). Multiple profiles on one link
  // compose; the first-declared profile acts first on arriving packets.
  // Declaring no profiles leaves the build byte-identical to a fault-free
  // one (no components registered).
  FaultId AddFaultProfile(EdgeId link, const FaultProfileSpec& spec);

  // --- Introspection ---
  // Graphviz DOT of the declared graph: sites, routers, links (rate/delay),
  // bundle attachments and monitors. Does not require Build.
  std::string ToDot(const std::string& graph_name = "net") const;
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_bundles() const { return bundles_.size(); }

  // Validates the declared graph and materializes it into `sim`. CHECK-fails
  // with a readable message on graph errors. May be called more than once
  // (each call builds an independent Net). [[nodiscard]]: the Net owns every
  // constructed component; dropping it tears the topology down immediately.
  [[nodiscard]] std::unique_ptr<Net> Build(Simulator* sim) const;

  // Sharded materialization: every node's components are constructed into the
  // simulator of its group (`sims[plan.group_of(node)]`), and each boundary
  // link of `plan` gets a ShardChannel in `channels` instead of a local
  // delivery event. Construction order — and with it per-shard event-id
  // assignment — follows declaration order exactly as in the unsharded Build,
  // so the per-shard event sequences depend only on the plan, never on how
  // many workers later execute the shards.
  [[nodiscard]] std::unique_ptr<Net> Build(
      const PartitionPlan& plan, const std::vector<Simulator*>& sims,
      ShardChannelSet* channels) const;

 private:
  friend class Net;
  // The partitioner reads the declaration vectors directly (topo/partition.cc).
  friend PartitionPlan PartitionTopology(const NetBuilder& builder);
  friend PartitionPlan PartitionFromAssignment(
      const NetBuilder& builder, const std::vector<int>& group_of_node);

  enum class NodeKind { kSite, kRouter };
  enum class EdgeKind { kLink, kWire, kMultipath };

  struct NodeDecl {
    NodeKind kind;
    std::string name;
    SiteId site = 0;  // kSite only
  };
  struct EdgeDecl {
    EdgeKind kind;
    std::string name;
    NodeId from = -1;
    NodeId to = -1;
    LinkSpec link;                               // kLink only
    std::vector<MultipathLink::PathSpec> paths;  // kMultipath only
  };
  enum class MonitorKind { kQueueDelay, kRateMeter };
  struct MonitorDecl {
    MonitorKind kind;
    EdgeId edge = -1;
    TimeDelta window = TimeDelta::Zero();  // kRateMeter only
    PacketFilter filter;
  };
  struct FaultDecl {
    EdgeId edge = -1;
    FaultProfileSpec spec;
  };

  NodeId CheckNode(NodeId id, const char* what) const;
  EdgeId CheckEdge(EdgeId id, const char* what) const;
  void Validate() const;
  std::unique_ptr<Net> BuildImpl(const std::vector<Simulator*>& sims,
                                 const PartitionPlan* plan,
                                 ShardChannelSet* channels) const;

  std::vector<NodeDecl> nodes_;
  std::vector<EdgeDecl> edges_;
  std::vector<BundleSpec> bundles_;
  // Tenant declarations in order (the order fixes tenant indices per site)
  // and per-site policy overrides (at most one per site).
  std::vector<std::pair<NodeId, SendboxManager::TenantPolicy>> tenants_;
  std::vector<std::pair<NodeId, SendboxManager::Policy>> site_policies_;
  std::vector<MonitorDecl> monitors_;
  std::vector<FaultDecl> faults_;
};

// The materialized network. Owns every component; accessors hand out raw
// pointers valid for the Net's lifetime. Ids are the builder's ids. Its
// destructor freezes every exposed counter of the simulators it was built
// into (obs::CounterRegistry::FreezeExposed) before its own components are
// destroyed, so a trial's counters can be dumped after its topology is gone.
// Those simulators, and any component outside the Net that exposes counters
// into them, must therefore outlive it.
class Net {
 public:
  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;
  ~Net();

  FlowTable* flows() { return &flows_; }

  Host* host(NetBuilder::NodeId node);
  Host* host_at_site(SiteId site);  // CHECK-fails when no such site
  Router* router(NetBuilder::NodeId node);

  // Plain link of a kLink edge (CHECK-fails for wires / multipath edges).
  Link* link(NetBuilder::EdgeId edge);
  MultipathLink* multipath(NetBuilder::EdgeId edge);
  // Uniform per-path view: a plain link has one path (itself).
  size_t num_paths(NetBuilder::EdgeId edge);
  Link* path_link(NetBuilder::EdgeId edge, size_t path);

  // The SendboxManager carrying `bundle` (its source site's sendbox), and
  // the bundle's receivebox.
  SendboxManager* sendbox(NetBuilder::BundleId bundle);
  Receivebox* receivebox(NetBuilder::BundleId bundle);

  // A site's sendbox (CHECK-fails when the node originates no bundle and
  // declares no tenant), and per-bundle views: whether admission accepted
  // the bundle (a tenant-less bundle always is) and its control loop (null
  // when rejected).
  SendboxManager* manager(NetBuilder::NodeId node);
  bool bundle_admitted(NetBuilder::BundleId bundle);
  BundleController* bundle_controller(NetBuilder::BundleId bundle);

  QueueDelayMonitor* queue_monitor(NetBuilder::MonitorId id);
  RateMeter* rate_meter(NetBuilder::MonitorId id);

  FaultInjector* fault_injector(NetBuilder::FaultId id);

 private:
  friend class NetBuilder;
  explicit Net(std::vector<Simulator*> sims) : sims_(std::move(sims)) {}

  std::vector<Simulator*> sims_;  // every simulator BuildImpl built into
  FlowTable flows_;

  // Indexed by builder ids; entries are null where the id is a different
  // kind (e.g. routers_ at a site node's id).
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<MultipathLink>> multipaths_;
  // The handler packets enter when traversing each edge (the link itself,
  // or for wires the delivery chain): what a site's egress points at.
  std::vector<PacketHandler*> edge_entries_;
  std::vector<std::unique_ptr<SendboxManager>> managers_;  // by site node id
  // bundle id -> (site node, declaration slot within that site's manager).
  std::vector<std::pair<NetBuilder::NodeId, int>> bundle_slot_;
  std::vector<std::unique_ptr<Receivebox>> receiveboxes_;
  std::vector<std::unique_ptr<QueueDelayMonitor>> queue_monitors_;
  std::vector<std::unique_ptr<RateMeter>> rate_meters_;
  std::vector<std::unique_ptr<FaultInjector>> fault_injectors_;
};

}  // namespace bundler

#endif  // SRC_TOPO_NET_BUILDER_H_
