#include "src/topo/net_builder.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/qdisc/fifo.h"
#include "src/sim/shard_channel.h"
#include "src/topo/partition.h"
#include "src/util/check.h"

namespace bundler {

namespace {

std::string FormatRate(Rate rate) {
  char buf[32];
  if (rate.Mbps() >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.3g Gbit/s", rate.Mbps() / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g Mbit/s", rate.Mbps());
  }
  return buf;
}

std::string FormatDelay(TimeDelta delay) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g ms", delay.ToMillis());
  return buf;
}

}  // namespace

NetBuilder::NodeId NetBuilder::CheckNode(NodeId id, const char* what) const {
  BUNDLER_CHECK_MSG(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
                    "%s refers to node %d, but only %zu nodes are declared", what, id,
                    nodes_.size());
  return id;
}

NetBuilder::EdgeId NetBuilder::CheckEdge(EdgeId id, const char* what) const {
  BUNDLER_CHECK_MSG(id >= 0 && id < static_cast<EdgeId>(edges_.size()),
                    "%s refers to edge %d, but only %zu edges are declared", what, id,
                    edges_.size());
  return id;
}

NetBuilder::NodeId NetBuilder::AddSite(std::string name, SiteId site) {
  BUNDLER_CHECK_MSG(!name.empty(), "sites need a name");
  NodeDecl decl;
  decl.kind = NodeKind::kSite;
  decl.name = std::move(name);
  decl.site = site;
  nodes_.push_back(std::move(decl));
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NetBuilder::NodeId NetBuilder::AddRouter(std::string name) {
  BUNDLER_CHECK_MSG(!name.empty(), "routers need a name");
  NodeDecl decl;
  decl.kind = NodeKind::kRouter;
  decl.name = std::move(name);
  nodes_.push_back(std::move(decl));
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NetBuilder::EdgeId NetBuilder::AddLink(NodeId from, NodeId to, const LinkSpec& spec,
                                       std::string name) {
  CheckNode(from, "AddLink(from)");
  CheckNode(to, "AddLink(to)");
  BUNDLER_CHECK_MSG(from != to, "link '%s' connects node '%s' to itself", name.c_str(),
                    nodes_[static_cast<size_t>(from)].name.c_str());
  // A link that can never serialize an MTU is a spec bug. Link's constructor
  // would CHECK-fail at Build; failing here points at the declaration.
  BUNDLER_CHECK_MSG(!spec.rate.IsZero() &&
                        !spec.rate.TransmitTime(kMtuBytes).IsInfinite(),
                    "link '%s' needs a usable nonzero rate", name.c_str());
  BUNDLER_CHECK_MSG(spec.qdisc_factory || spec.buffer_bytes > 0,
                    "link '%s' needs a positive buffer", name.c_str());
  EdgeDecl decl;
  decl.kind = EdgeKind::kLink;
  decl.name = name.empty() ? "link" + std::to_string(edges_.size()) : std::move(name);
  decl.from = from;
  decl.to = to;
  decl.link = spec;
  edges_.push_back(std::move(decl));
  return static_cast<EdgeId>(edges_.size()) - 1;
}

NetBuilder::EdgeId NetBuilder::AddWire(NodeId from, NodeId to) {
  CheckNode(from, "AddWire(from)");
  CheckNode(to, "AddWire(to)");
  BUNDLER_CHECK_MSG(from != to, "wire connects node '%s' to itself",
                    nodes_[static_cast<size_t>(from)].name.c_str());
  EdgeDecl decl;
  decl.kind = EdgeKind::kWire;
  decl.name = "wire" + std::to_string(edges_.size());
  decl.from = from;
  decl.to = to;
  edges_.push_back(std::move(decl));
  return static_cast<EdgeId>(edges_.size()) - 1;
}

NetBuilder::EdgeId NetBuilder::AddMultipathLink(
    NodeId from, NodeId to, const std::vector<MultipathLink::PathSpec>& paths,
    std::string name) {
  CheckNode(from, "AddMultipathLink(from)");
  CheckNode(to, "AddMultipathLink(to)");
  BUNDLER_CHECK_MSG(from != to, "multipath link '%s' connects node '%s' to itself",
                    name.c_str(), nodes_[static_cast<size_t>(from)].name.c_str());
  BUNDLER_CHECK_MSG(!paths.empty(), "multipath link '%s' needs >= 1 path", name.c_str());
  for (size_t p = 0; p < paths.size(); ++p) {
    // Mirrors AddLink: a path that cannot serialize an MTU is a spec bug.
    BUNDLER_CHECK_MSG(!paths[p].rate.IsZero() &&
                          !paths[p].rate.TransmitTime(kMtuBytes).IsInfinite(),
                      "multipath link '%s' path %zu needs a usable nonzero rate",
                      name.c_str(), p);
  }
  EdgeDecl decl;
  decl.kind = EdgeKind::kMultipath;
  decl.name = name.empty() ? "mp" + std::to_string(edges_.size()) : std::move(name);
  decl.from = from;
  decl.to = to;
  decl.paths = paths;
  edges_.push_back(std::move(decl));
  return static_cast<EdgeId>(edges_.size()) - 1;
}

NetBuilder::BundleId NetBuilder::AddBundle(const BundleSpec& spec) {
  CheckNode(spec.src_site, "AddBundle(src_site)");
  CheckNode(spec.dst_site, "AddBundle(dst_site)");
  CheckEdge(spec.ingress_edge, "AddBundle(ingress_edge)");
  BUNDLER_CHECK_MSG(nodes_[static_cast<size_t>(spec.src_site)].kind == NodeKind::kSite,
                    "bundle src node '%s' is not a site",
                    nodes_[static_cast<size_t>(spec.src_site)].name.c_str());
  BUNDLER_CHECK_MSG(nodes_[static_cast<size_t>(spec.dst_site)].kind == NodeKind::kSite,
                    "bundle dst node '%s' is not a site",
                    nodes_[static_cast<size_t>(spec.dst_site)].name.c_str());
  BUNDLER_CHECK_MSG(spec.src_site != spec.dst_site,
                    "bundle src and dst are both site '%s'",
                    nodes_[static_cast<size_t>(spec.src_site)].name.c_str());
  for (const BundleSpec& other : bundles_) {
    // Many bundles may share a source site ONLY when all of them name tenants
    // (the site's declared policy then governs sharing); a tenant-less bundle
    // defines its site's whole egress policy, so it must be the only one.
    BUNDLER_CHECK_MSG(other.src_site != spec.src_site ||
                          (!spec.tenant.empty() && !other.tenant.empty()),
                      "two bundles originate at site '%s' (a tenant-less bundle "
                      "owns its site's sendbox; declare tenants on both to "
                      "multiplex them through one SendboxManager)",
                      nodes_[static_cast<size_t>(spec.src_site)].name.c_str());
    // A receivebox's control address is CtlAddress(dst site): a shared
    // destination site would give both receiveboxes the same one, and the
    // first on the path would consume the other bundle's epoch updates.
    BUNDLER_CHECK_MSG(other.dst_site != spec.dst_site,
                      "two bundles terminate at site '%s'; their receiveboxes would "
                      "share one control address",
                      nodes_[static_cast<size_t>(spec.dst_site)].name.c_str());
  }
  if (spec.tenant.empty()) {
    // The bundle's max_rate becomes its site's aggregate rate.
    BUNDLER_CHECK_MSG(!spec.sendbox.max_rate.IsZero(),
                      "tenant-less bundle at site '%s' needs a positive "
                      "sendbox.max_rate",
                      nodes_[static_cast<size_t>(spec.src_site)].name.c_str());
  } else {
    bool declared = false;
    for (const auto& [node, ten] : tenants_) {
      declared = declared || (node == spec.src_site && ten.name == spec.tenant);
    }
    BUNDLER_CHECK_MSG(declared,
                      "bundle names tenant '%s', which is not declared on site "
                      "'%s' (AddTenant first)",
                      spec.tenant.c_str(),
                      nodes_[static_cast<size_t>(spec.src_site)].name.c_str());
    BUNDLER_CHECK_MSG(spec.class_weight > 0.0,
                      "bundle for tenant '%s' needs a positive class_weight",
                      spec.tenant.c_str());
  }
  bundles_.push_back(spec);
  return static_cast<BundleId>(bundles_.size()) - 1;
}

void NetBuilder::AddTenant(NodeId site, const SendboxManager::TenantPolicy& policy) {
  CheckNode(site, "AddTenant");
  BUNDLER_CHECK_MSG(nodes_[static_cast<size_t>(site)].kind == NodeKind::kSite,
                    "AddTenant on node '%s', which is not a site",
                    nodes_[static_cast<size_t>(site)].name.c_str());
  BUNDLER_CHECK_MSG(!policy.name.empty(), "tenants need a name");
  for (const auto& [node, ten] : tenants_) {
    BUNDLER_CHECK_MSG(node != site || ten.name != policy.name,
                      "duplicate tenant '%s' on site '%s'", policy.name.c_str(),
                      nodes_[static_cast<size_t>(site)].name.c_str());
  }
  BUNDLER_CHECK_MSG(policy.priority >= 0 && policy.priority < SiteEgress::kNumBands,
                    "tenant '%s': priority %d outside [0, %d)", policy.name.c_str(),
                    policy.priority, SiteEgress::kNumBands);
  BUNDLER_CHECK_MSG(policy.weight > 0.0, "tenant '%s': weight must be positive",
                    policy.name.c_str());
  tenants_.emplace_back(site, policy);
}

void NetBuilder::SetSiteEgressPolicy(NodeId site, const SendboxManager::Policy& policy) {
  CheckNode(site, "SetSiteEgressPolicy");
  BUNDLER_CHECK_MSG(nodes_[static_cast<size_t>(site)].kind == NodeKind::kSite,
                    "SetSiteEgressPolicy on node '%s', which is not a site",
                    nodes_[static_cast<size_t>(site)].name.c_str());
  for (const auto& [node, existing] : site_policies_) {
    BUNDLER_CHECK_MSG(node != site, "site '%s' already has an egress policy",
                      nodes_[static_cast<size_t>(site)].name.c_str());
    (void)existing;
  }
  BUNDLER_CHECK_MSG(policy.max_bundles > 0,
                    "site '%s': max_bundles must be positive",
                    nodes_[static_cast<size_t>(site)].name.c_str());
  BUNDLER_CHECK_MSG(!policy.aggregate_rate.IsZero(),
                    "site '%s': aggregate rate must be nonzero",
                    nodes_[static_cast<size_t>(site)].name.c_str());
  site_policies_.emplace_back(site, policy);
}

NetBuilder::MonitorId NetBuilder::AddQueueMonitor(EdgeId edge, PacketFilter filter) {
  CheckEdge(edge, "AddQueueMonitor");
  BUNDLER_CHECK_MSG(edges_[static_cast<size_t>(edge)].kind != EdgeKind::kWire,
                    "queue monitor attached to wire '%s' (wires have no queue)",
                    edges_[static_cast<size_t>(edge)].name.c_str());
  MonitorDecl decl;
  decl.kind = MonitorKind::kQueueDelay;
  decl.edge = edge;
  decl.filter = filter;
  monitors_.push_back(std::move(decl));
  return static_cast<MonitorId>(monitors_.size()) - 1;
}

NetBuilder::MonitorId NetBuilder::AddRateMeter(EdgeId edge, TimeDelta window,
                                               PacketFilter filter) {
  CheckEdge(edge, "AddRateMeter");
  BUNDLER_CHECK_MSG(edges_[static_cast<size_t>(edge)].kind != EdgeKind::kWire,
                    "rate meter attached to wire '%s' (wires have no queue)",
                    edges_[static_cast<size_t>(edge)].name.c_str());
  MonitorDecl decl;
  decl.kind = MonitorKind::kRateMeter;
  decl.edge = edge;
  decl.window = window;
  decl.filter = filter;
  monitors_.push_back(std::move(decl));
  return static_cast<MonitorId>(monitors_.size()) - 1;
}

NetBuilder::FaultId NetBuilder::AddFaultProfile(EdgeId link,
                                                const FaultProfileSpec& spec) {
  CheckEdge(link, "AddFaultProfile");
  const EdgeDecl& edge = edges_[static_cast<size_t>(link)];
  BUNDLER_CHECK_MSG(edge.kind == EdgeKind::kLink,
                    "fault profile attached to '%s', which is not a plain link "
                    "(wires deliver synchronously; fault individual multipath "
                    "paths via their own links)",
                    edge.name.c_str());
  ValidateFaultProfile(spec, edge.name.c_str());
  FaultDecl decl;
  decl.edge = link;
  decl.spec = spec;
  faults_.push_back(std::move(decl));
  return static_cast<FaultId>(faults_.size()) - 1;
}

void NetBuilder::Validate() const {
  BUNDLER_CHECK_MSG(!nodes_.empty(), "topology has no nodes");

  std::unordered_set<std::string> names;
  std::unordered_map<SiteId, const NodeDecl*> sites;
  for (const NodeDecl& node : nodes_) {
    BUNDLER_CHECK_MSG(names.insert(node.name).second, "duplicate node name '%s'",
                      node.name.c_str());
    if (node.kind == NodeKind::kSite) {
      auto [it, inserted] = sites.emplace(node.site, &node);
      BUNDLER_CHECK_MSG(inserted, "sites '%s' and '%s' share site id %u",
                        it->second->name.c_str(), node.name.c_str(),
                        static_cast<unsigned>(node.site));
    }
  }

  // Every site needs exactly one egress edge: zero leaves its host unable to
  // send (a dangling site), more than one is ambiguous — put a router behind
  // the site instead.
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind != NodeKind::kSite) {
      continue;
    }
    size_t egress = 0;
    for (const EdgeDecl& edge : edges_) {
      if (edge.from == static_cast<NodeId>(n)) {
        ++egress;
      }
    }
    BUNDLER_CHECK_MSG(egress == 1,
                      "site '%s' has %zu egress edges; a site needs exactly one",
                      nodes_[n].name.c_str(), egress);
  }

  // A tenanted site (one with declared tenants) takes its egress policy
  // from the site declaration; a tenant-less bundle's sendbox config IS its
  // site's policy, so the two forms cannot meet on one site.
  for (const BundleSpec& bundle : bundles_) {
    if (!bundle.tenant.empty()) {
      continue;
    }
    const char* site = nodes_[static_cast<size_t>(bundle.src_site)].name.c_str();
    for (const auto& [node, ten] : tenants_) {
      BUNDLER_CHECK_MSG(node != bundle.src_site,
                        "site '%s' declares tenant '%s' but also originates a "
                        "tenant-less bundle; a site is either tenant-less or "
                        "tenanted, not both",
                        site, ten.name.c_str());
    }
    for (const auto& [node, policy] : site_policies_) {
      (void)policy;
      BUNDLER_CHECK_MSG(node != bundle.src_site,
                        "site '%s' sets an egress policy but originates a "
                        "tenant-less bundle, whose sendbox config is the "
                        "site's policy",
                        site);
    }
  }
}

std::unique_ptr<Net> NetBuilder::Build(Simulator* sim) const {
  BUNDLER_CHECK(sim != nullptr);
  return BuildImpl({sim}, nullptr, nullptr);
}

std::unique_ptr<Net> NetBuilder::Build(const PartitionPlan& plan,
                                       const std::vector<Simulator*>& sims,
                                       ShardChannelSet* channels) const {
  BUNDLER_CHECK(channels != nullptr);
  BUNDLER_CHECK_MSG(static_cast<int>(sims.size()) == plan.num_groups,
                    "sharded build needs one simulator per group (%d), got %zu",
                    plan.num_groups, sims.size());
  for (Simulator* sim : sims) {
    BUNDLER_CHECK(sim != nullptr);
  }
  return BuildImpl(sims, &plan, channels);
}

std::unique_ptr<Net> NetBuilder::BuildImpl(const std::vector<Simulator*>& sims,
                                           const PartitionPlan* plan,
                                           ShardChannelSet* channels) const {
  Validate();

  // Every component is constructed into the simulator of its node's group
  // (unsharded: everything into sims[0]). Links and monitors execute on the
  // *sending* side of their edge, so they follow `from`; boundary links hand
  // each packet to the peer shard as it starts to serialize instead of
  // scheduling a local delivery.
  auto sim_of = [&](NodeId n) {
    return plan == nullptr ? sims[0]
                           : sims[static_cast<size_t>(plan->group_of(n))];
  };

  std::unique_ptr<Net> net(new Net(sims));

  // --- Phase 1: nodes (passive). Every router's route table spans the
  // declared site ids. ---
  size_t num_site_ids = 0;
  for (const NodeDecl& node : nodes_) {
    if (node.kind == NodeKind::kSite) {
      num_site_ids = std::max(num_site_ids, static_cast<size_t>(node.site) + 1);
    }
  }
  net->hosts_.resize(nodes_.size());
  net->routers_.resize(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const NodeDecl& node = nodes_[n];
    if (node.kind == NodeKind::kSite) {
      net->hosts_[n] = std::make_unique<Host>(sim_of(static_cast<NodeId>(n)),
                                              MakeAddress(node.site, kSiteHost),
                                              /*egress=*/nullptr);
    } else {
      net->routers_[n] = std::make_unique<Router>(node.name, num_site_ids);
    }
  }
  auto node_entry = [&](NodeId n) -> PacketHandler* {
    if (nodes_[static_cast<size_t>(n)].kind == NodeKind::kSite) {
      return net->hosts_[static_cast<size_t>(n)].get();
    }
    return net->routers_[static_cast<size_t>(n)].get();
  };

  // --- Phase 2: links (passive until packets arrive). Destinations are wired
  // after receivebox chains exist. ---
  net->links_.resize(edges_.size());
  net->multipaths_.resize(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    const EdgeDecl& edge = edges_[e];
    if (edge.kind == EdgeKind::kLink) {
      std::unique_ptr<Qdisc> queue = edge.link.qdisc_factory
                                         ? edge.link.qdisc_factory()
                                         : std::make_unique<DropTailFifo>(
                                               edge.link.buffer_bytes);
      net->links_[e] = std::make_unique<Link>(sim_of(edge.from), edge.name,
                                              edge.link.rate, edge.link.delay,
                                              std::move(queue),
                                              /*dst=*/nullptr);
    } else if (edge.kind == EdgeKind::kMultipath) {
      net->multipaths_[e] = std::make_unique<MultipathLink>(
          sim_of(edge.from), edge.name, edge.paths, /*dst=*/nullptr);
    }
  }

  // --- Phase 3: monitors, in declaration order (passive; attach order on a
  // link follows declaration order). ---
  net->queue_monitors_.resize(monitors_.size());
  net->rate_meters_.resize(monitors_.size());
  for (size_t m = 0; m < monitors_.size(); ++m) {
    const MonitorDecl& mon = monitors_[m];
    LinkObserver* obs;
    if (mon.kind == MonitorKind::kQueueDelay) {
      net->queue_monitors_[m] = std::make_unique<QueueDelayMonitor>(mon.filter);
      obs = net->queue_monitors_[m].get();
    } else {
      net->rate_meters_[m] = std::make_unique<RateMeter>(
          sim_of(edges_[static_cast<size_t>(mon.edge)].from), mon.window,
          mon.filter);
      obs = net->rate_meters_[m].get();
    }
    size_t e = static_cast<size_t>(mon.edge);
    if (net->links_[e] != nullptr) {
      net->links_[e]->AddObserver(obs);
    } else {
      MultipathLink* mp = net->multipaths_[e].get();
      for (size_t p = 0; p < mp->num_paths(); ++p) {
        mp->path(p)->AddObserver(obs);
      }
    }
  }

  // --- Phase 4: receivebox chains. On each edge, the first-declared bundle's
  // receivebox receives first; constructing in reverse declaration order lets
  // every box take its forward pointer at construction (receiveboxes are
  // passive, so construction order is free). ---
  net->receiveboxes_.resize(bundles_.size());
  std::vector<PacketHandler*> delivery(edges_.size(), nullptr);
  for (size_t e = 0; e < edges_.size(); ++e) {
    delivery[e] = node_entry(edges_[e].to);
  }
  for (size_t b = bundles_.size(); b-- > 0;) {
    const BundleSpec& bundle = bundles_[b];
    size_t e = static_cast<size_t>(bundle.ingress_edge);
    // The receivebox executes where its ingress edge delivers; the partition
    // keeps both ends of that edge in one group, so `from` == `to`'s group.
    net->receiveboxes_[b] = std::make_unique<Receivebox>(
        sim_of(edges_[e].to), nodes_[static_cast<size_t>(bundle.src_site)].site,
        nodes_[static_cast<size_t>(bundle.dst_site)].site,
        bundle.sendbox.initial_epoch_pkts, /*forward=*/delivery[e],
        /*reverse=*/nullptr);
    delivery[e] = net->receiveboxes_[b].get();
  }

  // --- Phase 4b: fault injectors wrap each faulted edge's delivery chain
  // (passive: an injector never schedules anything). Built in reverse
  // declaration order so the first-declared profile is outermost — it acts
  // first on arriving packets, before later profiles and the receiveboxes.
  // The injector executes where the edge delivers, which also covers shard-
  // boundary links (the channel's dst below is the wrapped chain). ---
  net->fault_injectors_.resize(faults_.size());
  for (size_t f = faults_.size(); f-- > 0;) {
    const FaultDecl& fault = faults_[f];
    const size_t e = static_cast<size_t>(fault.edge);
    net->fault_injectors_[f] = std::make_unique<FaultInjector>(
        sim_of(edges_[e].to), edges_[e].name + ".f" + std::to_string(f),
        fault.spec, /*next=*/delivery[e]);
    delivery[e] = net->fault_injectors_[f].get();
  }

  // --- Phase 5: edge entries + link destinations. ---
  net->edge_entries_.resize(edges_.size(), nullptr);
  for (size_t e = 0; e < edges_.size(); ++e) {
    switch (edges_[e].kind) {
      case EdgeKind::kLink:
        net->links_[e]->set_dst(delivery[e]);
        net->edge_entries_[e] = net->links_[e].get();
        break;
      case EdgeKind::kMultipath:
        net->multipaths_[e]->set_dst(delivery[e]);
        net->edge_entries_[e] = net->multipaths_[e].get();
        break;
      case EdgeKind::kWire:
        net->edge_entries_[e] = delivery[e];
        break;
    }
  }

  // Boundary links exchange packets through SPSC rings instead of scheduling
  // local delivery; the link's propagation delay rides with each packet and
  // is the receiving shard's conservative lookahead (see sim/shard_channel.h).
  if (plan != nullptr) {
    for (const PartitionPlan::Boundary& bd : plan->boundaries) {
      const size_t e = static_cast<size_t>(bd.edge);
      ShardChannel::Spec spec;
      spec.id = static_cast<uint32_t>(bd.edge);
      spec.src_shard = bd.src_group;
      spec.dst_shard = bd.dst_group;
      spec.lookahead_ns = bd.lookahead_ns;
      spec.dst = delivery[e];
      spec.src_sim = sims[static_cast<size_t>(bd.src_group)];
      net->links_[e]->set_boundary(channels->Add(spec));
    }
  }

  // Each site's single egress edge (validated above).
  std::vector<EdgeId> site_egress(nodes_.size(), -1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (nodes_[static_cast<size_t>(edges_[e].from)].kind == NodeKind::kSite) {
      site_egress[static_cast<size_t>(edges_[e].from)] = static_cast<EdgeId>(e);
    }
  }

  // --- Phase 6: sendbox managers, in bundle declaration order. This is the
  // only construction that schedules events (control ticks), so declaration
  // order fixes the event-id assignment and with it byte-level determinism.
  // A site's FIRST bundle constructs the site's manager with every bundle the
  // site declares (all later ones are already covered). ---
  auto build_manager = [&](NodeId site_node) {
    const NodeDecl& src = nodes_[static_cast<size_t>(site_node)];
    SendboxManager::Policy policy;
    for (const auto& [node, p] : site_policies_) {
      if (node == site_node) {
        policy = p;
      }
    }
    std::vector<SendboxManager::TenantPolicy> site_tenants;
    for (const auto& [node, ten] : tenants_) {
      if (node == site_node) {
        site_tenants.push_back(ten);
      }
    }
    auto tenant_index = [&](const std::string& name) {
      for (size_t t = 0; t < site_tenants.size(); ++t) {
        if (site_tenants[t].name == name) {
          return t;
        }
      }
      BUNDLER_CHECK(false);
      return size_t{0};
    };
    std::vector<SendboxManager::BundleDecl> decls;
    for (size_t b = 0; b < bundles_.size(); ++b) {
      const BundleSpec& bundle = bundles_[b];
      if (bundle.src_site != site_node) {
        continue;
      }
      const SiteId remote = nodes_[static_cast<size_t>(bundle.dst_site)].site;
      if (bundle.tenant.empty()) {
        // The site's only bundle (validated): its sendbox config is the
        // whole site policy. The site bucket runs at max_rate, which the
        // controller never exceeds, with the bundle bucket's burst, so it
        // never holds a packet the bundle bucket would pass.
        const SendboxConfig& sb = bundle.sendbox;
        policy.aggregate_rate = sb.max_rate;
        policy.control_interval = sb.control_interval;
        policy.bundle_qdisc_factory =
            sb.scheduler_factory
                ? sb.scheduler_factory
                : [type = sb.scheduler, limit = sb.queue_limit_pkts]() {
                    return MakeScheduler(type, limit);
                  };
        SendboxManager::TenantPolicy tenant;
        tenant.name = BundleName(src.site, remote);
        tenant.committed_rate = Rate::Zero();  // always admitted
        site_tenants.push_back(tenant);
      }
      SendboxManager::BundleDecl decl;
      decl.tenant = bundle.tenant.empty() ? 0 : tenant_index(bundle.tenant);
      decl.class_weight = bundle.class_weight;
      decl.remote_site = remote;
      decl.control = bundle.sendbox;
      net->bundle_slot_[b] = {site_node, static_cast<int>(decls.size())};
      decls.push_back(std::move(decl));
    }
    EdgeId egress = site_egress[static_cast<size_t>(site_node)];
    net->managers_[static_cast<size_t>(site_node)] =
        std::make_unique<SendboxManager>(
            sim_of(site_node), policy, std::move(site_tenants),
            std::move(decls), src.site,
            net->edge_entries_[static_cast<size_t>(egress)]);
  };
  net->managers_.resize(nodes_.size());
  net->bundle_slot_.assign(bundles_.size(), {-1, -1});
  for (const BundleSpec& bundle : bundles_) {
    if (net->managers_[static_cast<size_t>(bundle.src_site)] == nullptr) {
      build_manager(bundle.src_site);
    }
  }
  // Tenanted sites whose tenants declared no bundles yet still get their
  // manager (admission machinery, counters, and the shared tick exist even
  // when every tenant is idle), after all bundle-driven construction.
  for (const auto& [node, ten] : tenants_) {
    (void)ten;
    if (net->managers_[static_cast<size_t>(node)] == nullptr) {
      build_manager(node);
    }
  }

  // --- Phase 7: routing tables. Per router, a breadth-first search over
  // edges (declaration order breaks ties, so routes are deterministic);
  // site nodes are endpoints, never transit. ---
  std::vector<std::vector<EdgeId>> out_edges(nodes_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    out_edges[static_cast<size_t>(edges_[e].from)].push_back(static_cast<EdgeId>(e));
  }
  // first_hop[r][n]: first edge out of router r on a shortest path to node n,
  // or -1. Filled for every router; reused by the bundle path validation.
  std::vector<std::vector<EdgeId>> first_hop(
      nodes_.size(), std::vector<EdgeId>(nodes_.size(), -1));
  for (size_t r = 0; r < nodes_.size(); ++r) {
    if (nodes_[r].kind != NodeKind::kRouter) {
      continue;
    }
    std::deque<NodeId> frontier{static_cast<NodeId>(r)};
    std::vector<bool> seen(nodes_.size(), false);
    seen[r] = true;
    while (!frontier.empty()) {
      NodeId at = frontier.front();
      frontier.pop_front();
      // Only the start router and intermediate routers forward packets.
      if (at != static_cast<NodeId>(r) &&
          nodes_[static_cast<size_t>(at)].kind == NodeKind::kSite) {
        continue;
      }
      for (EdgeId e : out_edges[static_cast<size_t>(at)]) {
        NodeId to = edges_[static_cast<size_t>(e)].to;
        if (seen[static_cast<size_t>(to)]) {
          continue;
        }
        seen[static_cast<size_t>(to)] = true;
        first_hop[r][static_cast<size_t>(to)] =
            at == static_cast<NodeId>(r) ? e : first_hop[r][static_cast<size_t>(at)];
        frontier.push_back(to);
      }
    }
    for (size_t n = 0; n < nodes_.size(); ++n) {
      if (nodes_[n].kind != NodeKind::kSite || first_hop[r][n] < 0) {
        continue;
      }
      net->routers_[r]->AddSiteRoute(
          nodes_[n].site, net->edge_entries_[static_cast<size_t>(first_hop[r][n])]);
    }
  }

  // Every site must be deliverable-to by some router, else it is dangling.
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind != NodeKind::kSite) {
      continue;
    }
    bool reachable = false;
    for (size_t r = 0; r < nodes_.size() && !reachable; ++r) {
      reachable = nodes_[r].kind == NodeKind::kRouter && first_hop[r][n] >= 0;
    }
    BUNDLER_CHECK_MSG(reachable, "site '%s' is unreachable from every router",
                      nodes_[n].name.c_str());
  }

  // --- Phase 8: bundle plumbing that depends on routes. ---
  // Walks next hops from `from_site`'s egress toward `to_site`; returns the
  // edges traversed, or an empty list when the route never arrives.
  auto route_edges = [&](NodeId from_site, NodeId to_site) {
    std::vector<EdgeId> path;
    EdgeId e = site_egress[static_cast<size_t>(from_site)];
    for (size_t hops = 0; hops <= nodes_.size(); ++hops) {
      path.push_back(e);
      NodeId at = edges_[static_cast<size_t>(e)].to;
      if (at == to_site) {
        return path;
      }
      if (nodes_[static_cast<size_t>(at)].kind != NodeKind::kRouter ||
          first_hop[static_cast<size_t>(at)][static_cast<size_t>(to_site)] < 0) {
        break;
      }
      e = first_hop[static_cast<size_t>(at)][static_cast<size_t>(to_site)];
    }
    path.clear();
    return path;
  };

  for (size_t b = 0; b < bundles_.size(); ++b) {
    const BundleSpec& bundle = bundles_[b];
    const NodeDecl& src = nodes_[static_cast<size_t>(bundle.src_site)];
    const NodeDecl& dst = nodes_[static_cast<size_t>(bundle.dst_site)];

    std::vector<EdgeId> forward = route_edges(bundle.src_site, bundle.dst_site);
    BUNDLER_CHECK_MSG(!forward.empty(),
                      "bundle %zu: no forward route from site '%s' to site '%s'", b,
                      src.name.c_str(), dst.name.c_str());
    bool crosses_ingress = false;
    for (EdgeId e : forward) {
      crosses_ingress = crosses_ingress || e == bundle.ingress_edge;
    }
    BUNDLER_CHECK_MSG(
        crosses_ingress,
        "bundle %zu: forward route from site '%s' to site '%s' does not traverse "
        "ingress edge '%s' — the receivebox would never see the bundle",
        b, src.name.c_str(), dst.name.c_str(),
        edges_[static_cast<size_t>(bundle.ingress_edge)].name.c_str());
    BUNDLER_CHECK_MSG(
        !route_edges(bundle.dst_site, bundle.src_site).empty(),
        "bundle %zu: no reverse route from site '%s' back to site '%s' — the "
        "out-of-band feedback loop cannot close",
        b, dst.name.c_str(), src.name.c_str());

    // Feedback is injected as if sent by the destination site.
    net->receiveboxes_[b]->set_reverse(
        net->edge_entries_[static_cast<size_t>(
            site_egress[static_cast<size_t>(bundle.dst_site)])]);
  }

  // --- Phase 9: host egress and control. A site's manager, where one is
  // attached, takes both the host's outgoing packets and the feedback that
  // arrives at the host for CtlAddress(site). ---
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind != NodeKind::kSite) {
      continue;
    }
    SendboxManager* manager = net->managers_[n].get();
    net->hosts_[n]->set_egress(
        manager != nullptr
            ? manager
            : net->edge_entries_[static_cast<size_t>(site_egress[n])]);
    net->hosts_[n]->set_ctl(manager);
  }

  return net;
}

std::string NetBuilder::ToDot(const std::string& graph_name) const {
  std::string dot = "digraph \"" + graph_name + "\" {\n";
  dot += "  rankdir=LR;\n  node [fontsize=10]; edge [fontsize=9];\n";
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const NodeDecl& node = nodes_[n];
    std::string label = node.name;
    if (node.kind == NodeKind::kSite) {
      label += "\\nsite " + std::to_string(node.site);
    }
    for (size_t b = 0; b < bundles_.size(); ++b) {
      if (bundles_[b].src_site == static_cast<NodeId>(n)) {
        label += bundles_[b].tenant.empty()
                     ? "\\n[sendbox b" + std::to_string(b) + "]"
                     : "\\n[b" + std::to_string(b) + " tenant " +
                           bundles_[b].tenant + "]";
      }
      if (bundles_[b].dst_site == static_cast<NodeId>(n)) {
        label += "\\n[bundle b" + std::to_string(b) + " dst]";
      }
    }
    dot += "  n" + std::to_string(n) + " [label=\"" + label + "\", shape=" +
           (node.kind == NodeKind::kSite ? "box" : "ellipse") + "];\n";
  }
  for (size_t e = 0; e < edges_.size(); ++e) {
    const EdgeDecl& edge = edges_[e];
    std::string attrs;
    switch (edge.kind) {
      case EdgeKind::kLink:
        attrs = "label=\"" + edge.name + "\\n" + FormatRate(edge.link.rate) + ", " +
                FormatDelay(edge.link.delay);
        break;
      case EdgeKind::kMultipath:
        attrs = "label=\"" + edge.name + "\\n" + std::to_string(edge.paths.size()) +
                " paths";
        break;
      case EdgeKind::kWire:
        attrs = "style=dashed, label=\"";
        break;
    }
    for (size_t b = 0; b < bundles_.size(); ++b) {
      if (bundles_[b].ingress_edge == static_cast<EdgeId>(e)) {
        attrs += "\\n[receivebox b" + std::to_string(b) + "]";
      }
    }
    for (size_t m = 0; m < monitors_.size(); ++m) {
      if (monitors_[m].edge == static_cast<EdgeId>(e)) {
        attrs += monitors_[m].kind == MonitorKind::kQueueDelay ? "\\n(qmon)"
                                                               : "\\n(meter)";
      }
    }
    for (size_t f = 0; f < faults_.size(); ++f) {
      if (faults_[f].edge == static_cast<EdgeId>(e)) {
        attrs += "\\n(fault f" + std::to_string(f) + ")";
      }
    }
    dot += "  n" + std::to_string(edge.from) + " -> n" + std::to_string(edge.to) +
           " [" + attrs + "\"];\n";
  }
  dot += "}\n";
  return dot;
}

Net::~Net() {
  for (Simulator* sim : sims_) {
    sim->counters().FreezeExposed();
  }
}

Host* Net::host(NetBuilder::NodeId node) {
  BUNDLER_CHECK_MSG(node >= 0 && static_cast<size_t>(node) < hosts_.size() &&
                        hosts_[static_cast<size_t>(node)] != nullptr,
                    "node %d is not a site", node);
  return hosts_[static_cast<size_t>(node)].get();
}

Host* Net::host_at_site(SiteId site) {
  for (auto& host : hosts_) {
    if (host != nullptr && SiteOf(host->address()) == site) {
      return host.get();
    }
  }
  BUNDLER_CHECK_MSG(false, "no site with id %u", static_cast<unsigned>(site));
  return nullptr;
}

Router* Net::router(NetBuilder::NodeId node) {
  BUNDLER_CHECK_MSG(node >= 0 && static_cast<size_t>(node) < routers_.size() &&
                        routers_[static_cast<size_t>(node)] != nullptr,
                    "node %d is not a router", node);
  return routers_[static_cast<size_t>(node)].get();
}

Link* Net::link(NetBuilder::EdgeId edge) {
  BUNDLER_CHECK_MSG(edge >= 0 && static_cast<size_t>(edge) < links_.size() &&
                        links_[static_cast<size_t>(edge)] != nullptr,
                    "edge %d is not a plain link", edge);
  return links_[static_cast<size_t>(edge)].get();
}

MultipathLink* Net::multipath(NetBuilder::EdgeId edge) {
  BUNDLER_CHECK_MSG(edge >= 0 && static_cast<size_t>(edge) < multipaths_.size() &&
                        multipaths_[static_cast<size_t>(edge)] != nullptr,
                    "edge %d is not a multipath link", edge);
  return multipaths_[static_cast<size_t>(edge)].get();
}

size_t Net::num_paths(NetBuilder::EdgeId edge) {
  BUNDLER_CHECK_MSG(edge >= 0 && static_cast<size_t>(edge) < edge_entries_.size(),
                    "no edge %d", edge);
  if (multipaths_[static_cast<size_t>(edge)] != nullptr) {
    return multipaths_[static_cast<size_t>(edge)]->num_paths();
  }
  BUNDLER_CHECK_MSG(links_[static_cast<size_t>(edge)] != nullptr,
                    "edge %d is a wire; wires have no transmission paths", edge);
  return 1;
}

Link* Net::path_link(NetBuilder::EdgeId edge, size_t path) {
  if (static_cast<size_t>(edge) < multipaths_.size() &&
      multipaths_[static_cast<size_t>(edge)] != nullptr) {
    return multipaths_[static_cast<size_t>(edge)]->path(path);
  }
  BUNDLER_CHECK(path == 0);
  return link(edge);
}

SendboxManager* Net::sendbox(NetBuilder::BundleId bundle) {
  BUNDLER_CHECK_MSG(bundle >= 0 && static_cast<size_t>(bundle) < bundle_slot_.size(),
                    "no bundle %d", bundle);
  return managers_[static_cast<size_t>(bundle_slot_[static_cast<size_t>(bundle)].first)]
      .get();
}

Receivebox* Net::receivebox(NetBuilder::BundleId bundle) {
  BUNDLER_CHECK_MSG(bundle >= 0 && static_cast<size_t>(bundle) < receiveboxes_.size(),
                    "no bundle %d", bundle);
  return receiveboxes_[static_cast<size_t>(bundle)].get();
}

SendboxManager* Net::manager(NetBuilder::NodeId node) {
  BUNDLER_CHECK_MSG(node >= 0 && static_cast<size_t>(node) < managers_.size() &&
                        managers_[static_cast<size_t>(node)] != nullptr,
                    "node %d is not a sendbox site", node);
  return managers_[static_cast<size_t>(node)].get();
}

bool Net::bundle_admitted(NetBuilder::BundleId bundle) {
  return sendbox(bundle)->admitted(
      static_cast<size_t>(bundle_slot_[static_cast<size_t>(bundle)].second));
}

BundleController* Net::bundle_controller(NetBuilder::BundleId bundle) {
  return sendbox(bundle)->controller(
      static_cast<size_t>(bundle_slot_[static_cast<size_t>(bundle)].second));
}

QueueDelayMonitor* Net::queue_monitor(NetBuilder::MonitorId id) {
  BUNDLER_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < queue_monitors_.size() &&
                        queue_monitors_[static_cast<size_t>(id)] != nullptr,
                    "monitor %d is not a queue monitor", id);
  return queue_monitors_[static_cast<size_t>(id)].get();
}

RateMeter* Net::rate_meter(NetBuilder::MonitorId id) {
  BUNDLER_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < rate_meters_.size() &&
                        rate_meters_[static_cast<size_t>(id)] != nullptr,
                    "monitor %d is not a rate meter", id);
  return rate_meters_[static_cast<size_t>(id)].get();
}

FaultInjector* Net::fault_injector(NetBuilder::FaultId id) {
  BUNDLER_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < fault_injectors_.size(),
                    "no fault profile %d", id);
  return fault_injectors_[static_cast<size_t>(id)].get();
}

}  // namespace bundler
