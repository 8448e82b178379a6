// Sendbox (§4, §6): the source-site middlebox's per-bundle configuration.
// Every bundle is one BundleController (src/bundler/bundle_controller.h)
// steering one bundle queue of a site's SendboxManager
// (src/bundler/sendbox_manager.h); this header holds what a bundle adds on
// top of its control loop — the scheduling policy *inside* the bundle (SFQ
// by default, so short requests bypass bulk) — and the scheduler factory.
// NetBuilder turns a tenant-less bundle's SendboxConfig into a single-tenant
// SendboxManager on its source site.
#ifndef SRC_BUNDLER_SENDBOX_H_
#define SRC_BUNDLER_SENDBOX_H_

#include <functional>
#include <memory>

#include "src/bundler/bundle_controller.h"
#include "src/qdisc/qdisc.h"

namespace bundler {

enum class SchedulerType { kFifo, kSfq, kFqCodel, kPrio };

std::unique_ptr<Qdisc> MakeScheduler(SchedulerType type, int64_t limit_pkts);

// Control knobs are inherited from BundleControlConfig (the per-bundle
// control loop's config); the fields declared here pick the scheduler of the
// bundle's own queue.
struct SendboxConfig : BundleControlConfig {
  SchedulerType scheduler = SchedulerType::kSfq;
  int64_t queue_limit_pkts = 4000;
  // Overrides `scheduler` when set (e.g. a qdisc with its own byte limit).
  // Called once, at construction; a copyable std::function because every
  // copy of the config (NetBuilder::BundleSpec) carries it.
  std::function<std::unique_ptr<Qdisc>()> scheduler_factory;  // lint:allow(datapath-std-function)
};

}  // namespace bundler

#endif  // SRC_BUNDLER_SENDBOX_H_
