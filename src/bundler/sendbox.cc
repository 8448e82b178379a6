#include "src/bundler/sendbox.h"

#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/util/check.h"

namespace bundler {

std::unique_ptr<Qdisc> MakeScheduler(SchedulerType type, int64_t limit_pkts,
                                     uint64_t perturbation) {
  switch (type) {
    case SchedulerType::kFifo:
      return std::make_unique<DropTailFifo>(limit_pkts * kMtuBytes);
    case SchedulerType::kSfq: {
      Sfq::Config cfg;
      cfg.limit_packets = limit_pkts;
      cfg.perturbation = perturbation;
      return std::make_unique<Sfq>(cfg);
    }
    case SchedulerType::kFqCodel: {
      FqCodel::Config cfg;
      cfg.limit_packets = limit_pkts;
      cfg.perturbation = perturbation;
      return std::make_unique<FqCodel>(cfg);
    }
    case SchedulerType::kPrio:
      return std::make_unique<StrictPrio>(3, limit_pkts * kMtuBytes / 3);
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

}  // namespace bundler
