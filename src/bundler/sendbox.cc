#include "src/bundler/sendbox.h"

#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/util/check.h"

namespace bundler {

std::unique_ptr<Qdisc> MakeScheduler(SchedulerType type, int64_t limit_pkts) {
  switch (type) {
    case SchedulerType::kFifo:
      return std::make_unique<DropTailFifo>(limit_pkts * kMtuBytes);
    case SchedulerType::kSfq:
      return std::make_unique<Sfq>(limit_pkts);
    case SchedulerType::kFqCodel:
      return std::make_unique<FqCodel>(limit_pkts);
    case SchedulerType::kPrio:
      return std::make_unique<StrictPrio>(limit_pkts * kMtuBytes /
                                          static_cast<int64_t>(StrictPrio::kNumBands));
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

}  // namespace bundler
