#include "src/bundler/sendbox.h"

#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/util/check.h"

namespace bundler {

// Construction time only: a bundle's qdisc is made once, when its manager is.
std::unique_ptr<Qdisc> MakeScheduler(SchedulerType type, int64_t limit_pkts) {
  switch (type) {
    case SchedulerType::kFifo:
      return std::make_unique<DropTailFifo>(limit_pkts * kMtuBytes);  // lint:allow(datapath-heap-alloc)
    case SchedulerType::kSfq:
      return std::make_unique<Sfq>(limit_pkts);  // lint:allow(datapath-heap-alloc)
    case SchedulerType::kFqCodel:
      return std::make_unique<FqCodel>(limit_pkts);  // lint:allow(datapath-heap-alloc)
    case SchedulerType::kPrio:
      return std::make_unique<StrictPrio>(  // lint:allow(datapath-heap-alloc)
          limit_pkts * kMtuBytes / static_cast<int64_t>(StrictPrio::kNumBands));
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

}  // namespace bundler
