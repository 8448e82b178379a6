// Token-bucket rate enforcement, modeled on the paper's patched Linux TBF
// (§6.1): the bucket is NOT refilled instantaneously when the rate changes,
// so the sendbox's frequent rate updates do not cause bursts.
//
// `TokenBucket` is passive accounting only. The one component that drives
// buckets inside the event loop is SiteEgress (src/bundler/site_egress.h),
// which nests a site and a per-bundle bucket.
#ifndef SRC_QDISC_TOKEN_BUCKET_H_
#define SRC_QDISC_TOKEN_BUCKET_H_

#include <cstdint>

#include "src/util/rate.h"
#include "src/util/time.h"

namespace bundler {

class TokenBucket {
 public:
  TokenBucket(Rate rate, int64_t burst_bytes, TimePoint now);

  // Update the refill rate going forward. Tokens accumulated so far are kept
  // as-is (no instantaneous refill — the TBF patch).
  void SetRate(Rate rate, TimePoint now);

  bool CanSend(int64_t bytes, TimePoint now);
  // Delay until `bytes` worth of tokens will be available (zero if already).
  TimeDelta TimeUntilAvailable(int64_t bytes, TimePoint now);
  void Consume(int64_t bytes, TimePoint now);

  Rate rate() const { return rate_; }

 private:
  void Refill(TimePoint now);

  Rate rate_;
  int64_t burst_bytes_;
  double tokens_;
  TimePoint last_refill_;
};

}  // namespace bundler

#endif  // SRC_QDISC_TOKEN_BUCKET_H_
