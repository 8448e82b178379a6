#include "src/qdisc/token_bucket.h"

#include <algorithm>

#include "src/util/check.h"

namespace bundler {

TokenBucket::TokenBucket(Rate rate, int64_t burst_bytes, TimePoint now)
    : rate_(rate),
      burst_bytes_(burst_bytes),
      tokens_(static_cast<double>(burst_bytes)),
      last_refill_(now) {
  BUNDLER_CHECK(burst_bytes_ > 0);
}

void TokenBucket::Refill(TimePoint now) {
  if (now <= last_refill_) {
    return;
  }
  tokens_ += rate_.BytesPerSecond() * (now - last_refill_).ToSeconds();
  tokens_ = std::min(tokens_, static_cast<double>(burst_bytes_));
  last_refill_ = now;
}

void TokenBucket::SetRate(Rate rate, TimePoint now) {
  Refill(now);  // settle accounting at the old rate first
  rate_ = rate;
}

bool TokenBucket::CanSend(int64_t bytes, TimePoint now) {
  Refill(now);
  // Tolerate sub-byte floating-point dust so a timer armed for "exactly when
  // the deficit is repaid" is never judged fractionally early.
  return tokens_ >= static_cast<double>(bytes) - 1e-6;
}

TimeDelta TokenBucket::TimeUntilAvailable(int64_t bytes, TimePoint now) {
  Refill(now);
  double deficit = static_cast<double>(bytes) - tokens_;
  if (deficit <= 0.0) {
    return TimeDelta::Zero();
  }
  if (rate_.IsZero()) {
    return TimeDelta::Infinite();
  }
  // Round up to the next nanosecond: waking even fractionally early would
  // find the bucket still short and re-arm a zero-length timer forever.
  double ns = deficit / rate_.BytesPerSecond() * 1e9;
  return TimeDelta::Nanos(static_cast<int64_t>(ns) + 1);
}

void TokenBucket::Consume(int64_t bytes, TimePoint now) {
  Refill(now);
  // Allowed to go slightly negative when the dequeued packet differs from the
  // peeked one (e.g. SFQ rotated buckets); the deficit is repaid by waiting.
  tokens_ -= static_cast<double>(bytes);
}

}  // namespace bundler
