// Strong type for data rates (bits per second) and helpers converting between
// bytes, rates, and transmission times. Stored as double bits/sec: rates in
// this codebase are control-plane quantities (pacing rates, estimates), so
// fractional precision matters more than bit-exact integer math.
#ifndef SRC_UTIL_RATE_H_
#define SRC_UTIL_RATE_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/util/time.h"

namespace bundler {

class Rate {
 public:
  constexpr Rate() : bps_(0.0) {}

  static constexpr Rate BitsPerSec(double bps) { return Rate(bps); }
  static constexpr Rate Kbps(double kbps) { return Rate(kbps * 1e3); }
  static constexpr Rate Mbps(double mbps) { return Rate(mbps * 1e6); }
  static constexpr Rate Gbps(double gbps) { return Rate(gbps * 1e9); }
  static constexpr Rate BytesPerSec(double bytes_per_sec) { return Rate(bytes_per_sec * 8.0); }
  static constexpr Rate Zero() { return Rate(0.0); }

  // Rate implied by transferring `bytes` over `delta`.
  static Rate FromBytesAndTime(int64_t bytes, TimeDelta delta) {
    if (delta.nanos() <= 0) {
      return Rate::Zero();
    }
    return Rate(static_cast<double>(bytes) * 8.0 / delta.ToSeconds());
  }

  constexpr double bps() const { return bps_; }
  constexpr double Mbps() const { return bps_ * 1e-6; }
  constexpr double BytesPerSecond() const { return bps_ / 8.0; }
  constexpr bool IsZero() const { return bps_ <= 0.0; }

  // Time to serialize `bytes` at this rate. Zero and near-zero rates saturate
  // to Infinite instead of overflowing the nanosecond cast (a ~12 kbit/s link
  // already serializes an MTU in about a second; a rate so low that an MTU
  // takes longer than ~292 years is indistinguishable from a dead link).
  TimeDelta TransmitTime(int64_t bytes) const {
    if (bps_ <= 0.0) {
      return TimeDelta::Infinite();
    }
    double ns = static_cast<double>(bytes) * 8.0 * 1e9 / bps_ + 0.5;
    if (ns >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
      return TimeDelta::Infinite();
    }
    return TimeDelta::Nanos(static_cast<int64_t>(ns));
  }

  constexpr Rate operator+(Rate o) const { return Rate(bps_ + o.bps_); }
  constexpr Rate operator-(Rate o) const { return Rate(bps_ - o.bps_); }
  constexpr Rate operator*(double f) const { return Rate(bps_ * f); }
  constexpr Rate operator/(double f) const { return Rate(bps_ / f); }
  constexpr double operator/(Rate o) const { return bps_ / o.bps_; }

  constexpr auto operator<=>(const Rate&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr Rate(double bps) : bps_(bps) {}
  double bps_;
};

}  // namespace bundler

#endif  // SRC_UTIL_RATE_H_
