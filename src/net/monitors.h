// Link monitors: per-packet queue-delay traces and windowed throughput
// meters, optionally filtered to one site pair's data (e.g. "bundle data
// only"). These provide the ground truth the paper's Figures 2, 5, 6, 10
// compare against.
#ifndef SRC_NET_MONITORS_H_
#define SRC_NET_MONITORS_H_

#include <optional>
#include <string>

#include "src/net/link.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/timeseries.h"

namespace bundler {

// Which packets a monitor counts: every packet (the default, ACKs included),
// or data packets from one source site, optionally to one destination site.
// A plain value, so NetBuilder copies it out of a monitor declaration during
// Build.
class PacketFilter {
 public:
  PacketFilter() = default;
  static PacketFilter DataFrom(SiteId src) { return PacketFilter(src, std::nullopt); }
  static PacketFilter DataFrom(SiteId src, SiteId dst) { return PacketFilter(src, dst); }

  bool Matches(const Packet& pkt) const {
    if (!src_) {
      return true;
    }
    return pkt.type == PacketType::kData && SiteOf(pkt.key.src) == *src_ &&
           (!dst_ || SiteOf(pkt.key.dst) == *dst_);
  }

 private:
  PacketFilter(SiteId src, std::optional<SiteId> dst) : src_(src), dst_(dst) {}

  std::optional<SiteId> src_;  // unset: every packet
  std::optional<SiteId> dst_;  // unset: any destination
};

// Records (time, queue delay ms) for every matching packet dequeued from a
// link's queue.
class QueueDelayMonitor : public LinkObserver {
 public:
  explicit QueueDelayMonitor(PacketFilter filter = {}) : filter_(filter) {}

  void OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) override;

  const TimeSeries& delay_ms() const { return delay_ms_; }
  // Queue delay at (or latest before) time t; 0 when no samples precede t.
  double DelayMsAt(TimePoint t) const;

 private:
  PacketFilter filter_;
  TimeSeries delay_ms_;
};

// Counts matching bytes at dequeue time and folds them into fixed-width rate
// samples.
class RateMeter : public LinkObserver {
 public:
  RateMeter(Simulator* sim, TimeDelta window, PacketFilter filter = {});

  void OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) override;

  // Rate over windows that have fully elapsed.
  const TimeSeries& rate_mbps() const { return rate_mbps_; }
  // Average rate over [from, to) computed from raw byte counts.
  Rate AverageRate(TimePoint from, TimePoint to) const;
  int64_t total_bytes() const { return total_bytes_; }
  // Delivery rate around time t (mean of window samples covering t +/- one
  // window); 0 when no data.
  double RateMbpsAt(TimePoint t) const;

 private:
  void Roll(TimePoint now);

  TimeDelta window_;
  PacketFilter filter_;
  TimeSeries rate_mbps_;
  TimeSeries cumulative_bytes_;  // sampled at window boundaries
  TimePoint window_start_;
  int64_t window_bytes_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_MONITORS_H_
