// Congestion-control interfaces.
//
// Two flavors exist, mirroring the paper's architecture:
//  - `HostCc`: per-connection window-based control run by end hosts
//    (unmodified by Bundler): Cubic, NewReno, BBR, and the idealized
//    constant-window "proxy" of §7.5.
//  - `BundleCc`: aggregate rate control run by the sendbox on epoch-based
//    measurements (§4.3): Copa, Nimbus BasicDelay, and BBR. The sendbox
//    converts window-based outputs into a rate of cwnd/RTT (§6.1).
#ifndef SRC_CC_CC_H_
#define SRC_CC_CC_H_

#include <cstddef>
#include <memory>

#include "src/util/rate.h"
#include "src/util/time.h"

namespace bundler {

inline constexpr double kInitialCwndPkts = 10.0;

struct AckSample {
  TimePoint now;
  int acked_pkts = 0;
  TimeDelta rtt;              // for the newest acked (non-retransmitted) segment
  double inflight_pkts = 0;   // after this ACK was processed
  Rate delivery_rate;         // receiver-side goodput sample (BBR)
  bool rtt_valid = false;
  // True while the sender is in dupack-triggered fast recovery: loss-based
  // schemes hold the window there (post-RTO slow start still grows).
  bool in_fast_recovery = false;
};

struct LossSample {
  TimePoint now;
  bool is_timeout = false;
  double inflight_pkts = 0;
};

class HostCc {
 public:
  virtual ~HostCc() = default;
  virtual void OnAck(const AckSample& ack) = 0;
  // Called at most once per recovery episode (the transport de-duplicates).
  virtual void OnLoss(const LossSample& loss) = 0;
  virtual double CwndPkts() const = 0;
  // Zero means "no pacing; window-limited only".
  virtual Rate PacingRate() const { return Rate::Zero(); }
  virtual const char* name() const = 0;
};

struct BundleMeasurement {
  TimePoint now;
  TimeDelta rtt;       // windowed (≈1 RTT of epochs) control-loop RTT
  TimeDelta min_rtt;
  Rate send_rate;      // r_in: rate at which the sendbox released bytes
  Rate recv_rate;      // r_out: rate at which the receivebox absorbed bytes
  // Instantaneous (single newest epoch) signals. The windowed rates above are
  // right for rate control, but Nimbus elasticity detection needs the least
  // smoothing possible: averaging over an RTT smears the 5 Hz pulse away.
  TimeDelta inst_rtt;
  Rate inst_send_rate;
  Rate inst_recv_rate;
  int64_t acked_bytes = 0;  // new bytes covered by feedback since last call
  bool fresh = false;       // false when no new feedback arrived this tick
};

class BundleCc {
 public:
  virtual ~BundleCc() = default;
  virtual void OnMeasurement(const BundleMeasurement& m) = 0;
  // The base sending rate r(t) for the bundle (before Nimbus pulsing).
  virtual Rate TargetRate() const = 0;
  // Re-initialize state; called when the sendbox re-enters delay-control mode
  // after passing traffic through (§5.1). `seed_rate` zero restarts cold from
  // the configured initial rate; nonzero restarts warm from that observed
  // rate (the sendbox's measured egress rate at the mode switch), so the
  // controller does not collapse the bundle while it relearns the path.
  virtual void Reset(TimePoint now, Rate seed_rate) = 0;
  virtual const char* name() const = 0;
};

enum class HostCcType { kCubic, kNewReno, kBbr, kConstCwnd };
enum class BundleCcType { kCopa, kBasicDelay, kBbr };

const char* HostCcTypeName(HostCcType type);
const char* BundleCcTypeName(BundleCcType type);

std::unique_ptr<BundleCc> MakeBundleCc(BundleCcType type, Rate initial_rate);

// Inline storage big enough for any concrete HostCc, and no bigger: cc.cc
// static_asserts both that every controller fits and that the slot is the
// largest one (BbrHost, 184 B) rounded up to the alignment. Lets a flow embed
// its controller by value — one fewer heap allocation on the per-flow setup
// path, which an open-loop web workload exercises thousands of times per
// simulated second — without paying for headroom in every flow.
inline constexpr size_t kHostCcStorageBytes = 192;
struct HostCcStorage {
  alignas(alignof(std::max_align_t)) unsigned char bytes[kHostCcStorageBytes];
};

// Constructs the controller inside `storage` and returns it. The caller owns
// the lifetime: call the virtual destructor explicitly (`cc->~HostCc()`).
HostCc* MakeHostCcInPlace(HostCcStorage* storage, HostCcType type);

}  // namespace bundler

#endif  // SRC_CC_CC_H_
