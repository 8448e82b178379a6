// Per-bundle control loop. A BundleController owns everything that decides a
// bundle's rate — congestion measurements, the bundle congestion-control
// algorithm, Nimbus elasticity / multipath detection, the PI traffic-passing
// controller, the feedback watchdog, and epoch sizing — but owns no data
// plane and no timer: its SendboxManager calls ControlTick() every
// control_interval with the bundle's backlog and enforced rate, and applies
// the rate it returns to the site's shaping machinery (SiteEgress). Keeping
// the controller timer-free is what lets one manager run N controllers off
// one shared periodic tick, whether the site carries one bundle (every paper
// figure) or hundreds.
#ifndef SRC_BUNDLER_BUNDLE_CONTROLLER_H_
#define SRC_BUNDLER_BUNDLE_CONTROLLER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bundler/measurement.h"
#include "src/bundler/nimbus_detector.h"
#include "src/bundler/pi_controller.h"
#include "src/cc/cc.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace bundler {

enum class BundlerMode {
  kDelayControl,  // normal operation: delay-based rate control, queue at sendbox
  kPassThrough,   // buffer-filling cross traffic detected: let endhosts compete
  kDisabled,      // imbalanced multipath detected: status quo
};

const char* BundlerModeName(BundlerMode mode);

// A bundle is the data from one site to another (§3). Its name,
// "s<local>-s<remote>" (e.g. "s10-s100"), keys every trace component and
// counter of its control loop and its sendbox queue, and names the one
// tenant of a tenant-less bundle's site.
std::string BundleName(SiteId local_site, SiteId remote_site);

// Everything about the control loop a caller may vary. SendboxConfig
// (sendbox.h) derives from this and adds the bundle queue's scheduler. The
// bundle's site pair is not here: it is the controller's identity, given to
// its constructor, and its control addresses derive from it (CtlAddress).
// The mode machine's and the watchdog's tuning values are constants in
// bundle_controller.cc, next to the code that reads them. The measurement
// engine, the Nimbus detector and the PI controller run on their own
// defaults, except that the detector samples once per `control_interval`
// (its pulse sits on an FFT bin of that cadence).
struct BundleControlConfig {
  BundleCcType cc = BundleCcType::kCopa;
  bool nimbus_detection = true;
  bool multipath_detection = true;

  // Feedback watchdog (control-loop resilience). Two independent triggers
  // degrade the bundle gracefully instead of letting it shape on state it
  // cannot trust:
  //  - Staleness: no receivebox feedback has matched for kWatchdogTimeout
  //    (a blackout). While degraded for this cause the controller re-probes
  //    the receivebox with epoch ctl messages at exponentially backed-off
  //    intervals (kWatchdogProbeInitial doubling up to kWatchdogProbeMax),
  //    and the first matched feedback re-syncs immediately.
  //  - Delay-control contract violation: the loop's queue-delay estimate
  //    has stayed above kWatchdogQdelBudget for kWatchdogTimeout straight
  //    while in delay control. Delay control's whole contract is a
  //    near-empty queue; a delay it cannot drain no matter how hard it
  //    backs off is not its delay (a congested *reverse* path inflating
  //    the loop RTT — the asym_reverse_sweep collapse) and shaping on it
  //    strangles the bundle for nothing. Feedback keeps flowing here, so
  //    no probes; re-sync waits for the delay to genuinely clear (below
  //    half the budget, hysteresis against flapping on the congested
  //    queue's sawtooth).
  // Degradation itself is the same for both causes: the shaper opens to
  // `max_rate` (the bundle behaves like status quo) and mode/elasticity
  // decisions freeze. Re-sync reseeds the rate controller from the measured
  // egress rate (ReseedController) and normal control resumes the same
  // tick. Off by default (pinned figures predate it).
  bool watchdog = false;

  // Robust elasticity entries/exits (ROADMAP "close fig10 phase 3 for
  // real"). Three changes, one knob:
  //  - Exit gate: a quiet tick counts toward the pass-through exit only
  //    while the bottleneck is *idle*. In pass-through the sendbox rarely
  //    has a backlog, so the Nimbus probe pulse cannot modulate egress and
  //    a quiet verdict while the bottleneck still holds a standing queue
  //    is uninformative — counting those ticks is what flapped fig10's
  //    phase 2 out of pass-through every ~10 s. Quiet+busy ticks *drain*
  //    the counter (floor 0): a live competitor keeps the bottleneck
  //    mostly busy, so its brief idle dips (loss recovery) never
  //    accumulate into an exit, while a mostly-idle bottleneck — only the
  //    bundle's own transient bursts — still exits promptly.
  //  - Busy entry: kElasticBusyEnterTicks consecutive busy samples while
  //    in delay control enter pass-through without waiting for the FFT
  //    metric. Delay control keeps the bundle's own standing queue ~1 ms
  //    (below the busy threshold), so a multi-second uninterrupted
  //    standing queue means buffer-filling cross traffic — the FFT merely
  //    classifies it a few seconds later.
  //  - Probe-and-commit: a robust exit *is* the probe (delay control with
  //    the reseeded controller). If it bounces straight back into
  //    pass-through (within kElasticReentryWindow), the next exit requires
  //    progressively more quiet-and-idle ticks (doubling, capped at 8x),
  //    mirroring the disabled-mode probe backoff.
  // Off by default for the pinned figures.
  bool robust_elastic_exit = false;

  // The rate controller's start rate, and its restart rate while no egress
  // has been measured yet.
  Rate initial_rate = Rate::Mbps(12);
  Rate max_rate = Rate::Gbps(1);  // pass-through cap / disabled-mode rate
  TimeDelta control_interval = TimeDelta::Millis(10);
  uint32_t initial_epoch_pkts = 16;
};

class BundleController {
 public:
  // Watchdog state machine events, in occurrence order (see
  // BundleControlConfig::watchdog).
  enum class WatchdogEvent { kDegrade, kProbe, kResync };
  // Which trigger caused the current degradation (kNone when not degraded).
  enum class WatchdogCause { kNone, kStale, kDelay };

  // The bundle carries data from `local_site` to `remote_site`. Epoch ctl
  // packets go from CtlAddress(local_site) to the receivebox at
  // CtlAddress(remote_site) through `ctl_out`, bypassing the bundle's
  // shaping queue. Every trace component and counter this controller
  // registers is keyed by BundleName(local_site, remote_site); registration
  // happens here, so the pointers below are never null afterwards. No events
  // are scheduled: the owner calls ControlTick() every
  // config.control_interval.
  BundleController(Simulator* sim, const BundleControlConfig& config,
                   SiteId local_site, SiteId remote_site, PacketHandler* ctl_out);
  BundleController(const BundleController&) = delete;
  BundleController& operator=(const BundleController&) = delete;

  // --- Driven by the owner ---
  // Receivebox congestion feedback addressed to this bundle.
  void OnFeedback(const Packet& pkt);
  // Every bundle data packet leaving the shaping stage: egress accounting +
  // epoch boundary reporting. Datapath-hot; non-virtual.
  void OnDataSent(const Packet& pkt);
  // The control loop body (measure, detect, decide). `queue_bytes` is the
  // bundle's shaper backlog and `shaped_rate` the rate the data plane
  // enforces now; returns the rate to enforce from now on. Call every
  // config.control_interval.
  Rate ControlTick(int64_t queue_bytes, Rate shaped_rate);

  // --- Introspection ---
  BundlerMode mode() const { return mode_; }
  bool watchdog_degraded() const { return wd_degraded_; }
  WatchdogCause watchdog_cause() const { return wd_cause_; }
  const std::vector<std::pair<TimePoint, WatchdogEvent>>& watchdog_log() const {
    return wd_log_;
  }
  uint32_t epoch_size_pkts() const { return epoch_pkts_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  MeasurementEngine& measurement() { return meas_; }
  const NimbusDetector& detector() const { return detector_; }
  // (time, mode) transitions since start; used by Fig. 10's shaded regions.
  const std::vector<std::pair<TimePoint, BundlerMode>>& mode_log() const {
    return mode_log_;
  }

 private:
  void UpdateMode(const BundleMeasurement& m);
  void SwitchMode(BundlerMode next);
  // `rate` is the rate this tick just decided.
  void MaybeUpdateEpochSize(Rate rate);
  void SendEpochCtl();
  // Re-seeds the rate controller for (re-)entering delay control from the
  // measured egress rate, so the bundle keeps roughly its pre-switch share
  // while the controller converges; `initial_rate` only before any egress
  // was measured. Shared by SwitchMode and the watchdog's re-sync.
  void ReseedController(TimePoint now);
  void WatchdogTick(const BundleMeasurement& m);
  void WatchdogProbe(TimePoint now);

  Simulator* sim_;
  BundleControlConfig config_;
  SiteId local_site_;
  SiteId remote_site_;
  PacketHandler* ctl_out_;
  MeasurementEngine meas_;
  std::unique_ptr<BundleCc> cc_;
  NimbusDetector detector_;
  PiController pi_;

  // The data plane's backlog and enforced rate, as handed to the running
  // ControlTick().
  int64_t tick_queue_bytes_ = 0;
  Rate tick_shaped_rate_;

  BundlerMode mode_ = BundlerMode::kDelayControl;
  TimePoint mode_entered_;
  int elastic_ticks_ = 0;
  int nonelastic_ticks_ = 0;
  TimeDelta disabled_probe_backoff_ = TimeDelta::Zero();  // set on first disable
  TimePoint last_disabled_exit_;
  bool mp_grace_cleared_ = false;  // OOO history reset once per grace period

  // Robust-exit probe-and-commit: when the previous pass-through exit bounced
  // back quickly, scale up the quiet-tick requirement (1, 2, 4, 8).
  int elastic_exit_scale_ = 1;
  TimePoint last_elastic_exit_;
  int busy_run_ticks_ = 0;  // consecutive busy samples (robust busy entry)

  // Feedback watchdog state (active only with BundleControlConfig::watchdog).
  bool wd_degraded_ = false;
  WatchdogCause wd_cause_ = WatchdogCause::kNone;
  bool wd_seen_feedback_ = false;  // loop must close once before staleness counts
  TimePoint wd_last_fresh_;
  TimePoint wd_qdel_ok_;  // last tick the delay-control contract held
  TimePoint wd_degraded_since_;
  TimeDelta wd_probe_backoff_ = TimeDelta::Zero();
  TimePoint wd_next_probe_;
  uint64_t wd_probe_seq_ = 0;
  std::vector<std::pair<TimePoint, WatchdogEvent>> wd_log_;

  uint32_t epoch_pkts_;
  TimePoint last_epoch_update_;
  TimePoint last_epoch_ctl_sent_;

  int64_t bytes_sent_ = 0;
  // Data-plane egress rate (EWMA over control ticks). Epoch sizing must use
  // this rather than the feedback-derived send rate: when the feedback loop
  // degrades, the feedback rate goes stale and a stale-undersized epoch floods
  // the receivebox with boundaries, which keeps the loop degraded.
  int64_t bytes_sent_at_last_tick_ = 0;
  double egress_rate_bps_ = 0.0;

  std::vector<std::pair<TimePoint, BundlerMode>> mode_log_;

  // Observability: component ids for the trace stream plus registry-owned
  // counters (all registered in the constructor, so never null afterwards).
  // The pass-through fraction gauge is recomputed every control tick from
  // the cumulative dwell time spent in kPassThrough.
  uint32_t comp_ = 0;
  uint32_t cc_comp_ = 0;
  uint64_t* ctr_mode_transitions_ = nullptr;
  uint64_t* ctr_rate_updates_ = nullptr;
  uint64_t* ctr_cc_updates_ = nullptr;
  uint64_t* ctr_cc_resets_ = nullptr;
  uint64_t* ctr_wd_degrades_ = nullptr;
  uint64_t* ctr_wd_probes_ = nullptr;
  uint64_t* ctr_wd_resyncs_ = nullptr;
  double* passthrough_frac_ = nullptr;
  TimePoint start_time_;
  TimeDelta passthrough_accum_ = TimeDelta::Zero();
};

}  // namespace bundler

#endif  // SRC_BUNDLER_BUNDLE_CONTROLLER_H_
