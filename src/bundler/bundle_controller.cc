#include "src/bundler/bundle_controller.h"

#include <algorithm>
#include <utility>

#include "src/bundler/epoch.h"
#include "src/util/check.h"

namespace bundler {
namespace {

// Multipath hysteresis (§5.2, §7.6: 5% separates single from multi path by
// two orders of magnitude). While disabled the controller periodically
// re-probes delay control (with exponential backoff from kDisabledMinDwell
// up to kDisabledProbeMax): ordering statistics measured under status-quo
// queueing cannot distinguish recovered paths, so recovery requires a probe
// under delay control.
constexpr double kOooDisableThreshold = 0.05;
constexpr double kOooEnableThreshold = 0.01;
constexpr TimeDelta kDisabledMinDwell = TimeDelta::Seconds(4);
constexpr TimeDelta kDisabledProbeMax = TimeDelta::Seconds(60);
// After (re)entering delay control, give the rate controller time to drain
// status-quo queues before judging packet ordering; the judgment then starts
// from a clean slate.
constexpr TimeDelta kMultipathEvalGrace = TimeDelta::Seconds(3);

// Elasticity hysteresis: a Schmitt trigger on the detector metric. Enter
// pass-through after kElasticEnterTicks consecutive ticks above the
// detector's elastic threshold; leave only after kElasticExitTicks
// consecutive ticks *below* kElasticExitMetric (metrics in between hold the
// current mode, preventing flapping on a noisy metric). Tick counts are
// control ticks; the durations assume the 10 ms default interval.
constexpr int kElasticEnterTicks = 30;   // 0.3 s of consecutive elastic verdicts
constexpr int kElasticExitTicks = 500;   // 5 s of consecutive quiet verdicts
constexpr double kElasticExitMetric = 1.5;
constexpr TimeDelta kModeMinDwell = TimeDelta::Seconds(2);

// Robust elasticity (BundleControlConfig::robust_elastic_exit): busy entry
// after kElasticBusyEnterTicks consecutive busy samples, and a pass-through
// re-entry within kElasticReentryWindow of the last exit doubles the next
// exit's evidence requirement.
constexpr int kElasticBusyEnterTicks = 200;  // 2 s of uninterrupted standing queue
constexpr TimeDelta kElasticReentryWindow = TimeDelta::Seconds(10);

// Feedback watchdog (BundleControlConfig::watchdog): the staleness and
// contract-violation window, the re-probe backoff range, and delay
// control's queue-delay budget.
constexpr TimeDelta kWatchdogTimeout = TimeDelta::Millis(500);
constexpr TimeDelta kWatchdogProbeInitial = TimeDelta::Millis(250);
constexpr TimeDelta kWatchdogProbeMax = TimeDelta::Seconds(4);
constexpr TimeDelta kWatchdogQdelBudget = TimeDelta::Millis(50);

}  // namespace

const char* BundlerModeName(BundlerMode mode) {
  switch (mode) {
    case BundlerMode::kDelayControl:
      return "delay_control";
    case BundlerMode::kPassThrough:
      return "pass_through";
    case BundlerMode::kDisabled:
      return "disabled";
  }
  return "?";
}

BundleController::BundleController(Simulator* sim,
                                   const BundleControlConfig& config,
                                   PacketHandler* ctl_out,
                                   const std::string& obs_name)
    : sim_(sim),
      config_(config),
      ctl_out_(ctl_out),
      cc_(MakeBundleCc(config.cc, config.initial_rate)),
      // The detector is fed once per control tick, so its pulse must land on
      // an FFT bin of that cadence.
      detector_(config.control_interval),
      mode_entered_(sim->now()),
      epoch_pkts_(config.initial_epoch_pkts),
      last_epoch_update_(sim->now()),
      last_epoch_ctl_sent_(sim->now()) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(ctl_out_ != nullptr);
  BUNDLER_CHECK(epoch_pkts_ != 0 && (epoch_pkts_ & (epoch_pkts_ - 1)) == 0);
  mode_log_.emplace_back(sim_->now(), mode_);
  start_time_ = sim_->now();

  // Observability wiring. `obs_name` names every component and counter this
  // loop owns; the manager passes the bundle's site pair, so counter names
  // collide exactly when two controllers genuinely are the same bundle.
  obs::Tracer& tracer = sim_->trace();
  obs::CounterRegistry& reg = sim_->counters();
  comp_ = tracer.RegisterComponent("sendbox", obs_name);
  cc_comp_ = tracer.RegisterComponent("cc", obs_name);
  ctr_mode_transitions_ = reg.Counter("sendbox." + obs_name + ".mode_transitions");
  ctr_rate_updates_ = reg.Counter("sendbox." + obs_name + ".rate_updates");
  ctr_cc_updates_ = reg.Counter("cc." + obs_name + ".rate_updates");
  ctr_cc_resets_ = reg.Counter("cc." + obs_name + ".resets");
  if (config_.watchdog) {
    ctr_wd_degrades_ = reg.Counter("watchdog." + obs_name + ".degrades");
    ctr_wd_probes_ = reg.Counter("watchdog." + obs_name + ".probes");
    ctr_wd_resyncs_ = reg.Counter("watchdog." + obs_name + ".resyncs");
  }
  passthrough_frac_ = reg.Gauge("sendbox." + obs_name + ".passthrough_frac");
  detector_.BindObs(&tracer, tracer.RegisterComponent("nimbus", obs_name),
                    reg.Counter("nimbus." + obs_name + ".evals"));
  pi_.BindObs(&tracer, tracer.RegisterComponent("pi", obs_name),
              reg.Counter("pi." + obs_name + ".rate_updates"),
              reg.Counter("pi." + obs_name + ".resets"));
}

void BundleController::OnFeedback(const Packet& pkt) {
  meas_.OnFeedback(pkt.boundary_hash, pkt.fb_bytes_received, sim_->now());
}

void BundleController::OnDataSent(const Packet& pkt) {
  bytes_sent_ += pkt.size_bytes;
  uint64_t hash = BoundaryHash(pkt);
  if (IsEpochBoundary(hash, epoch_pkts_)) {
    meas_.OnBoundarySent(hash, sim_->now(), bytes_sent_);
  }
}

void BundleController::SwitchMode(BundlerMode next) {
  if (next == mode_) {
    return;
  }
  TimePoint now = sim_->now();
  const BundlerMode prev = mode_;
  const TimeDelta dwell = now - mode_entered_;
  if (prev == BundlerMode::kPassThrough) {
    passthrough_accum_ += dwell;
  }
  ++*ctr_mode_transitions_;
  if (sim_->trace().enabled(obs::TraceCat::kMode)) {
    sim_->trace().Trace(obs::TraceCat::kMode, obs::TraceEv::kModeSwitch, comp_,
                        now, static_cast<uint64_t>(next),
                        static_cast<uint64_t>(prev),
                        static_cast<uint64_t>(dwell.nanos()));
  }
  mode_ = next;
  mode_entered_ = now;
  elastic_ticks_ = 0;
  nonelastic_ticks_ = 0;
  mp_grace_cleared_ = false;
  mode_log_.emplace_back(now, next);
  switch (next) {
    case BundlerMode::kDelayControl:
      // Coming back from pass-through/disabled.
      ReseedController(now);
      break;
    case BundlerMode::kPassThrough: {
      Rate start = std::max(detector_.mu_estimate(), tick_shaped_rate_);
      pi_.Reset(start, tick_queue_bytes_, now);
      break;
    }
    case BundlerMode::kDisabled:
      break;
  }
}

void BundleController::UpdateMode(const BundleMeasurement& m) {
  (void)m;
  TimePoint now = sim_->now();
  TimeDelta dwell = now - mode_entered_;

  if (config_.multipath_detection) {
    if (mode_ == BundlerMode::kDelayControl && dwell < kMultipathEvalGrace) {
      return;  // let the controller settle before judging ordering
    }
    if (mode_ == BundlerMode::kDelayControl && !mp_grace_cleared_) {
      meas_.ResetOooHistory();
      mp_grace_cleared_ = true;
      return;
    }
    double frac = meas_.OutOfOrderFraction(now);
    if (mode_ != BundlerMode::kDisabled && frac > kOooDisableThreshold) {
      // Exponential probe backoff: if the last delay-control attempt survived
      // only briefly, wait longer before the next probe.
      bool probe_failed_quickly =
          last_disabled_exit_ != TimePoint() &&
          now - last_disabled_exit_ < TimeDelta::Seconds(10);
      if (disabled_probe_backoff_.IsZero() || !probe_failed_quickly) {
        disabled_probe_backoff_ = kDisabledMinDwell;
      } else {
        disabled_probe_backoff_ =
            std::min(disabled_probe_backoff_ * 2.0, kDisabledProbeMax);
      }
      SwitchMode(BundlerMode::kDisabled);
      return;
    }
    if (mode_ == BundlerMode::kDisabled) {
      if (frac < kOooEnableThreshold && dwell > kDisabledMinDwell) {
        last_disabled_exit_ = now;
        SwitchMode(BundlerMode::kDelayControl);
      } else if (dwell > disabled_probe_backoff_) {
        // Probe: ordering measured under status-quo queueing says little
        // about how delay control would fare; try it with a clean slate.
        meas_.ResetOooHistory();
        last_disabled_exit_ = now;
        SwitchMode(BundlerMode::kDelayControl);
      }
      return;
    }
  }

  if (!config_.nimbus_detection) {
    return;
  }
  if (detector_.last_sample_busy()) {
    ++busy_run_ticks_;
  } else {
    busy_run_ticks_ = 0;
  }
  if (detector_.IsElastic()) {
    ++elastic_ticks_;
    nonelastic_ticks_ = 0;
  } else if (detector_.elasticity_metric() < kElasticExitMetric) {
    // Robust exits gate the counter on bottleneck busyness: in pass-through
    // the sendbox rarely has a backlog, so the probe pulse cannot modulate
    // egress and a quiet verdict while the bottleneck still holds a standing
    // queue is uninformative. Quiet+idle ticks are evidence the cross
    // traffic left and count up; quiet+busy ticks count *down* (floor 0), so
    // a mostly-busy bottleneck — a live competitor with brief idle dips
    // during its loss recovery — never accumulates exit evidence, while a
    // mostly-idle one (only the bundle's own transient bursts) still exits
    // within ~exit_ticks / (2*idle_frac - 1) ticks.
    if (!config_.robust_elastic_exit || !detector_.last_sample_busy()) {
      ++nonelastic_ticks_;
    } else if (nonelastic_ticks_ > 0) {
      --nonelastic_ticks_;
    }
    elastic_ticks_ = 0;
  }
  // Robust busy entry: delay control keeps the bundle's own standing queue
  // ~1 ms (below the detector's busy threshold), so an uninterrupted
  // multi-second standing queue means buffer-filling cross traffic even
  // before the FFT metric classifies it.
  const bool busy_enter =
      config_.robust_elastic_exit && busy_run_ticks_ >= kElasticBusyEnterTicks;
  // Metric between the exit and enter thresholds: hold the current mode.
  const int exit_ticks =
      kElasticExitTicks * (config_.robust_elastic_exit ? elastic_exit_scale_ : 1);
  if (mode_ == BundlerMode::kDelayControl &&
      (elastic_ticks_ >= kElasticEnterTicks || busy_enter) &&
      dwell > kModeMinDwell) {
    if (config_.robust_elastic_exit) {
      // Probe-and-commit: the previous exit *was* the probe (delay control
      // with the reseeded controller). Bouncing straight back means the
      // cross traffic never left, so demand more quiet evidence next time;
      // a re-entry long after the exit is a genuinely new episode.
      elastic_exit_scale_ =
          last_elastic_exit_ != TimePoint() &&
                  now - last_elastic_exit_ < kElasticReentryWindow
              ? std::min(elastic_exit_scale_ * 2, 8)
              : 1;
    }
    SwitchMode(BundlerMode::kPassThrough);
  } else if (mode_ == BundlerMode::kPassThrough &&
             nonelastic_ticks_ >= exit_ticks &&
             dwell > kModeMinDwell) {
    last_elastic_exit_ = now;
    SwitchMode(BundlerMode::kDelayControl);
  }
}

void BundleController::MaybeUpdateEpochSize(Rate rate) {
  if (!meas_.has_min_rtt()) {
    return;
  }
  TimePoint now = sim_->now();
  Rate basis = egress_rate_bps_ > 0 ? Rate::BitsPerSec(egress_rate_bps_) : rate;
  uint32_t desired = ComputeEpochSizePkts(meas_.min_rtt(), basis);
  if (desired != epoch_pkts_ && now - last_epoch_update_ >= meas_.srtt()) {
    epoch_pkts_ = desired;
    last_epoch_update_ = now;
    if (sim_->trace().enabled(obs::TraceCat::kSendbox)) {
      sim_->trace().Trace(obs::TraceCat::kSendbox, obs::TraceEv::kSbEpoch,
                          comp_, now, desired,
                          static_cast<uint64_t>(meas_.srtt().nanos()));
    }
    SendEpochCtl();
    return;
  }
  // Refresh the receivebox periodically in case a control message was lost.
  if (now - last_epoch_ctl_sent_ > TimeDelta::Seconds(1)) {
    SendEpochCtl();
  }
}

void BundleController::ReseedController(TimePoint now) {
  const Rate seed = egress_rate_bps_ > 0 ? Rate::BitsPerSec(egress_rate_bps_)
                                         : config_.initial_rate;
  cc_->Reset(now, seed);
  ++*ctr_cc_resets_;
  if (sim_->trace().enabled(obs::TraceCat::kCc)) {
    sim_->trace().Trace(obs::TraceCat::kCc, obs::TraceEv::kCcReset, cc_comp_,
                        now, obs::EncodeRate(seed));
  }
}

void BundleController::WatchdogTick(const BundleMeasurement& m) {
  TimePoint now = sim_->now();
  if (m.fresh) {
    if (!wd_seen_feedback_) {
      wd_seen_feedback_ = true;
      wd_qdel_ok_ = now;
    }
    wd_last_fresh_ = now;
  }
  if (!wd_seen_feedback_) {
    return;  // the loop never closed yet; startup is the cc's job, not ours
  }
  const TimeDelta staleness = now - wd_last_fresh_;
  const TimeDelta qdel =
      m.inst_rtt > m.min_rtt ? m.inst_rtt - m.min_rtt : TimeDelta::Zero();
  if (wd_degraded_) {
    if (wd_cause_ == WatchdogCause::kDelay &&
        staleness > kWatchdogTimeout) {
      // The reverse path went from congested to dead: feedback stopped
      // flowing entirely mid-degradation. Promote to the staleness
      // lifecycle so the exponential-backoff probing resumes.
      wd_cause_ = WatchdogCause::kStale;
      wd_probe_backoff_ = kWatchdogProbeInitial;
      wd_next_probe_ = now + wd_probe_backoff_;
      return;
    }
    // Re-sync condition per cause: any matched feedback ends a blackout,
    // but a delay-cause degradation needs the delay itself to clear — the
    // congested queue's sawtooth grazes the budget, so require half of it.
    const bool recovered =
        m.fresh && (wd_cause_ == WatchdogCause::kStale ||
                    qdel <= kWatchdogQdelBudget * 0.5);
    if (recovered) {
      // The controller that rules the current mode restarts from live state
      // (ReseedController's egress seed) instead of resuming its stale
      // pre-outage trajectory.
      wd_degraded_ = false;
      wd_cause_ = WatchdogCause::kNone;
      wd_qdel_ok_ = now;
      const TimeDelta degraded_for = now - wd_degraded_since_;
      if (mode_ == BundlerMode::kDelayControl) {
        ReseedController(now);
      } else if (mode_ == BundlerMode::kPassThrough) {
        pi_.Reset(std::max(detector_.mu_estimate(), tick_shaped_rate_),
                  tick_queue_bytes_, now);
      }
      ++*ctr_wd_resyncs_;
      wd_log_.emplace_back(now, WatchdogEvent::kResync);
      if (sim_->trace().enabled(obs::TraceCat::kWatchdog)) {
        sim_->trace().Trace(obs::TraceCat::kWatchdog, obs::TraceEv::kWdResync,
                            comp_, now,
                            static_cast<uint64_t>(degraded_for.nanos()),
                            obs::EncodeRate(tick_shaped_rate_));
      }
      return;
    }
    if (wd_cause_ == WatchdogCause::kStale && now >= wd_next_probe_) {
      WatchdogProbe(now);
    }
    return;
  }
  // Armed: watch loop liveness and the delay-control contract. The contract
  // clock resets whenever the bundle is not in delay control or the
  // queue-delay estimate is within budget — only an *unbroken* violation
  // spanning kWatchdogTimeout degrades, so transient spikes while the
  // controller reacts to arriving cross traffic never trip it.
  if (mode_ != BundlerMode::kDelayControl ||
      qdel <= kWatchdogQdelBudget) {
    wd_qdel_ok_ = now;
  }
  WatchdogCause cause = WatchdogCause::kNone;
  if (staleness > kWatchdogTimeout) {
    cause = WatchdogCause::kStale;
  } else if (now - wd_qdel_ok_ > kWatchdogTimeout) {
    cause = WatchdogCause::kDelay;
  }
  if (cause != WatchdogCause::kNone) {
    wd_degraded_ = true;
    wd_cause_ = cause;
    wd_degraded_since_ = now;
    if (cause == WatchdogCause::kStale) {
      wd_probe_backoff_ = kWatchdogProbeInitial;
      wd_next_probe_ = now + wd_probe_backoff_;
    }
    ++*ctr_wd_degrades_;
    wd_log_.emplace_back(now, WatchdogEvent::kDegrade);
    if (sim_->trace().enabled(obs::TraceCat::kWatchdog)) {
      sim_->trace().Trace(obs::TraceCat::kWatchdog, obs::TraceEv::kWdDegrade,
                          comp_, now, static_cast<uint64_t>(staleness.nanos()),
                          static_cast<uint64_t>(qdel.nanos()));
    }
  }
}

// Re-probe: a fresh epoch ctl message re-arms the receivebox's epoch state
// (it may have missed resizes during the outage) and exercises the forward
// path; any matched feedback it provokes ends the degradation.
void BundleController::WatchdogProbe(TimePoint now) {
  ++wd_probe_seq_;
  SendEpochCtl();
  ++*ctr_wd_probes_;
  wd_log_.emplace_back(now, WatchdogEvent::kProbe);
  wd_probe_backoff_ =
      std::min(wd_probe_backoff_ * 2.0, kWatchdogProbeMax);
  wd_next_probe_ = now + wd_probe_backoff_;
  if (sim_->trace().enabled(obs::TraceCat::kWatchdog)) {
    sim_->trace().Trace(obs::TraceCat::kWatchdog, obs::TraceEv::kWdProbe,
                        comp_, now, wd_probe_seq_,
                        static_cast<uint64_t>(wd_probe_backoff_.nanos()));
  }
}

void BundleController::SendEpochCtl() {
  Packet ctl;
  ctl.type = PacketType::kBundlerEpochCtl;
  ctl.size_bytes = kControlBytes;
  ctl.key.src = config_.ctl_addr;
  ctl.key.dst = config_.receivebox_ctl_addr;
  ctl.key.protocol = 17;
  ctl.epoch_size_pkts = epoch_pkts_;
  last_epoch_ctl_sent_ = sim_->now();
  ctl_out_->HandlePacket(std::move(ctl));
}

Rate BundleController::ControlTick(int64_t queue_bytes, Rate shaped_rate) {
  TimePoint now = sim_->now();
  tick_queue_bytes_ = queue_bytes;
  tick_shaped_rate_ = shaped_rate;

  double tick_bps = static_cast<double>(bytes_sent_ - bytes_sent_at_last_tick_) * 8.0 /
                    config_.control_interval.ToSeconds();
  bytes_sent_at_last_tick_ = bytes_sent_;
  egress_rate_bps_ = egress_rate_bps_ > 0 ? 0.9 * egress_rate_bps_ + 0.1 * tick_bps
                                          : tick_bps;

  BundleMeasurement m = meas_.Current(now);

  // Feed the elasticity detector every tick (sample-and-hold between epochs)
  // so its FFT buffer advances at a constant cadence. Use the newest single
  // epoch's rates, not the RTT-windowed averages: the windowing would smear
  // the 5 Hz Nimbus pulse out of the cross-traffic estimate.
  TimeDelta qdel =
      m.inst_rtt > m.min_rtt ? m.inst_rtt - m.min_rtt : TimeDelta::Zero();
  // Busy gate: only read cross traffic when the bottleneck holds a genuine
  // standing queue. The threshold sits well above the ~1 ms standing queue a
  // delay-controlled bundle maintains, so coexisting Bundler-controlled
  // bundles (Fig. 13) do not classify each other as buffer-filling, while
  // tens-of-ms queues from genuinely buffer-filling flows clear it easily.
  TimeDelta busy_thresh =
      std::max(TimeDelta::Millis(2), m.min_rtt * 0.1);
  if (config_.nimbus_detection) {
    detector_.AddSample(now, m.inst_send_rate, m.inst_recv_rate, qdel, busy_thresh);
  }

  if (config_.watchdog) {
    WatchdogTick(m);
  }
  const bool degraded = config_.watchdog && wd_degraded_;
  if (!degraded) {
    UpdateMode(m);
  }

  Rate base;
  if (degraded) {
    // Graceful degradation: the measurements are stale (blackout) or
    // measure a delay shaping cannot drain (congested reverse path), so
    // acting on them can only hurt. Open the pipe and let endhost congestion
    // control rule — the bundle behaves like status quo until the loop heals.
    base = config_.max_rate;
  } else {
    switch (mode_) {
    case BundlerMode::kDelayControl:
      cc_->OnMeasurement(m);
      base = cc_->TargetRate();
      ++*ctr_cc_updates_;
      if (sim_->trace().enabled(obs::TraceCat::kCc)) {
        sim_->trace().Trace(obs::TraceCat::kCc, obs::TraceEv::kCcUpdate,
                            cc_comp_, now, obs::EncodeRate(base),
                            static_cast<uint64_t>(m.inst_rtt.nanos()),
                            static_cast<uint64_t>(m.acked_bytes));
      }
      break;
    case BundlerMode::kPassThrough: {
      base = pi_.Update(queue_bytes, now);
      // Draining the queue accumulated before the mode switch must not flood
      // the bottleneck at a multiple of its capacity.
      Rate mu = detector_.mu_estimate();
      if (mu.bps() > 0 && base.bps() > 2.0 * mu.bps()) {
        base = Rate::BitsPerSec(2.0 * mu.bps());
      }
      break;
    }
    case BundlerMode::kDisabled:
      base = config_.max_rate;
      break;
    }
  }

  Rate rate = base;
  if (!degraded && config_.nimbus_detection && mode_ != BundlerMode::kDisabled &&
      detector_.mu_estimate().bps() > 0) {
    rate = rate + detector_.PulseRate(now, detector_.mu_estimate());
  }
  // Never shape below a small fraction of the estimated capacity: the
  // control loop's measurement cadence is proportional to the rate, so a
  // collapse to near-zero starves the loop of epochs and takes seconds to
  // escape, long after conditions improved.
  double floor_bps =
      std::max(Rate::Mbps(0.5).bps(), 0.05 * detector_.mu_estimate().bps());
  if (rate.bps() < floor_bps) {
    rate = Rate::BitsPerSec(floor_bps);
  }
  if (rate > config_.max_rate) {
    rate = config_.max_rate;
  }

  if (!degraded) {
    // While degraded the watchdog owns receivebox re-probing (exponential
    // backoff); the periodic epoch refresh would defeat the backoff.
    MaybeUpdateEpochSize(rate);
  }

  ++*ctr_rate_updates_;
  const TimeDelta run = now - start_time_;
  const TimeDelta pt =
      passthrough_accum_ + (mode_ == BundlerMode::kPassThrough
                                ? now - mode_entered_
                                : TimeDelta::Zero());
  *passthrough_frac_ =
      run > TimeDelta::Zero() ? pt.ToSeconds() / run.ToSeconds() : 0.0;
  if (sim_->trace().enabled(obs::TraceCat::kSendbox)) {
    // Shaper queueing delay estimate: queue / enforced rate.
    const double qdelay_ms =
        rate.bps() > 0
            ? static_cast<double>(queue_bytes) * 8.0 / rate.bps() * 1e3
            : 0.0;
    sim_->trace().Trace(obs::TraceCat::kSendbox, obs::TraceEv::kSbRate, comp_,
                        now, obs::EncodeRate(rate),
                        static_cast<uint64_t>(mode_),
                        static_cast<uint64_t>(qdelay_ms * 1e6));
  }
  return rate;
}

}  // namespace bundler
