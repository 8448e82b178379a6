// Nimbus cross-traffic (elasticity) detection (§5.1, Goyal et al.). The
// sendbox superimposes an asymmetric sinusoidal pulse on its sending rate:
// a half-sine up-pulse of amplitude mu/4 for the first quarter period and a
// compensating half-sine down-pulse of amplitude mu/12 for the remaining
// three quarters (zero net area). If buffer-filling (elastic) cross traffic
// shares the bottleneck, its rate reacts to ours, so the cross-traffic rate
// estimate z(t) = rin*mu/rout - rin shows power at the pulse frequency; an
// FFT over a sliding window detects that coherent response.
#ifndef SRC_BUNDLER_NIMBUS_DETECTOR_H_
#define SRC_BUNDLER_NIMBUS_DETECTOR_H_

#include <cstddef>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/rate.h"
#include "src/util/ring_buffer.h"
#include "src/util/time.h"
#include "src/util/windowed_filter.h"

namespace bundler {

class NimbusDetector {
 public:
  static constexpr size_t kFftSize = 512;  // ~5.12 s of 10 ms samples
  // Pulse frequency = bin/(N*interval) ≈ 2.54 Hz at a 10 ms interval.
  static constexpr size_t kPulseBin = 13;
  static constexpr double kPulseAmplitudeFrac = 0.25;  // A = mu/4
  static constexpr double kElasticThreshold = 3.0;     // pulse-to-noise power ratio
  static constexpr double kMinCrossFrac = 0.05;        // ignore negligible cross traffic
  // Buffer-filling cross traffic keeps the bottleneck queue standing, so a
  // genuine elastic verdict requires the busy gate open for most of the
  // FFT window. Bursty self-congestion (e.g. slow-start transients) opens
  // it intermittently and must not trigger mode switches.
  static constexpr double kMinBusyFrac = 0.75;
  static constexpr TimeDelta kMuWindow = TimeDelta::Seconds(30);
  static constexpr size_t kEvalEverySamples = 8;  // FFT cadence (80 ms at 10 ms)

  // `sample_interval` is the cadence AddSample is fed at (the control tick);
  // the pulse lands on FFT bin kPulseBin of that cadence.
  explicit NimbusDetector(TimeDelta sample_interval);

  // Feed one control-tick sample. `queue_delay` gates the cross-traffic
  // estimator: z is only identifiable while the bottleneck is busy.
  void AddSample(TimePoint now, Rate rin, Rate rout, TimeDelta queue_delay,
                 TimeDelta queue_delay_threshold);

  // The additive pulse at absolute time `now` given capacity estimate mu.
  Rate PulseRate(TimePoint now, Rate mu) const;
  TimeDelta pulse_period() const;

  bool IsElastic() const { return elastic_; }
  double elasticity_metric() const { return metric_; }
  Rate mu_estimate() const { return mu_; }
  Rate cross_estimate() const { return last_cross_; }
  // Busy-gate verdict of the newest sample: was the bottleneck holding a
  // standing queue? Robust elasticity exits gate their quiet-tick counter on
  // this (a quiet verdict from an idle bottleneck says nothing about whether
  // the cross traffic left).
  bool last_sample_busy() const { return last_busy_; }

  void Reset();

  // Observability seam: the owning BundleController attaches the tracer
  // (component kind "nimbus") and a registry-owned evaluation counter.
  void BindObs(obs::Tracer* tracer, uint32_t comp, uint64_t* evals) {
    tracer_ = tracer;
    comp_ = comp;
    ctr_evals_ = evals;
  }

 private:
  void Evaluate();

  TimeDelta sample_interval_;
  obs::Tracer* tracer_ = nullptr;
  uint32_t comp_ = 0;
  uint64_t* ctr_evals_ = nullptr;
  WindowedMaxFilter<double> mu_filter_;  // bytes/sec
  Rate mu_;
  Rate last_cross_;
  // Bounded histories (kFftSize samples): reusable rings, so the per-tick
  // sampling path never allocates once the window fills.
  RingBuffer<double> z_history_;   // cross-rate samples, bits/sec
  RingBuffer<bool> busy_history_;  // busy-gate state per sample
  size_t samples_since_eval_ = 0;
  bool elastic_ = false;
  double metric_ = 0.0;
  bool last_busy_ = false;
  size_t busy_count_ = 0;  // busy samples currently in busy_history_
};

}  // namespace bundler

#endif  // SRC_BUNDLER_NIMBUS_DETECTOR_H_
