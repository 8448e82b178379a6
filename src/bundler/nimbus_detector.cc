#include "src/bundler/nimbus_detector.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/util/fft.h"

namespace bundler {

static_assert(IsPowerOfTwo(NimbusDetector::kFftSize));
static_assert(NimbusDetector::kPulseBin > 2 &&
              NimbusDetector::kPulseBin < NimbusDetector::kFftSize / 2);

NimbusDetector::NimbusDetector(TimeDelta sample_interval)
    : sample_interval_(sample_interval), mu_filter_(kMuWindow) {}

void NimbusDetector::Reset() {
  mu_filter_.Reset();
  mu_ = Rate::Zero();
  last_cross_ = Rate::Zero();
  z_history_.clear();
  busy_history_.clear();
  samples_since_eval_ = 0;
  elastic_ = false;
  metric_ = 0.0;
  last_busy_ = false;
  busy_count_ = 0;
}

TimeDelta NimbusDetector::pulse_period() const {
  // Chosen so the pulse frequency falls exactly on `kPulseBin` of the FFT.
  return sample_interval_ *
         (static_cast<double>(kFftSize) / static_cast<double>(kPulseBin));
}

Rate NimbusDetector::PulseRate(TimePoint now, Rate mu) const {
  double period_s = pulse_period().ToSeconds();
  double phase01 = std::fmod(now.ToSeconds(), period_s) / period_s;
  double amplitude = kPulseAmplitudeFrac * mu.bps();
  // Up half-sine over the first quarter; compensating down half-sine with a
  // third of the amplitude over the remaining three quarters (equal areas).
  double multiple;
  if (phase01 < 0.25) {
    multiple = std::sin(std::numbers::pi * phase01 / 0.25);
  } else {
    multiple = -(1.0 / 3.0) * std::sin(std::numbers::pi * (phase01 - 0.25) / 0.75);
  }
  return Rate::BitsPerSec(amplitude * multiple);
}

void NimbusDetector::AddSample(TimePoint now, Rate rin, Rate rout, TimeDelta queue_delay,
                               TimeDelta queue_delay_threshold) {
  if (rout.bps() > 0) {
    mu_filter_.Update(now, rout.BytesPerSecond());
    mu_ = Rate::BytesPerSec(mu_filter_.Get());
  }
  double z = last_cross_.bps();  // hold when unidentifiable
  // The estimator z = rin*mu/rout - rin is only meaningful while the
  // bottleneck is busy (a queue exists); otherwise rout == rin and the
  // formula would read the idle headroom as cross traffic. It also needs a
  // non-negligible bundle rate: as rin -> 0 the ratio amplifies measurement
  // noise into absurd cross-rate spikes that would swamp the FFT noise floor.
  if (rout.bps() > 0 && rin.bps() > 0.01 * mu_.bps() &&
      queue_delay > queue_delay_threshold) {
    z = std::max(0.0, rin.bps() * (mu_.bps() / rout.bps()) - rin.bps());
    z = std::min(z, mu_.bps());  // cross traffic cannot exceed the capacity
  } else if (queue_delay <= queue_delay_threshold) {
    z = 0.0;  // idle bottleneck: no competing queue
  }
  last_cross_ = Rate::BitsPerSec(z);
  last_busy_ = queue_delay > queue_delay_threshold;
  z_history_.push_back(z);
  busy_history_.push_back(last_busy_);
  busy_count_ += last_busy_ ? 1 : 0;
  while (z_history_.size() > kFftSize) {
    z_history_.pop_front();
    busy_count_ -= busy_history_.front() ? 1 : 0;
    busy_history_.pop_front();
  }
  if (++samples_since_eval_ >= kEvalEverySamples) {
    samples_since_eval_ = 0;
    Evaluate();
    if (ctr_evals_ != nullptr) {
      ++*ctr_evals_;
    }
    if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kNimbus)) {
      tracer_->Trace(obs::TraceCat::kNimbus, obs::TraceEv::kNimbusEval, comp_,
                     now, elastic_ ? 1 : 0, obs::EncodePpm(metric_),
                     obs::EncodeRate(mu_));
    }
  }
}

void NimbusDetector::Evaluate() {
  if (z_history_.size() < kFftSize) {
    elastic_ = false;
    metric_ = 0.0;
    return;
  }
  const size_t busy = busy_count_;  // maintained incrementally by AddSample
  if (static_cast<double>(busy) <
      kMinBusyFrac * static_cast<double>(busy_history_.size())) {
    elastic_ = false;
    metric_ = 0.0;
    return;
  }
  std::vector<double> signal(z_history_.size());
  for (size_t i = 0; i < z_history_.size(); ++i) {
    signal[i] = z_history_[i];
  }
  double mean = 0.0;
  for (double v : signal) {
    mean += v;
  }
  mean /= static_cast<double>(signal.size());
  // Require meaningful cross traffic before classifying it.
  if (mu_.bps() <= 0 || mean < kMinCrossFrac * mu_.bps()) {
    elastic_ = false;
    metric_ = 0.0;
    return;
  }
  for (double& v : signal) {
    v -= mean;
  }
  std::vector<double> mags = RealFftMagnitudes(signal);

  const size_t kb = kPulseBin;
  double pulse_power = 0.0;
  for (size_t k = kb - 1; k <= kb + 1; ++k) {
    pulse_power = std::max(pulse_power, mags[k]);
  }
  // Noise floor: mean magnitude of bins near the pulse frequency, excluding
  // every harmonic of the pulse (the asymmetric half-sine is harmonically
  // rich, so energy at exact multiples of the pulse bin is self-inflicted).
  // A mean over the band is robust: a single noisy bin (e.g. from TCP
  // sawtooths) cannot erase a genuine pulse response the way a max would.
  double noise_sum = 0.0;
  size_t noise_count = 0;
  size_t lo = std::max<size_t>(4, kb / 2);
  size_t hi = std::min(mags.size() - 1, kb * 6);
  for (size_t k = lo; k <= hi; ++k) {
    size_t dist_to_harmonic = std::min(k % kb, kb - (k % kb));
    if (dist_to_harmonic <= 2) {
      continue;
    }
    noise_sum += mags[k];
    ++noise_count;
  }
  double noise = noise_count > 0 ? std::max(noise_sum / noise_count, 1e-9) : 1e-9;
  metric_ = pulse_power / noise;
  elastic_ = metric_ > kElasticThreshold;
}

}  // namespace bundler
