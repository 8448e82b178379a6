// End-to-end benchmark harness. Builds one of four workloads from the
// library's public APIs, runs it once in this process, checks its outputs and
// prints one JSON object with every measurement on stdout. bench/e2e/run.py
// drives it: one fresh process per repetition (see bench/e2e/README.md).
//
//   bundler_bench --workload NAME [--seed N] [--workers K] [--scale F]
//                 [--trace] [--trace-out FILE]
//   bundler_bench --info   compiler, build type, nproc, spin-probed cores
//
// Every rate, delay, buffer, load, duration and seed offset is spelled out in
// this file. Nothing comes from registered scenarios or preset defaults, so a
// change elsewhere in the repo cannot change what is measured. The workload
// seed only feeds the input generators below; the library receives the
// generated flows.
//
// Timing: `setup_s` covers topology Build plus flow/workload arming, `run_s`
// the run call alone. With --trace the harness also times calls into the
// layers it can reach from outside — the bundler's packet ingress and every
// qdisc's enqueue/dequeue, through decorators installed at the library's
// seams — and arms the flight recorder for every category. Such a run must
// produce the same output digest as an untraced one.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/bundler/sendbox.h"
#include "src/bundler/sendbox_manager.h"
#include "src/qdisc/fifo.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/topo/net_builder.h"
#include "src/topo/partition.h"
#include "src/transport/tcp_flow.h"
#include "src/util/fnv.h"

// ---------------------------------------------------------------------------
// Allocation accounting. Every global operator new is counted (calls and
// bytes) with one relaxed increment each, cheap enough to stay on in untraced
// runs. Sharded runs allocate from several worker threads, hence atomics.
namespace {
std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

// noinline: keeps GCC from pairing the inlined malloc with a visible free
// (spurious -Wmismatched-new-delete) and from eliding counted allocations.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) { return operator new(size); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {
namespace {

using namespace bundler;

[[noreturn]] void Die(const char* msg, const std::string& detail = "") {
  std::fprintf(stderr, "bundler_bench: %s%s\n", msg, detail.c_str());
  std::exit(2);
}

// printf-style std::string; GCC 12 misreports chained std::string `+` as
// -Wrestrict.
__attribute__((format(printf, 1, 2))) std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

// ---------------------------------------------------------------------------
// Per-call spans, aggregated in memory per name. Each thread that runs spans
// gets its own accumulators; a shard is driven by exactly one worker thread,
// so the packet path takes no lock. Self time is a span's duration minus the
// time of the spans nested inside it.
enum SpanId : int { kBundlerIngress, kQdiscEnqueue, kQdiscDequeue, kFlowCreate, kNumSpans };
constexpr const char* kSpanNames[kNumSpans] = {"bundler.ingress", "qdisc.enqueue",
                                               "qdisc.dequeue", "transport.flow_create"};

struct SpanAgg {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct SpanTotals {
  SpanAgg agg[kNumSpans];
  int64_t toplevel_ns = 0;  // time inside outermost spans

  SpanTotals operator-(const SpanTotals& o) const {
    SpanTotals d = *this;
    for (int i = 0; i < kNumSpans; ++i) {
      d.agg[i].calls -= o.agg[i].calls;
      d.agg[i].total_ns -= o.agg[i].total_ns;
      d.agg[i].self_ns -= o.agg[i].self_ns;
    }
    d.toplevel_ns -= o.toplevel_ns;
    return d;
  }
};

struct ThreadSpans {
  static constexpr int kMaxDepth = 64;
  SpanTotals totals;
  int64_t child_ns[kMaxDepth] = {};
  int depth = 0;
};

class SpanTable {
 public:
  ThreadSpans* ForThisThread() {
    thread_local ThreadSpans* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      all_.push_back(std::make_unique<ThreadSpans>());
      mine = all_.back().get();
    }
    return mine;
  }
  // Only while no span is open (between setup, run and extraction).
  SpanTotals Sum() {
    std::lock_guard<std::mutex> lock(mu_);
    SpanTotals s;
    for (const auto& t : all_) {
      for (int i = 0; i < kNumSpans; ++i) {
        s.agg[i].calls += t->totals.agg[i].calls;
        s.agg[i].total_ns += t->totals.agg[i].total_ns;
        s.agg[i].self_ns += t->totals.agg[i].self_ns;
      }
      s.toplevel_ns += t->totals.toplevel_ns;
    }
    return s;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> all_;
};

SpanTable g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id) : ts_(g_spans.ForThisThread()), id_(id) {
    if (ts_->depth == ThreadSpans::kMaxDepth) {
      Die("span nesting too deep");
    }
    ts_->child_ns[ts_->depth++] = 0;
    t0_ = WallNs();
  }
  ~ScopedSpan() {
    const int64_t dur = WallNs() - t0_;
    ThreadSpans& t = *ts_;
    const int64_t child = t.child_ns[--t.depth];
    SpanAgg& a = t.totals.agg[id_];
    ++a.calls;
    a.total_ns += dur;
    a.self_ns += dur - child;
    if (t.depth > 0) {
      t.child_ns[t.depth - 1] += dur;
    } else {
      t.totals.toplevel_ns += dur;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* ts_;
  SpanId id_;
  int64_t t0_ = 0;
};

// A span that is only opened in traced runs.
class MaybeSpan {
 public:
  MaybeSpan(bool on, SpanId id) {
    if (on) {
      span_.emplace(id);
    }
  }

 private:
  std::optional<ScopedSpan> span_;
};

// Forwarding qdisc that times the wrapped discipline. The owner binds the
// decorator to its tracer and publishes the decorator's counters, so drops
// are mirrored one for one: counters and trace records stay exactly what the
// bare discipline would produce.
class TimedQdisc final : public Qdisc {
 public:
  explicit TimedQdisc(std::unique_ptr<Qdisc> inner) : inner_(std::move(inner)) {}

  const Packet* Peek() const override { return inner_->Peek(); }
  int64_t bytes() const override { return inner_->bytes(); }
  int64_t packets() const override { return inner_->packets(); }
  const char* name() const override { return inner_->name(); }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override {
    ScopedSpan span(kQdiscEnqueue);
    const uint64_t before = inner_->drops();
    const bool ok = inner_->Enqueue(std::move(pkt), now);
    MirrorDrops(before);
    return ok;
  }
  std::optional<Packet> DoDequeue(TimePoint now) override {
    ScopedSpan span(kQdiscDequeue);
    const uint64_t before = inner_->drops();
    std::optional<Packet> pkt = inner_->Dequeue(now);
    MirrorDrops(before);
    return pkt;
  }
  void MirrorDrops(uint64_t before) {
    for (uint64_t n = inner_->drops() - before; n > 0; --n) {
      CountDrop();
    }
  }

  std::unique_ptr<Qdisc> inner_;
};

// Times the bundler's packet ingress: installed as the source host's egress
// in front of the sendbox or the site's SendboxManager.
class TimedIngress final : public PacketHandler {
 public:
  explicit TimedIngress(PacketHandler* inner) : inner_(inner) {}
  void HandlePacket(Packet pkt) override {
    ScopedSpan span(kBundlerIngress);
    inner_->HandlePacket(std::move(pkt));
  }

 private:
  PacketHandler* inner_;
};

// Coarse spans (one record each, with parent ids): the phases of one trial.
struct CoarseSpan {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class CoarseTrace {
 public:
  int Begin(const char* name, int parent) {
    spans_.push_back(CoarseSpan{name, parent, WallNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = WallNs(); }
  const CoarseSpan& span(int id) const { return spans_[static_cast<size_t>(id)]; }
  const std::vector<CoarseSpan>& spans() const { return spans_; }

 private:
  std::vector<CoarseSpan> spans_;
};

// ---------------------------------------------------------------------------
// Inputs. SplitMix64 keeps the generators independent of the library's RNG.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

// Per-workload salts so two workloads with the same seed draw different
// streams; the dumbbell pair shares one so both see identical traffic.
constexpr uint64_t kDumbbellSalt = 0xD0BBE11ULL;
constexpr uint64_t kCdnSalt = 0xCD9ED6EULL;
constexpr uint64_t kFatTreeSalt = 0xFA77AEEULL;

// §7.1 request sizes (CAIDA Internet-core-router trace): median well under
// 1 KB, 97.6% at most 10 KB, 0.002% between 5 MB and 100 MB. Log-linear
// between anchors.
struct SizeAnchor {
  double bytes;
  double cdf;
};
constexpr SizeAnchor kWebSizes[] = {
    {40, 0.00},       {100, 0.15},        {200, 0.25},     {400, 0.40},
    {700, 0.50},      {1000, 0.60},       {2000, 0.75},    {5000, 0.90},
    {10000, 0.976},   {30000, 0.990},     {100000, 0.996}, {300000, 0.998},
    {1000000, 0.999}, {5000000, 0.99998}, {100000000, 1.0},
};

int64_t WebSizeAt(double u) {
  constexpr size_t n = sizeof(kWebSizes) / sizeof(kWebSizes[0]);
  for (size_t i = 1; i < n; ++i) {
    const SizeAnchor& a = kWebSizes[i - 1];
    const SizeAnchor& b = kWebSizes[i];
    if (u < b.cdf || i == n - 1) {
      const double frac = std::clamp((u - a.cdf) / (b.cdf - a.cdf), 0.0, 1.0);
      return std::llround(std::exp(std::log(a.bytes) + frac * std::log(b.bytes / a.bytes)));
    }
  }
  return static_cast<int64_t>(kWebSizes[0].bytes);
}

double WebSizeMeanBytes() {
  double mean = 0.0;
  for (size_t i = 1; i < sizeof(kWebSizes) / sizeof(kWebSizes[0]); ++i) {
    const SizeAnchor& a = kWebSizes[i - 1];
    const SizeAnchor& b = kWebSizes[i];
    // Mean of a log-uniform segment: (b - a) / ln(b / a).
    mean += (b.cdf - a.cdf) * (b.bytes - a.bytes) / std::log(b.bytes / a.bytes);
  }
  return mean;
}

struct FlowInput {
  int64_t start_ns = 0;
  int64_t bytes = 0;
  int src = 0;  // workload-specific endpoint indices
  int dst = 0;
};

// ---------------------------------------------------------------------------
// Workload constants.
constexpr auto kTail = TimeDelta::Seconds(2);  // flows starting later are unmeasured

// dumbbell_*: the §7.1 emulation.
constexpr auto kDbBottleneckRate = Rate::Mbps(96);
constexpr auto kDbRtt = TimeDelta::Millis(50);
constexpr double kDbBufferBdp = 2.0;
constexpr auto kDbEdgeRate = Rate::Gbps(1);
constexpr int64_t kDbEdgeBuffer = 16 * 1024 * 1024;
constexpr auto kDbReverseRate = Rate::Gbps(1);
constexpr int64_t kDbReverseBuffer = 64 * 1024 * 1024;
constexpr auto kDbWebLoad = Rate::Mbps(84);
constexpr auto kDbDuration = TimeDelta::Seconds(120);
constexpr auto kDbWarmup = TimeDelta::Seconds(10);
constexpr int64_t kDbSendboxQueuePkts = 4000;
constexpr SiteId kDbServerSite = 10;
constexpr SiteId kDbClientSite = 100;

// cdn_edge_managed: one edge site, 52 tenants x 4 classes.
constexpr int kCdnTenants = 52;
constexpr int kCdnClasses = 4;
constexpr int kCdnBundles = kCdnTenants * kCdnClasses;
constexpr int kCdnAdmitted = 200;  // 180 Mbit/s budget / 0.9 Mbit/s each
constexpr auto kCdnUplinkRate = Rate::Mbps(250);
constexpr auto kCdnUplinkDelay = TimeDelta::Millis(5);
constexpr int64_t kCdnUplinkBuffer = 1250 * 1000;
constexpr auto kCdnShapedRate = Rate::Mbps(200);
constexpr auto kCdnAdmissionBudget = Rate::Mbps(180);
constexpr auto kCdnCommittedRate = Rate::Mbps(0.9);
constexpr auto kCdnLastHopRate = Rate::Gbps(1);
constexpr auto kCdnLastHopDelay = TimeDelta::Millis(5);
constexpr int64_t kCdnLastHopBuffer = 16 * 1024 * 1024;
constexpr auto kCdnReverseRate = Rate::Gbps(1);
constexpr auto kCdnReverseDelay = TimeDelta::Millis(10);  // base RTT 20 ms
constexpr int64_t kCdnReverseBuffer = 64 * 1024 * 1024;
constexpr int64_t kCdnBundleQueuePkts = 512;
constexpr auto kCdnDuration = TimeDelta::Seconds(20);
constexpr auto kCdnWarmup = TimeDelta::Seconds(1);
constexpr auto kCdnFlashStart = TimeDelta::Seconds(8);
constexpr auto kCdnFlashEnd = TimeDelta::Seconds(12);
constexpr int kCdnFlashMultiplier = 10;
constexpr auto kCdnVictimPeriod = TimeDelta::Millis(125);
constexpr auto kCdnWhalePeriod = TimeDelta::Micros(15625);
constexpr int64_t kCdnClassBaseBytes[kCdnClasses] = {1000, 2000, 4000, 10000};
constexpr double kCdnClassWeight[kCdnClasses] = {4.0, 2.0, 1.0, 0.5};
constexpr SiteId kCdnEdgeSite = 1;
constexpr SiteId kCdnFirstDstSite = 10;

// fat_tree_sharded: 4 leaves x 2 hosts under 2 spines, incast onto leaf 0.
constexpr int kFtLeaves = 4;
constexpr int kFtHostsPerLeaf = 2;
constexpr auto kFtFabricRate = Rate::Mbps(400);
constexpr auto kFtFabricDelay = TimeDelta::Millis(2);
constexpr int64_t kFtFabricBuffer = 512 * 1024;
constexpr auto kFtAccessRate = Rate::Gbps(1);
constexpr int64_t kFtAccessBuffer = 4 * 1024 * 1024;
constexpr int kFtWaves = 1200;
constexpr auto kFtWavePeriod = TimeDelta::Millis(50);
constexpr auto kFtFirstWave = TimeDelta::Millis(5);
constexpr int64_t kFtJitterUs = 2000;
constexpr int64_t kFtFlowBytes = 256 * 1024;
constexpr int kFtShards = kFtLeaves + 2;
constexpr int kFtDefaultWorkers = 4;

constexpr int kMinMeasuredFlows = 7200;
// Set-ups per process: the first ones only warm the allocator (a fresh
// process pays page faults the steady state does not), setup_s is the median
// of the rest, and the last one is the trial that runs.
constexpr int kWarmupSetups = 2;
constexpr int kTimedSetups = 3;
constexpr size_t kTraceRingRecords = size_t{1} << 14;  // per simulator

enum class Kind { kDumbbellSfq, kDumbbellStatusQuo, kCdnEdge, kFatTree };

struct Options {
  std::string workload;
  Kind kind = Kind::kDumbbellSfq;
  uint64_t seed = 1;
  double scale = 1.0;  // multiplies every duration (smoke runs use 0.1)
  int workers = 1;
  bool trace = false;
  std::string trace_out;
};

TimeDelta Scaled(TimeDelta d, double scale) { return d * scale; }

// The unmeasured tail shrinks with short smoke runs, but never below 0.5 s.
TimeDelta TailFor(double scale) {
  return std::max(Scaled(kTail, scale), TimeDelta::Millis(500));
}

// --- Input generators ------------------------------------------------------

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// Poisson web arrivals at kDbWebLoad: the arrival count is fixed by the load
// and the times are uniform order statistics (a Poisson process conditioned
// on its count). The sizes are stratified: the midpoint of each of n equal
// quantile bins of the CDF, in seeded random order. Every seed then offers
// the same bytes and the same handful of multi-megabyte flows, so the work a
// run does barely depends on the seed; only timing and order vary.
std::vector<FlowInput> DumbbellInputs(uint64_t seed, double scale) {
  const TimeDelta duration = Scaled(kDbDuration, scale);
  const double bytes = kDbWebLoad.BytesPerSecond() * duration.ToSeconds();
  const size_t n = static_cast<size_t>(std::llround(bytes / WebSizeMeanBytes()));
  SplitMix64 rng(seed * 0x100000001B3ULL ^ kDumbbellSalt);
  std::vector<int64_t> times(n);
  for (int64_t& t : times) {
    t = static_cast<int64_t>(rng.Uniform() * static_cast<double>(duration.nanos()));
  }
  std::sort(times.begin(), times.end());
  std::vector<size_t> bin(n);
  for (size_t i = 0; i < n; ++i) {
    bin[i] = i;
  }
  Shuffle(&bin, &rng);
  std::vector<FlowInput> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].start_ns = times[i];
    in[i].bytes = WebSizeAt((static_cast<double>(bin[i]) + 0.5) / static_cast<double>(n));
  }
  return in;
}

// Per bundle, jittered-periodic requests (+/-15% spacing). Sizes are the
// class base with +/-15% jitter, and exactly one request in every ten is 10x
// the base (seeded position), so the tail is heavy but the same every seed.
// Tenant 0 is the whale and its arrival rate rises 10x inside the flash
// window. Every flow is created before the run with a deferred start.
std::vector<FlowInput> CdnInputs(uint64_t seed, double scale) {
  SplitMix64 rng(seed * 0x100000001B3ULL ^ kCdnSalt);
  const TimePoint zero = TimePoint::Zero();
  const TimePoint arrivals_until = zero + Scaled(kCdnDuration, scale) - TailFor(scale);
  const TimePoint flash_from = zero + Scaled(kCdnFlashStart, scale);
  const TimePoint flash_to = zero + Scaled(kCdnFlashEnd, scale);
  std::vector<FlowInput> in;
  for (int i = 0; i < kCdnBundles; ++i) {
    const int tenant = i / kCdnClasses;
    const int64_t base = kCdnClassBaseBytes[i % kCdnClasses];
    const TimeDelta period = tenant == 0 ? kCdnWhalePeriod : kCdnVictimPeriod;
    TimePoint t = zero + TimeDelta::Nanos(static_cast<int64_t>(
                             rng.Below(static_cast<uint64_t>(period.nanos()))));
    uint64_t big_slot = rng.Below(10);
    for (uint64_t k = 0; t < arrivals_until; ++k) {
      if (k % 10 == 0) {
        big_slot = rng.Below(10);
      }
      int64_t size = k % 10 == big_slot ? base * 10 : base;
      size += static_cast<int64_t>(rng.Below(601)) * size / 2000 - size * 3 / 20;
      in.push_back(FlowInput{t.nanos(), size, 0, i});
      const bool flash = tenant == 0 && t >= flash_from && t < flash_to;
      const TimeDelta step = flash ? period / kCdnFlashMultiplier : period;
      t = t + TimeDelta::Nanos(step.nanos() * (850 + static_cast<int64_t>(rng.Below(301))) / 1000);
    }
  }
  return in;
}

// Incast waves: every host on leaves 1..L-1 sends one fixed-size flow to a
// leaf-0 host (round-robin) per wave, with 0-2 ms of seeded start jitter.
std::vector<FlowInput> FatTreeInputs(uint64_t seed, double scale) {
  SplitMix64 rng(seed * 0x100000001B3ULL ^ kFatTreeSalt);
  const int waves = std::max(1, static_cast<int>(std::lround(kFtWaves * scale)));
  std::vector<FlowInput> in;
  in.reserve(static_cast<size_t>(waves * (kFtLeaves - 1) * kFtHostsPerLeaf));
  int rr = 0;
  for (int w = 0; w < waves; ++w) {
    const TimePoint base = TimePoint::Zero() + kFtFirstWave + kFtWavePeriod * w;
    for (int l = 1; l < kFtLeaves; ++l) {
      for (int h = 0; h < kFtHostsPerLeaf; ++h) {
        const TimeDelta jitter =
            TimeDelta::Micros(static_cast<int64_t>(rng.Below(kFtJitterUs + 1)));
        in.push_back(FlowInput{(base + jitter).nanos(), kFtFlowBytes,
                               l * kFtHostsPerLeaf + h, rr++ % kFtHostsPerLeaf});
      }
    }
  }
  return in;
}

// --- Trials ------------------------------------------------------------------

struct FlowRec {
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 until the receiver has every byte
};

class RequestGenerator;

// Members are destroyed bottom-up: nothing below the simulators outlives them.
struct Trial {
  double setup_s() const {
    return coarse.span(build_span).seconds() + coarse.span(arm_span).seconds();
  }
  // The harness's own per-flow records, filled before set-up is timed.
  void InitFlows(const std::vector<FlowInput>& in) {
    flows.resize(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      flows[i].start_ns = in[i].start_ns;
    }
  }

  std::vector<std::unique_ptr<Simulator>> sims;
  ShardChannelSet channels;
  std::unique_ptr<Net> net;
  std::unique_ptr<TimedIngress> ingress;  // traced bundler workloads only
  std::unique_ptr<ShardRunner> runner;       // sharded workloads only
  std::unique_ptr<RequestGenerator> arrivals;  // dumbbell workloads only
  std::vector<FlowRec> flows;           // one per input, same index
  TimePoint measure_from;
  TimePoint measure_until;
  TimePoint run_until;
  NetBuilder::NodeId manager_site = -1;  // cdn only
  CoarseTrace coarse;
  int root = -1;
  int build_span = -1;  // topo.build
  int arm_span = -1;    // app.arm
};

// Feeds pre-generated request arrivals into the simulation, one pending event
// at a time (the open-loop generator of the dumbbell workloads).
class RequestGenerator {
 public:
  RequestGenerator(Trial* trial, Host* server, Host* client, const std::vector<FlowInput>* in,
                bool traced)
      : trial_(trial), server_(server), client_(client), in_(in), traced_(traced) {}
  ~RequestGenerator() {
    if (timer_ != kInvalidEventId) {
      trial_->sims[0]->Cancel(timer_);
    }
  }
  RequestGenerator(const RequestGenerator&) = delete;
  RequestGenerator& operator=(const RequestGenerator&) = delete;

  void Arm() { ScheduleNext(); }

 private:
  void ScheduleNext() {
    timer_ = kInvalidEventId;
    if (next_ < in_->size()) {
      timer_ = trial_->sims[0]->ScheduleAt(TimePoint::FromNanos((*in_)[next_].start_ns),
                                           [this]() { Fire(); });
    }
  }
  void Fire() {
    {
      MaybeSpan span(traced_, kFlowCreate);
      Issue(next_++);
    }
    ScheduleNext();
  }
  // A request-response exchange: the client's request packet reaches the
  // server, which then sends the response flow back (§7.1).
  void Issue(size_t i) {
    Simulator* sim = trial_->sims[0].get();
    FlowTable* table = trial_->net->flows();
    TcpFlowParams params;
    params.size_bytes = (*in_)[i].bytes;
    params.cc = HostCcType::kCubic;
    params.request_id = i + 1;
    params.request_start = sim->now();
    FlowRec* rec = &trial_->flows[i];
    (void)table->Emplace<RequestResponse>(
        sim, table, server_, client_, params,
        [rec](TimePoint end) { rec->end_ns = end.nanos(); });
  }

  Trial* trial_;
  Host* server_;
  Host* client_;
  const std::vector<FlowInput>* in_;
  bool traced_;
  size_t next_ = 0;
  EventId timer_ = kInvalidEventId;
};

void AddSims(Trial* t, int n, bool traced) {
  for (int i = 0; i < n; ++i) {
    t->sims.push_back(std::make_unique<Simulator>());
    if (traced) {
      t->sims.back()->trace().Enable(obs::kAllCats, kTraceRingRecords);
    }
  }
}

NetBuilder::LinkSpec LinkOf(Rate rate, TimeDelta delay, int64_t buffer, bool traced) {
  NetBuilder::LinkSpec spec;
  spec.rate = rate;
  spec.delay = delay;
  spec.buffer_bytes = buffer;
  if (traced) {
    spec.qdisc_factory = [buffer]() -> std::unique_ptr<Qdisc> {
      return std::make_unique<TimedQdisc>(std::make_unique<DropTailFifo>(buffer));
    };
  }
  return spec;
}

// The bundle control loop of every workload: Copa with Nimbus elasticity
// detection, 10 ms control tick.
void SetControl(BundleControlConfig* c) {
  c->cc = BundleCcType::kCopa;
  c->nimbus_detection = true;
  c->multipath_detection = true;
  c->initial_rate = Rate::Mbps(12);
  c->max_rate = Rate::Gbps(1);
  c->control_interval = TimeDelta::Millis(10);
  c->initial_epoch_pkts = 16;
}

std::unique_ptr<Trial> SetupDumbbell(const Options& opt, const std::vector<FlowInput>& in) {
  const bool bundler_on = opt.kind == Kind::kDumbbellSfq;
  auto t = std::make_unique<Trial>();
  t->InitFlows(in);
  t->root = t->coarse.Begin("trial", -1);
  t->build_span = t->coarse.Begin("topo.build", t->root);
  AddSims(t.get(), 1, opt.trace);
  const int64_t buffer = static_cast<int64_t>(kDbBottleneckRate.BytesPerSecond() *
                                              kDbRtt.ToSeconds() * kDbBufferBdp);
  NetBuilder b;
  const auto server = b.AddSite("server", kDbServerSite);
  const auto client = b.AddSite("client", kDbClientSite);
  const auto bn_router = b.AddRouter("bottleneck_router");
  const auto dst_router = b.AddRouter("dst_router");
  const auto rev_agg = b.AddRouter("reverse_agg");
  const auto rev_router = b.AddRouter("reverse_router");
  b.AddLink(server, bn_router, LinkOf(kDbEdgeRate, TimeDelta::Zero(), kDbEdgeBuffer, opt.trace),
            "edge");
  const auto bottleneck = b.AddLink(
      bn_router, dst_router, LinkOf(kDbBottleneckRate, kDbRtt / 2, buffer, opt.trace),
      "bottleneck");
  b.AddWire(dst_router, client);
  b.AddWire(client, rev_agg);
  b.AddLink(rev_agg, rev_router, LinkOf(kDbReverseRate, kDbRtt / 2, kDbReverseBuffer, opt.trace),
            "reverse");
  b.AddWire(rev_router, server);
  if (bundler_on) {
    NetBuilder::BundleSpec bundle;
    bundle.src_site = server;
    bundle.dst_site = client;
    bundle.ingress_edge = bottleneck;
    SetControl(&bundle.sendbox);
    bundle.sendbox.scheduler = SchedulerType::kSfq;
    bundle.sendbox.queue_limit_pkts = kDbSendboxQueuePkts;
    if (opt.trace) {
      bundle.sendbox.scheduler_factory = []() -> std::unique_ptr<Qdisc> {
        return std::make_unique<TimedQdisc>(
            MakeScheduler(SchedulerType::kSfq, kDbSendboxQueuePkts));
      };
    }
    b.AddBundle(bundle);
  }
  t->net = b.Build(t->sims[0].get());
  t->coarse.End(t->build_span);

  t->arm_span = t->coarse.Begin("app.arm", t->root);
  if (bundler_on && opt.trace) {
    t->ingress = std::make_unique<TimedIngress>(t->net->sendbox(0));
    t->net->host(server)->set_egress(t->ingress.get());
  }
  t->measure_from = TimePoint::Zero() + Scaled(kDbWarmup, opt.scale);
  t->run_until = TimePoint::Zero() + Scaled(kDbDuration, opt.scale);
  t->measure_until = t->run_until - TailFor(opt.scale);
  t->arrivals = std::make_unique<RequestGenerator>(t.get(), t->net->host(server),
                                                t->net->host(client), &in, opt.trace);
  t->arrivals->Arm();
  t->coarse.End(t->arm_span);
  return t;
}

// Creates every flow of `in` up front with a deferred start.
void ArmDeferredFlows(Trial* t, const std::vector<FlowInput>& in,
                      const std::vector<Host*>& src, const std::vector<Host*>& dst,
                      bool traced) {
  for (size_t i = 0; i < in.size(); ++i) {
    const FlowInput& f = in[i];
    TcpFlowParams params;
    params.size_bytes = f.bytes;
    params.cc = HostCcType::kCubic;
    params.request_id = i + 1;
    params.request_start = TimePoint::FromNanos(f.start_ns);
    FlowRec* rec = &t->flows[i];
    Host* from = src[static_cast<size_t>(f.src)];
    TcpSender* sender;
    {
      MaybeSpan span(traced, kFlowCreate);
      sender = CreateTcpFlow(t->net->flows(), from, dst[static_cast<size_t>(f.dst)], params,
                             [rec](TimePoint end) { rec->end_ns = end.nanos(); });
    }
    from->sim()->ScheduleAt(TimePoint::FromNanos(f.start_ns), [sender]() { sender->Start(); });
  }
}

std::unique_ptr<Trial> SetupCdn(const Options& opt, const std::vector<FlowInput>& in) {
  auto t = std::make_unique<Trial>();
  t->InitFlows(in);
  t->root = t->coarse.Begin("trial", -1);
  t->build_span = t->coarse.Begin("topo.build", t->root);
  AddSims(t.get(), 1, opt.trace);
  NetBuilder b;
  const auto edge = b.AddSite("edge", kCdnEdgeSite);
  const auto core = b.AddRouter("core");
  const auto agg = b.AddRouter("reverse_agg");
  b.AddLink(edge, core, LinkOf(kCdnUplinkRate, kCdnUplinkDelay, kCdnUplinkBuffer, opt.trace),
            "uplink");
  std::vector<NetBuilder::NodeId> dst(kCdnBundles);
  std::vector<NetBuilder::EdgeId> last_hop(kCdnBundles);
  for (int i = 0; i < kCdnBundles; ++i) {
    const size_t k = static_cast<size_t>(i);
    dst[k] = b.AddSite("dst" + std::to_string(i), static_cast<SiteId>(kCdnFirstDstSite + i));
    last_hop[k] = b.AddLink(
        core, dst[k], LinkOf(kCdnLastHopRate, kCdnLastHopDelay, kCdnLastHopBuffer, opt.trace),
        "last_hop" + std::to_string(i));
    b.AddWire(dst[k], agg);
  }
  b.AddLink(agg, edge, LinkOf(kCdnReverseRate, kCdnReverseDelay, kCdnReverseBuffer, opt.trace),
            "reverse");

  SendboxManager::Policy policy;
  policy.aggregate_rate = kCdnShapedRate;
  policy.admission_budget = kCdnAdmissionBudget;
  policy.max_bundles = 256;
  policy.per_bundle_queue_pkts = kCdnBundleQueuePkts;
  policy.burst_bytes = 2 * kMtuBytes;
  policy.control_interval = TimeDelta::Millis(10);
  b.SetSiteEgressPolicy(edge, policy);
  for (int tn = 0; tn < kCdnTenants; ++tn) {
    SendboxManager::TenantPolicy tenant;
    tenant.name = "tenant" + std::to_string(tn);
    tenant.priority = (tn >= 1 && tn <= 8) ? 0 : 1;  // a small premium band
    tenant.weight = 1.0;
    tenant.committed_rate = kCdnCommittedRate;
    b.AddTenant(edge, tenant);
  }
  for (int i = 0; i < kCdnBundles; ++i) {
    NetBuilder::BundleSpec bundle;
    bundle.src_site = edge;
    bundle.dst_site = dst[static_cast<size_t>(i)];
    bundle.ingress_edge = last_hop[static_cast<size_t>(i)];
    bundle.tenant = "tenant" + std::to_string(i / kCdnClasses);
    bundle.class_weight = kCdnClassWeight[i % kCdnClasses];
    SetControl(&bundle.sendbox);
    b.AddBundle(bundle);
  }
  t->net = b.Build(t->sims[0].get());
  t->net->flows()->EnableReclaim();
  t->manager_site = edge;
  t->coarse.End(t->build_span);

  t->arm_span = t->coarse.Begin("app.arm", t->root);
  if (opt.trace) {
    t->ingress = std::make_unique<TimedIngress>(t->net->manager(edge));
    t->net->host(edge)->set_egress(t->ingress.get());
  }
  std::vector<Host*> dst_hosts;
  for (NetBuilder::NodeId n : dst) {
    dst_hosts.push_back(t->net->host(n));
  }
  ArmDeferredFlows(t.get(), in, {t->net->host(edge)}, dst_hosts, opt.trace);
  t->measure_from = TimePoint::Zero() + Scaled(kCdnWarmup, opt.scale);
  t->run_until = TimePoint::Zero() + Scaled(kCdnDuration, opt.scale);
  t->measure_until = t->run_until - TailFor(opt.scale);
  t->coarse.End(t->arm_span);
  return t;
}

std::unique_ptr<Trial> SetupFatTree(const Options& opt, const std::vector<FlowInput>& in) {
  auto t = std::make_unique<Trial>();
  t->InitFlows(in);
  t->root = t->coarse.Begin("trial", -1);
  t->build_span = t->coarse.Begin("topo.build", t->root);
  // Leaf/spine fabric: each leaf with its hosts is one shard (access links
  // have no delay), each spine another; fabric links are the boundaries.
  NetBuilder b;
  const NetBuilder::NodeId spines[2] = {b.AddRouter("spine0"), b.AddRouter("spine1")};
  std::vector<NetBuilder::NodeId> hosts;  // index l * kFtHostsPerLeaf + h
  for (int l = 0; l < kFtLeaves; ++l) {
    const auto leaf = b.AddRouter("leaf" + std::to_string(l));
    // Uplink to spine (l % 2) first: routing breaks ties in declaration
    // order, so alternate leaves prefer alternate spines.
    for (int k = 0; k < 2; ++k) {
      const int s = (l + k) % 2;
      b.AddLink(leaf, spines[s], LinkOf(kFtFabricRate, kFtFabricDelay, kFtFabricBuffer, opt.trace),
                Format("up_l%d_s%d", l, s));
    }
    for (int s = 0; s < 2; ++s) {
      b.AddLink(spines[s], leaf, LinkOf(kFtFabricRate, kFtFabricDelay, kFtFabricBuffer, opt.trace),
                Format("down_s%d_l%d", s, l));
    }
    for (int h = 0; h < kFtHostsPerLeaf; ++h) {
      const auto host = b.AddSite(Format("h%d_%d", l, h),
                                  static_cast<SiteId>(1000 + l * 100 + h));
      b.AddLink(host, leaf, LinkOf(kFtAccessRate, TimeDelta::Zero(), kFtAccessBuffer, opt.trace),
                Format("acc_l%d_h%d", l, h));
      b.AddWire(leaf, host);
      hosts.push_back(host);
    }
  }
  const PartitionPlan plan = PartitionTopology(b);
  if (plan.num_groups != kFtShards) {
    Die("fat tree partitioned into an unexpected number of shards: ",
        std::to_string(plan.num_groups));
  }
  AddSims(t.get(), plan.num_groups, opt.trace);
  std::vector<Simulator*> sims;
  for (auto& s : t->sims) {
    sims.push_back(s.get());
  }
  t->net = b.Build(plan, sims, &t->channels);
  t->net->flows()->EnableReclaim();
  t->coarse.End(t->build_span);

  t->arm_span = t->coarse.Begin("app.arm", t->root);
  std::vector<Host*> all;
  for (NetBuilder::NodeId n : hosts) {
    all.push_back(t->net->host(n));
  }
  const std::vector<Host*> leaf0(all.begin(), all.begin() + kFtHostsPerLeaf);
  ArmDeferredFlows(t.get(), in, all, leaf0, opt.trace);
  ShardRunner::Options ro;
  ro.workers = opt.workers;
  t->runner = std::make_unique<ShardRunner>(sims, &t->channels, ro);
  t->measure_from = TimePoint::Zero();
  t->measure_until = TimePoint::Infinite();
  const int64_t last = in.empty() ? 0 : in.back().start_ns;
  t->run_until = TimePoint::FromNanos(last) + kFtWavePeriod + TailFor(opt.scale);
  t->coarse.End(t->arm_span);
  return t;
}

std::unique_ptr<Trial> Setup(const Options& opt, const std::vector<FlowInput>& in) {
  switch (opt.kind) {
    case Kind::kDumbbellSfq:
    case Kind::kDumbbellStatusQuo:
      return SetupDumbbell(opt, in);
    case Kind::kCdnEdge:
      return SetupCdn(opt, in);
    case Kind::kFatTree:
      return SetupFatTree(opt, in);
  }
  return nullptr;
}

// --- Results -----------------------------------------------------------------

bool StartsWith(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }
bool EndsWith(const std::string& s, const char* p) {
  const size_t n = std::strlen(p);
  return s.size() >= n && s.compare(s.size() - n, n, p) == 0;
}

// Sum of every counter named <prefix>*<suffix>.
double SumCounters(const std::map<std::string, double>& c, const char* prefix,
                   const char* suffix) {
  double sum = 0.0;
  for (const auto& [name, v] : c) {
    if (StartsWith(name, prefix) && EndsWith(name, suffix)) {
      sum += v;
    }
  }
  return sum;
}

double Quantile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) + static_cast<double>(sorted[hi]) * frac;
}

class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const char* key, uint64_t v) { return Raw(key, std::to_string(v)); }
  Json& Str(const char* key, const std::string& v) { return Raw(key, "\"" + v + "\""); }
  Json& Raw(const char* key, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  std::string Close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) {
      out += ",";
    }
    out += item;
  }
  return out + "]";
}

int Run(const Options& opt) {
  std::vector<FlowInput> in;
  switch (opt.kind) {
    case Kind::kDumbbellSfq:
    case Kind::kDumbbellStatusQuo:
      in = DumbbellInputs(opt.seed, opt.scale);
      break;
    case Kind::kCdnEdge:
      in = CdnInputs(opt.seed, opt.scale);
      break;
    case Kind::kFatTree:
      in = FatTreeInputs(opt.seed, opt.scale);
      break;
  }

  std::vector<double> setup_samples;
  std::unique_ptr<Trial> trial;
  double cpu0 = 0.0;
  SpanTotals setup_spans;
  for (int k = 0; k < kWarmupSetups + kTimedSetups; ++k) {
    trial.reset();
    cpu0 = CpuSeconds();
    const SpanTotals before = g_spans.Sum();
    trial = Setup(opt, in);
    setup_spans = g_spans.Sum() - before;
    if (k >= kWarmupSetups) {
      setup_samples.push_back(trial->setup_s());
    }
  }
  Trial& t = *trial;
  std::vector<double> sorted_setup = setup_samples;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const double setup_s = sorted_setup[sorted_setup.size() / 2];

  // --- sim.run ---
  const SpanTotals spans0 = g_spans.Sum();
  const uint64_t allocs0 = g_alloc_calls.load(std::memory_order_relaxed);
  const uint64_t alloc_bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const double run_cpu0 = CpuSeconds();
  const int run_span = t.coarse.Begin("sim.run", t.root);
  if (t.runner != nullptr) {
    t.runner->RunUntil(t.run_until);
  } else {
    t.sims[0]->RunUntil(t.run_until);
  }
  t.coarse.End(run_span);
  const double run_cpu_s = CpuSeconds() - run_cpu0;
  const uint64_t run_allocs = g_alloc_calls.load(std::memory_order_relaxed) - allocs0;
  const uint64_t run_alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - alloc_bytes0;
  const SpanTotals run_spans = g_spans.Sum() - spans0;
  const double run_s = t.coarse.span(run_span).seconds();

  // --- metrics.extract ---
  const int extract_span = t.coarse.Begin("metrics.extract", t.root);
  std::vector<int64_t> fct_ns;  // every completed flow
  std::vector<int64_t> measured_ns;
  uint64_t measured = 0;
  uint64_t measured_done = 0;
  uint64_t segments = 0;
  for (size_t i = 0; i < t.flows.size(); ++i) {
    const FlowRec& r = t.flows[i];
    segments += static_cast<uint64_t>((in[i].bytes + kMssBytes - 1) / kMssBytes);
    const bool in_window =
        r.start_ns >= t.measure_from.nanos() && r.start_ns < t.measure_until.nanos();
    measured += in_window ? 1 : 0;
    if (r.end_ns < 0) {
      continue;
    }
    fct_ns.push_back(r.end_ns - r.start_ns);
    if (in_window) {
      ++measured_done;
      measured_ns.push_back(r.end_ns - r.start_ns);
    }
  }
  std::sort(fct_ns.begin(), fct_ns.end());
  std::sort(measured_ns.begin(), measured_ns.end());

  std::map<std::string, double> ctr;
  uint64_t events = 0;
  uint64_t max_pending = 0;
  uint64_t trace_records = 0;
  for (const auto& sim : t.sims) {
    sim->counters().AccumulateTo(&ctr, "");
    events += sim->events_dispatched();
    max_pending = std::max<uint64_t>(max_pending, sim->queue_profile().max_heap);
    trace_records += sim->trace().size() + sim->trace().dropped();
  }
  const double link_tx = SumCounters(ctr, "link.", ".tx_pkts");
  const double link_drops = SumCounters(ctr, "link.", ".drops");
  const double q_enq = SumCounters(ctr, "qdisc.", ".enq_pkts");
  const double q_deq = SumCounters(ctr, "qdisc.", ".deq_pkts");
  const double q_drop = SumCounters(ctr, "qdisc.", ".drop_pkts");

  uint64_t digest = Fnv1a64Value(fct_ns.size());
  for (int64_t v : fct_ns) {
    digest = Fnv1a64Value(v, digest);
  }
  for (double v : {link_tx, link_drops, q_enq, q_deq, q_drop}) {
    digest = Fnv1a64Value(static_cast<uint64_t>(v), digest);
  }
  for (const auto& [name, v] : ctr) {
    if (StartsWith(name, "tcp.")) {
      digest = Fnv1a64Value(static_cast<uint64_t>(v), digest);
    }
  }

  double admitted = 0.0;
  double rejected = 0.0;
  double orphan = 0.0;
  if (t.manager_site >= 0) {
    SendboxManager* mgr = t.net->manager(t.manager_site);
    admitted = static_cast<double>(mgr->admitted_count());
    rejected = static_cast<double>(mgr->rejected_count());
    orphan = SumCounters(ctr, "admit.", ".orphan_feedback_pkts");
  }
  double passthrough = 0.0;
  int controllers = 0;
  for (const auto& [name, v] : ctr) {
    if (StartsWith(name, "sendbox.") && EndsWith(name, ".passthrough_frac")) {
      passthrough += v;
      ++controllers;
    }
  }
  passthrough = controllers > 0 ? passthrough / controllers : 0.0;

  const double incomplete_frac =
      measured == 0 ? 1.0 : static_cast<double>(measured - measured_done) / measured;
  std::vector<std::string> checks;
  const uint64_t min_measured =
      static_cast<uint64_t>(std::ceil(kMinMeasuredFlows * std::min(1.0, opt.scale)));
  if (measured < min_measured) {
    checks.push_back(Format("measured %llu flows, need >= %llu",
                            static_cast<unsigned long long>(measured),
                            static_cast<unsigned long long>(min_measured)));
  }
  switch (opt.kind) {
    case Kind::kDumbbellSfq:
    case Kind::kDumbbellStatusQuo:
      if (incomplete_frac > 0.01) {
        checks.push_back(Format("incomplete_frac %.4f > 0.01", incomplete_frac));
      }
      break;
    case Kind::kCdnEdge:
      if (admitted != kCdnAdmitted || rejected != kCdnBundles - kCdnAdmitted) {
        checks.push_back(Format("admission %.0f/%.0f, want %d/%d", admitted, rejected,
                                kCdnAdmitted, kCdnBundles - kCdnAdmitted));
      }
      break;
    case Kind::kFatTree:
      if (fct_ns.size() != t.flows.size()) {
        checks.push_back(Format("only %zu of %zu flows completed", fct_ns.size(),
                                t.flows.size()));
      }
      break;
  }
  t.coarse.End(extract_span);

  // --- obs.serialize: the flight recorder, when armed ---
  if (opt.trace) {
    const int ser = t.coarse.Begin("obs.serialize", t.root);
    std::string out;
    for (const auto& sim : t.sims) {
      sim->trace().WriteJsonl(&out);
    }
    if (!opt.trace_out.empty()) {
      FILE* f = std::fopen(opt.trace_out.c_str(), "w");
      if (f == nullptr || std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
          std::fclose(f) != 0) {
        Die("cannot write ", opt.trace_out);
      }
    }
    t.coarse.End(ser);
  }
  t.coarse.End(t.root);
  const double cpu_s = CpuSeconds() - cpu0;

  const double ev = static_cast<double>(std::max<uint64_t>(events, 1));
  Json counts;
  counts.Int("sim.events", events)
      .Num("sim.ns_per_event", run_s * 1e9 / ev)
      .Int("sim.max_pending", max_pending)
      .Num("sim.allocs_per_event", static_cast<double>(run_allocs) / ev)
      .Num("sim.alloc_mb", static_cast<double>(run_alloc_bytes) / (1024.0 * 1024.0))
      .Num("sim.shard_msgs", SumCounters(ctr, "shard.", ".msgs"))
      .Num("net.tx_pkts", link_tx)
      .Num("net.drop_frac", link_drops / std::max(1.0, link_tx + link_drops))
      .Num("qdisc.ops", q_enq + q_deq)
      .Num("qdisc.drop_frac", q_drop / std::max(1.0, q_enq + q_drop))
      .Int("transport.flows", t.flows.size())
      .Num("transport.incomplete_frac", incomplete_frac)
      .Num("transport.retx_per_pkt",
           SumCounters(ctr, "tcp.retransmits", "") / std::max<double>(1.0, segments))
      .Num("transport.rtos", SumCounters(ctr, "tcp.rtos", ""))
      .Int("transport.arena_blocks", t.net->flows()->arena_blocks())
      .Num("cc.rate_updates", SumCounters(ctr, "cc.", ".rate_updates"))
      .Num("bundler.nimbus_evals", SumCounters(ctr, "nimbus.", ".evals"))
      .Num("bundler.pi_updates", SumCounters(ctr, "pi.", ".rate_updates"))
      .Num("bundler.passthrough_frac", passthrough)
      .Num("bundler.admitted", admitted)
      .Num("bundler.rejected", rejected)
      .Num("bundler.orphan_feedback_pkts", orphan)
      .Num("obs.records_per_event", static_cast<double>(trace_records) / ev);

  std::vector<std::string> coarse;
  for (size_t i = 0; i < t.coarse.spans().size(); ++i) {
    const CoarseSpan& s = t.coarse.spans()[i];
    Json j;
    j.Int("id", i).Raw("parent", std::to_string(s.parent)).Str("name", s.name);
    j.Num("start_s", static_cast<double>(s.start_ns - t.coarse.span(t.root).start_ns) * 1e-9);
    j.Num("dur_s", s.seconds());
    coarse.push_back(j.Close());
  }

  auto span_json = [](const SpanTotals& s) {
    Json j;
    for (int i = 0; i < kNumSpans; ++i) {
      Json a;
      a.Int("calls", s.agg[i].calls)
          .Num("total_s", static_cast<double>(s.agg[i].total_ns) * 1e-9)
          .Num("self_s", static_cast<double>(s.agg[i].self_ns) * 1e-9);
      j.Raw(kSpanNames[i], a.Close());
    }
    j.Num("toplevel_s", static_cast<double>(s.toplevel_ns) * 1e-9);
    return j.Close();
  };

  std::vector<std::string> setup_list;
  for (double v : setup_samples) {
    setup_list.push_back(Format("%.17g", v));
  }
  for (std::string& c : checks) {
    c = Format("\"%s\"", c.c_str());
  }
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));

  Json out;
  out.Str("workload", opt.workload)
      .Int("seed", opt.seed)
      .Num("scale", opt.scale)
      .Int("workers", static_cast<uint64_t>(opt.workers))
      .Raw("traced", opt.trace ? "true" : "false")
      .Num("setup_s", setup_s)
      .Raw("setup_samples_s", JsonList(setup_list))
      .Num("run_s", run_s)
      .Num("cpu_s", cpu_s)
      .Num("run_cpu_s", run_cpu_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Num("fct_p50_ms", Quantile(measured_ns, 0.50) * 1e-6)
      .Num("fct_p99_ms", Quantile(measured_ns, 0.99) * 1e-6)
      .Str("digest", digest_hex)
      .Raw("checks", JsonList(checks))
      .Raw("counts", counts.Close())
      .Raw("coarse_spans", JsonList(coarse))
      .Raw("setup_spans", span_json(setup_spans))
      .Raw("run_spans", span_json(run_spans));
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

// --- Host probe --------------------------------------------------------------

double SpinSeconds(uint64_t iters) {
  const int64_t t0 = WallNs();
  uint64_t x = 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(WallNs() - t0) * 1e-9;
}

// Effective cores: nproc threads each spin a fixed amount of work; the ratio
// of the single-thread time to the all-thread time, times nproc, is how many
// of them really ran at once. Median of three probes.
double EffectiveCores(int nproc) {
  uint64_t iters = uint64_t{1} << 20;
  while (SpinSeconds(iters) < 0.03) {
    iters *= 2;
  }
  std::vector<double> est;
  for (int rep = 0; rep < 3; ++rep) {
    const double t1 = SpinSeconds(iters);
    const int64_t t0 = WallNs();
    std::vector<std::thread> threads;
    for (int i = 0; i < nproc; ++i) {
      threads.emplace_back([iters]() { (void)SpinSeconds(iters); });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    const double tk = static_cast<double>(WallNs() - t0) * 1e-9;
    est.push_back(static_cast<double>(nproc) * t1 / tk);
  }
  std::sort(est.begin(), est.end());
  return est[1];
}

int Info() {
  const int nproc = Nproc();
  Json j;
  j.Str("compiler", E2E_COMPILER)
      .Str("build_type", E2E_BUILD_TYPE)
      .Int("nproc", static_cast<uint64_t>(nproc))
      .Num("effective_cores", EffectiveCores(nproc));
  std::printf("%s\n", j.Close().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  bool workers_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for ", arg);
      }
      return argv[++i];
    };
    auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(d >= lo && d <= hi)) {
        Die("bad value for ", arg + ": " + v);
      }
      return d;
    };
    if (arg == "--info") {
      return Info();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      errno = 0;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
        Die("bad value for --seed: ", v);
      }
    } else if (arg == "--workers") {
      opt.workers = static_cast<int>(number(1, 64));
      workers_set = true;
    } else if (arg == "--scale") {
      opt.scale = number(0.01, 1.0);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      Die("unknown argument ", arg);
    }
  }
  const std::map<std::string, Kind> kinds = {
      {"dumbbell_sfq", Kind::kDumbbellSfq},
      {"dumbbell_status_quo", Kind::kDumbbellStatusQuo},
      {"cdn_edge_managed", Kind::kCdnEdge},
      {"fat_tree_sharded", Kind::kFatTree},
  };
  const auto it = kinds.find(opt.workload);
  if (it == kinds.end()) {
    Die("unknown --workload ", opt.workload);
  }
  opt.kind = it->second;
  if (!workers_set && opt.kind == Kind::kFatTree) {
    opt.workers = kFtDefaultWorkers;
  }
  return Run(opt);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
