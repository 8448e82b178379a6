#include "src/sim/shard_runner.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "src/util/check.h"

namespace bundler {

namespace {

constexpr int64_t kFarFuture = std::numeric_limits<int64_t>::max();

// Events and arrivals dispatched per shard step before republishing.
constexpr size_t kStepBudget = 256;

// "a delivers before b" by (deliver, sent, channel, seq) — every component
// simulation-determined, so arrival order is identical for any worker count.
bool ArrivalBefore(const BoundaryMsg& a, const BoundaryMsg& b) {
  if (a.deliver_ns != b.deliver_ns) {
    return a.deliver_ns < b.deliver_ns;
  }
  if (a.sent_ns != b.sent_ns) {
    return a.sent_ns < b.sent_ns;
  }
  if (a.channel != b.channel) {
    return a.channel < b.channel;
  }
  return a.seq < b.seq;
}

}  // namespace

ShardRunner::ShardRunner(std::vector<Simulator*> sims,
                         const ShardChannelSet* channels, Options options)
    : options_(options) {
  BUNDLER_CHECK(!sims.empty());
  shards_.reserve(sims.size());
  for (Simulator* sim : sims) {
    // Construction-time only: shard state is built before workers spawn.
    auto s = std::make_unique<Shard>();  // lint:allow(datapath-heap-alloc)
    s->sim = sim;
    shards_.push_back(std::move(s));
  }
  if (channels != nullptr) {
    for (const auto& ch : channels->channels()) {
      const ShardChannel::Spec& spec = ch->spec();
      BUNDLER_CHECK(spec.src_shard >= 0 &&
                    spec.src_shard < static_cast<int>(shards_.size()));
      BUNDLER_CHECK(spec.dst_shard >= 0 &&
                    spec.dst_shard < static_cast<int>(shards_.size()));
      WireInChannel(*shards_[static_cast<size_t>(spec.dst_shard)], ch.get());
    }
  }
}

void ShardRunner::WireInChannel(Shard& dst, ShardChannel* ch) {
  // Construction is single-threaded: no worker exists yet, so the caller
  // trivially owns every shard.
  dst.owner_role.Assert();
  const ShardChannel::Spec& spec = ch->spec();
  dst.in.push_back(InChannel{
      ch, &shards_[static_cast<size_t>(spec.src_shard)]->clock_ns,
      spec.lookahead_ns, spec.dst, {}});
}

ShardRunner::InChannel* ShardRunner::EarliestArrival(Shard& s) {
  InChannel* best = nullptr;
  for (InChannel& in : s.in) {
    if (!in.fifo.empty() &&
        (best == nullptr || ArrivalBefore(in.fifo.front(), best->fifo.front()))) {
      best = &in;
    }
  }
  return best;
}

bool ShardRunner::Step(Shard& s, int64_t until_ns) {
  const int64_t cap = until_ns + 1;  // exclusive bound for inclusive `until`
  // 1. Conservative advance bound. Peer clocks are read with acquire BEFORE
  // the rings are drained: every message counted into the bound (sent before
  // the clock we read was published) is then visible in its ring.
  int64_t bound = cap;
  for (const InChannel& in : s.in) {
    const int64_t b =
        in.src_clock->load(std::memory_order_acquire) + in.lookahead_ns;
    bound = std::min(bound, b);
  }
  // 2. Drain each ring into its channel's FIFO. This shard is every
  // in-channel's single consumer, and the caller's REQUIRES(s.owner_role)
  // makes this worker the shard's single driver — so the consumer role holds.
  for (InChannel& in : s.in) {
    in.ch->consumer_role().Assert();
    in.ch->Drain([&in](BoundaryMsg& m) { in.fifo.emplace_back(std::move(m)); });
  }
  // 3. Dispatch strictly below the bound, merging the earliest FIFO head with
  // the local heap; arrivals win time ties (fixed, simulation-determined
  // rule). The FIFOs change only when an arrival is delivered, so the
  // earliest head is re-found only then.
  const int64_t limit = bound;
  bool progress = false;
  InChannel* next = EarliestArrival(s);
  int64_t tl = 0;
  int64_t ta = 0;
  for (size_t budget = kStepBudget; budget > 0; --budget) {
    tl = s.sim->HasPending() ? s.sim->PeekNextTime().nanos() : kFarFuture;
    ta = next == nullptr ? kFarFuture : next->fifo.front().deliver_ns;
    if (std::min(ta, tl) >= limit) {
      break;
    }
    if (ta <= tl) {
      BoundaryMsg& m = next->fifo.front();
      s.sim->RunInline(TimePoint::FromNanos(m.deliver_ns), [&s, &m, next] {
        obs::Tracer& tracer = s.sim->trace();
        if (tracer.enabled(obs::TraceCat::kShard)) {
          tracer.Trace(obs::TraceCat::kShard, obs::TraceEv::kShardDeliver, 0,
                       s.sim->now(), m.channel, m.seq,
                       static_cast<uint64_t>(m.sent_ns));
        }
        next->dst->HandlePacket(std::move(m.pkt));
      });
      next->fifo.pop_front();
      next = EarliestArrival(s);
    } else {
      s.sim->DispatchNext();
    }
    progress = true;
  }
  // 4. Publish the clock: the earliest instant this shard might still
  // execute. When blocked this equals the bound — the null message that lets
  // downstream shards advance past us.
  tl = s.sim->HasPending() ? s.sim->PeekNextTime().nanos() : kFarFuture;
  ta = next == nullptr ? kFarFuture : next->fifo.front().deliver_ns;
  const int64_t clk = std::min(limit, std::min(ta, tl));
  if (clk > s.clock_ns.load(std::memory_order_relaxed)) {
    s.clock_ns.store(clk, std::memory_order_release);
  }
  if (clk >= cap) {
    // Nothing left before `until` and every upstream horizon has passed it.
    s.sim->FastForwardTo(TimePoint::FromNanos(until_ns));
    s.done = true;
  }
  return progress;
}

void ShardRunner::Worker(int w, TimePoint until) {
  const int64_t until_ns = until.nanos();
  const int total = num_shards();
  const int stride = std::clamp(options_.workers, 1, total);
  while (true) {
    bool all_done = true;
    bool any_progress = false;
    for (int g = w; g < total; g += stride) {
      Shard& s = *shards_[static_cast<size_t>(g)];
      // Static assignment: shard g is driven only by worker g % stride — us.
      s.owner_role.Assert();
      if (s.done) {
        continue;
      }
      any_progress |= Step(s, until_ns);
      all_done &= s.done;
    }
    if (all_done) {
      return;
    }
    if (!any_progress) {
      std::this_thread::yield();
    }
  }
}

void ShardRunner::RunUntil(TimePoint until) {
  const int total = num_shards();
  if (total == 1) {
    // Single shard: literally the sequential engine (and byte-identical to an
    // unsharded run of the same build).
    shards_[0]->sim->RunUntil(until);
    shards_[0]->clock_ns.store(until.nanos() + 1, std::memory_order_release);
    return;
  }
  for (auto& s : shards_) {
    s->owner_role.Assert();  // workers have not been spawned yet
    s->done = false;
    s->run_start_events = s->sim->events_dispatched();
    s->sim->trace().Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunStart,
                          s->sim->sim_comp(), s->sim->now(),
                          static_cast<uint64_t>(until.nanos()));
  }
  const int workers = std::clamp(options_.workers, 1, total);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back([this, w, until] { Worker(w, until); });
  }
  Worker(0, until);
  for (std::thread& t : threads) {
    t.join();
  }
  for (auto& s : shards_) {
    s->owner_role.Assert();  // workers have all been joined
    s->sim->trace().Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunEnd,
                          s->sim->sim_comp(), s->sim->now(),
                          s->sim->events_dispatched() - s->run_start_events,
                          s->sim->events_dispatched());
  }
}

uint64_t ShardRunner::total_events() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) {
    sum += s->sim->events_dispatched();
  }
  return sum;
}

}  // namespace bundler
