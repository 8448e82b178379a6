// Queue discipline interface. Qdiscs are passive containers: links and the
// sendbox's SiteEgress drive them. A qdisc may drop at enqueue (droptail, or a
// fat-flow victim in sfq/drr/fq_codel) or at dequeue (CoDel); dequeue-time
// drops are internal, so `Dequeue` can return nullopt even when
// `packets() > 0` was true before the call.
//
// Observability (PR 6): the public Enqueue/Dequeue are non-virtual template
// methods that wrap the per-discipline DoEnqueue/DoDequeue with uniform
// counters (pkts enqueued/dequeued/dropped) and kQdisc trace points, so all
// six disciplines are instrumented in one place. Owners (Link, SiteEgress) call
// BindObs to attach the qdisc to its simulator's tracer; unbound qdiscs
// (unit tests) skip tracing but still count.
#ifndef SRC_QDISC_QDISC_H_
#define SRC_QDISC_QDISC_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/net/packet.h"
#include "src/obs/trace.h"
#include "src/util/time.h"

namespace bundler {

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  // Uniform per-qdisc counters, published into the counter registry by the
  // owning component (naming: qdisc.<instance>.<metric>).
  struct Counters {
    uint64_t enq_pkts = 0;   // accepted enqueues
    uint64_t deq_pkts = 0;   // packets handed out
    uint64_t drop_pkts = 0;  // tail + victim + AQM drops
    uint64_t mark_pkts = 0;  // ECN-style marks (reserved; no discipline marks yet)
  };

  // Returns false if the incoming packet was dropped instead of enqueued.
  // (A true return may still have dropped a *different* packet to make room;
  // that shows up in counters()/drops().)
  bool Enqueue(Packet pkt, TimePoint now) {
    const uint64_t flow = pkt.flow_id;
    const uint64_t size = pkt.size_bytes;
    // Kept only to choose the trace record: CountDrop() does the counting.
    const uint64_t drops_before = ctrs_.drop_pkts;
    const bool ok = DoEnqueue(std::move(pkt), now);
    if (ok) {
      ++ctrs_.enq_pkts;
    }
    if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kQdisc)) {
      if (ctrs_.drop_pkts != drops_before) {
        tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscDropTail,
                       comp_, now, flow, size,
                       static_cast<uint64_t>(bytes()));
      }
      if (ok) {
        tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscEnq, comp_,
                       now, flow, size, static_cast<uint64_t>(bytes()));
      }
    }
    return ok;
  }

  std::optional<Packet> Dequeue(TimePoint now) {
    const uint64_t drops_before = ctrs_.drop_pkts;
    std::optional<Packet> pkt = DoDequeue(now);
    if (pkt.has_value()) {
      ++ctrs_.deq_pkts;
    }
    if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kQdisc)) {
      const uint64_t aqm_drops = ctrs_.drop_pkts - drops_before;
      if (aqm_drops != 0) {
        tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscDropAqm,
                       comp_, now, aqm_drops, static_cast<uint64_t>(bytes()),
                       static_cast<uint64_t>(packets()));
      }
      if (pkt.has_value()) {
        tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscDeq, comp_,
                       now, pkt->flow_id, pkt->size_bytes,
                       static_cast<uint64_t>((now - pkt->queue_enter).nanos()));
      }
    }
    return pkt;
  }

  // Next packet that Dequeue would consider, or nullptr when empty. AQM
  // policies may still drop it at Dequeue time.
  virtual const Packet* Peek() const = 0;

  virtual int64_t bytes() const = 0;
  virtual int64_t packets() const = 0;
  bool Empty() const { return packets() == 0; }

  uint64_t drops() const { return ctrs_.drop_pkts; }
  const Counters& counters() const { return ctrs_; }
  virtual const char* name() const = 0;

  // Attaches this qdisc to a tracer as component `comp` (kind "qdisc").
  void BindObs(obs::Tracer* tracer, uint32_t comp) {
    tracer_ = tracer;
    comp_ = comp;
  }

 protected:
  virtual bool DoEnqueue(Packet pkt, TimePoint now) = 0;
  virtual std::optional<Packet> DoDequeue(TimePoint now) = 0;
  void CountDrop() { ++ctrs_.drop_pkts; }

 private:
  Counters ctrs_;
  obs::Tracer* tracer_ = nullptr;
  uint32_t comp_ = 0;
};

}  // namespace bundler

#endif  // SRC_QDISC_QDISC_H_
