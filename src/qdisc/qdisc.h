// Queue discipline interface. Qdiscs are passive containers: links and the
// sendbox's SiteEgress drive them. A qdisc may drop at enqueue (droptail, or a
// fat-flow victim in sfq/drr/fq_codel) or at dequeue (CoDel); dequeue-time
// drops are internal, so `Dequeue` can return nullopt even when
// `packets() > 0` was true before the call.
//
// Observability: the public Enqueue/Dequeue are non-virtual template methods
// that wrap the per-discipline DoEnqueue/DoDequeue with uniform counters
// (packets enqueued, dequeued, dropped) and kQdisc trace points, so every
// discipline is instrumented in one place; a discipline reports an
// enqueue-time drop through CountDrop(dropped, now), which names the packet
// it dropped. A drop counted by the plain CountDrop() during Enqueue, as a
// forwarding decorator does, is named after the arrival. Owners (Link,
// SiteEgress) call BindObs to attach the qdisc to its simulator's tracer;
// unbound qdiscs (unit tests) skip tracing but still count.
#ifndef SRC_QDISC_QDISC_H_
#define SRC_QDISC_QDISC_H_

#include <cstddef>
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
    uint64_t enq_pkts = 0;   // arriving packets queued
    uint64_t deq_pkts = 0;   // packets handed out
    uint64_t drop_pkts = 0;  // tail + victim + AQM drops
  };

  // Returns whether `pkt` was queued. Making room for it may drop a packet
  // already queued instead (a victim, in SFQ, DRR and FQ-CoDel); that shows
  // up in counters()/drops() and in the kQdiscDropTail record naming it.
  bool Enqueue(Packet pkt, TimePoint now) {
    const uint64_t flow = pkt.flow_id;
    const uint64_t size = pkt.size_bytes;
    const uint64_t drops_before = ctrs_.drop_pkts;
    drop_traced_ = false;
    const bool ok = DoEnqueue(std::move(pkt), now);
    if (ok) {
      ++ctrs_.enq_pkts;
    }
    if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kQdisc)) {
      // A drop counted without naming its packet (a forwarding decorator's
      // plain CountDrop()) is recorded against the arrival.
      if (ctrs_.drop_pkts != drops_before && !drop_traced_) {
        tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscDropTail,
                       comp_, now, flow, size, static_cast<uint64_t>(bytes()));
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
  // Returns whether the arriving packet is queued.
  virtual bool DoEnqueue(Packet pkt, TimePoint now) = 0;
  virtual std::optional<Packet> DoDequeue(TimePoint now) = 0;
  // Counts an enqueue-time drop, of the arriving packet or of a victim
  // already queued, and traces it as kQdiscDropTail naming `dropped`.
  void CountDrop(const Packet& dropped, TimePoint now) {
    ++ctrs_.drop_pkts;
    drop_traced_ = true;
    if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kQdisc)) {
      tracer_->Trace(obs::TraceCat::kQdisc, obs::TraceEv::kQdiscDropTail, comp_,
                     now, dropped.flow_id, dropped.size_bytes,
                     static_cast<uint64_t>(bytes()));
    }
  }
  // Counts a drop without naming it: the Dequeue wrapper traces AQM drops,
  // and the Enqueue wrapper traces an enqueue-time one as the arrival's.
  void CountDrop() { ++ctrs_.drop_pkts; }

 private:
  Counters ctrs_;
  obs::Tracer* tracer_ = nullptr;
  uint32_t comp_ = 0;
  bool drop_traced_ = false;  // CountDrop(dropped, now) ran in this Enqueue
};

// The bucket of `n` a stochastic fair queue (SFQ, FQ-CoDel) puts a flow in:
// FlowKeyHash behind a zero seed word, finalized with Mix64.
size_t HashedBucket(const FlowKey& key, size_t n);

}  // namespace bundler

#endif  // SRC_QDISC_QDISC_H_
