// TCP-like reliable transport at packet granularity: slow start / congestion
// avoidance driven by a pluggable HostCc, duplicate-ACK fast retransmit with
// a SACK-style scoreboard, retransmission timeouts with exponential backoff,
// and optional pacing (BBR). End hosts run this unmodified whether or not a
// Bundler is on the path — exactly the paper's deployment model.
#ifndef SRC_TRANSPORT_TCP_FLOW_H_
#define SRC_TRANSPORT_TCP_FLOW_H_

#include <memory>

#include "src/cc/cc.h"
#include "src/net/node.h"
#include "src/sim/inline_function.h"
#include "src/transport/endpoint.h"
#include "src/transport/sack_scoreboard.h"
#include "src/util/interval_set.h"
#include "src/util/time.h"

namespace bundler {

struct TcpFlowParams {
  int64_t size_bytes = 0;  // < 0 means backlogged (never completes)
  HostCcType cc = HostCcType::kCubic;
  double const_cwnd_pkts = 450.0;
  uint64_t request_id = 0;
  uint8_t priority = 0;
  TimePoint request_start;  // when the application issued the request
};

// Completion callback carried by every flow until its last byte arrives:
// `fn(now)`. Flows are the simulator's per-unit memory cost, so the slot holds
// two pointers' worth of capture (e.g. a recorder pointer and a request id);
// bind anything larger through a pointer to caller-owned state.
using FlowDoneFn = InlineFunction<void(TimePoint), 16>;

// Receiver half: cumulative ACKing (one ACK per data packet, Linux quickack
// style), out-of-order buffering, completion detection. When the last byte
// arrives the receiver fires `on_complete(now)`, unregisters its flow id and
// releases itself back to `table` through a zero-delay event. Its TIME_WAIT
// needs no state: the host answers any later data of the flow with the final
// ACK (Host::HandlePacket).
class TcpReceiver : public PacketHandler {
 public:
  TcpReceiver(Host* host, FlowTable* table, uint64_t flow_id, FlowDoneFn on_complete);

  void HandlePacket(Packet pkt) override;

 private:
  Host* host_;
  FlowTable* table_;
  uint64_t flow_id_;
  FlowDoneFn on_complete_;
  int64_t cum_expected_ = 0;
  SeqIntervalSet out_of_order_;  // contiguous runs above the cumulative point
};

// Sender half. A finite flow's sender completes when every byte is
// cumulatively ACKed: it cancels its timers, vacates its flow id (later
// dup-ACKs land in the host's unclaimed counter) and releases itself back to
// `table` through a zero-delay event, so its destructor never runs under its
// own handler's stack frame. A backlogged sender never completes.
class TcpSender : public PacketHandler {
 public:
  TcpSender(Host* host, FlowTable* table, uint64_t flow_id, FlowKey key,
            const TcpFlowParams& params);
  ~TcpSender() override;

  // Begin transmitting (schedules the first send immediately).
  void Start();

  // ACKs from the receiver arrive here.
  void HandlePacket(Packet pkt) override;

  bool complete() const { return complete_; }
  double cwnd_pkts() const { return cc_->CwndPkts(); }
  double InflightPkts() const;
  int64_t total_pkts() const { return total_pkts_; }
  int64_t delivered_bytes() const { return delivered_bytes_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t timeouts() const { return timeouts_; }
  TimeDelta srtt() const { return srtt_; }

 private:
  static constexpr auto kMinRto = TimeDelta::Millis(200);
  static constexpr auto kMaxRto = TimeDelta::Seconds(60);

  void TrySend();
  void SendSegment(int64_t seq, bool retransmit);
  uint32_t WireSize(int64_t seq) const;
  int64_t PayloadSize(int64_t seq) const;
  void OnAck(const Packet& ack);
  void EnterRecovery(TimePoint now);
  bool PrrGated() const;     // true when fast recovery + budget exhausted
  void RefreshPrrBudget();   // recompute the per-ACK send allowance
  // SACK scoreboard recovery (RFC 6675 style): retransmits every presumed-lost
  // hole the congestion window allows, not just the first one.
  void MaybeRetransmitHoles();
  void OnRtoTimer();
  // RFC 6298 semantics: the timer tracks the *oldest* outstanding segment.
  // RestartRto moves the deadline (on ACKs of new data and on timeout
  // backoff); EnsureRtoArmed only starts it if idle (on transmissions).
  // The armed event deliberately fires at its original deadline and re-arms
  // lazily when the deadline moved, rather than Reschedule()-ing on every
  // ACK: an ACK clearing timeout backoff can pull the deadline *earlier*
  // than the armed event, and honoring that eagerly changes retransmit
  // timing (the simulation's reference traces are pinned byte-for-byte).
  // Under the inline-callback engine the lazy re-arm is allocation-free, so
  // the pattern costs one pooled slot per spurious wake and nothing else.
  void RestartRto();
  void EnsureRtoArmed();
  // Tail loss probe (RFC 8985-style): if no ACK arrives for ~2 SRTT while
  // data is outstanding, retransmit the highest unSACKed segment to elicit
  // feedback instead of waiting out a full RTO.
  void ArmPto();
  void OnPtoTimer();
  void UpdateRtt(TimeDelta sample);
  TimeDelta CurrentRto() const;

  Host* host_;
  FlowTable* table_;
  uint64_t flow_id_;
  FlowKey key_;
  TcpFlowParams params_;
  HostCc* cc_;

  int64_t total_pkts_;  // 0 when backlogged
  int64_t last_payload_bytes_;

  int64_t next_seq_ = 0;
  int64_t cum_acked_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;  // recovery entered via timeout (slow-start regrowth)
  int64_t recovery_point_ = 0;
  // Proportional Rate Reduction (RFC 6937): during fast recovery, bound
  // transmissions to ~beta x the delivery rate so a large window under heavy
  // loss backs off instead of pumping ~2x the bottleneck via pipe turnover.
  double prr_delivered_ = 0;
  double prr_out_ = 0;
  double prr_recoverfs_ = 1;
  int prr_budget_ = 0;

  int64_t delivered_bytes_ = 0;
  TimeDelta srtt_ = TimeDelta::Zero();
  TimeDelta rttvar_ = TimeDelta::Zero();
  int rto_backoff_ = 0;
  TimePoint rto_deadline_;
  EventId rto_timer_ = kInvalidEventId;
  TimePoint pto_deadline_;
  EventId pto_timer_ = kInvalidEventId;
  bool probe_outstanding_ = false;  // one TLP per quiet period

  TimePoint next_pacing_send_;
  EventId pacing_timer_ = kInvalidEventId;

  bool started_ = false;
  bool complete_ = false;
  uint64_t retransmits_ = 0;
  uint64_t timeouts_ = 0;

  // Observability (PR 6). Counters are *aggregate* per simulator
  // ("tcp.retransmits", ...) and the trace component is the shared "tcp"
  // component: flows churn mid-run, and per-flow registration would allocate
  // on the datapath. Names stay <= 15 chars so the registry lookup string is
  // SSO — flow construction stays heap-free after the first flow.
  uint32_t comp_ = 0;
  uint64_t* ctr_retx_ = nullptr;
  uint64_t* ctr_rtos_ = nullptr;
  uint64_t* ctr_spurious_ = nullptr;
  uint64_t* ctr_recoveries_ = nullptr;

  // The two big inline blobs live at the end so the hot scalars above share
  // a few contiguous cache lines; both are reached through pointers anyway
  // (cc_, and the scoreboard's own slot cursor).
  //
  // SACK scoreboard. Every seq in [cum_acked_, next_seq_) is in exactly one
  // state: delivered (SACKed), presumed lost awaiting retransmit,
  // retransmitted and in flight (carrying next_seq_ at retransmission time
  // for Linux lost-retransmit detection), or untouched in flight. Seqs below
  // the highest SACK that are not SACKed are presumed lost. The scoreboard is
  // a flat allocation-free ring of per-segment slots (see
  // src/transport/sack_scoreboard.h), so pipe accounting and hole
  // retransmission cost no node churn per event.
  SackScoreboard scoreboard_;
  HostCcStorage cc_storage_;  // controller lives inline: no per-flow heap churn
};

// Wires up a sender on `src` and receiver on `dst` without transmitting
// anything; the caller invokes Start() (possibly later, via a scheduled
// event) to begin. The receiver is registered on `dst` before any data packet
// can leave, which the host's stateless TIME_WAIT relies on: finite-flow data
// with no handler is taken for a completed receiver's (Host::HandlePacket). `on_receiver_complete` may be null (e.g. backlogged
// flows). Both halves live in `table` and free themselves when the flow
// completes, so the returned handle of a finite flow is valid only until its
// sender completes (the zero-delay release event after the last ACK); read
// per-flow results through `on_receiver_complete` or the simulator's tcp.*
// counters. A backlogged flow never completes: its handle stays valid for as
// long as the table does.
TcpSender* CreateTcpFlow(FlowTable* table, Host* src, Host* dst,
                         const TcpFlowParams& params, FlowDoneFn on_receiver_complete);

// CreateTcpFlow + immediate Start().
TcpSender* StartTcpFlow(FlowTable* table, Host* src, Host* dst, const TcpFlowParams& params,
                        FlowDoneFn on_receiver_complete);

}  // namespace bundler

#endif  // SRC_TRANSPORT_TCP_FLOW_H_
