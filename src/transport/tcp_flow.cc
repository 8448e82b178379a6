#include "src/transport/tcp_flow.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace bundler {

TcpReceiver::TcpReceiver(Host* host, FlowTable* table, uint64_t flow_id,
                         FlowDoneFn on_complete)
    : host_(host), table_(table), flow_id_(flow_id), on_complete_(std::move(on_complete)) {
  host_->Register(flow_id_, this);
}

void TcpReceiver::HandlePacket(Packet pkt) {
  if (pkt.type != PacketType::kData) {
    return;
  }
  if (pkt.seq == cum_expected_) {
    ++cum_expected_;
    // Drain any contiguous out-of-order segments.
    cum_expected_ = out_of_order_.DrainContiguousFrom(cum_expected_);
  } else if (pkt.seq > cum_expected_) {
    (void)out_of_order_.Insert(pkt.seq);
  }
  // else: duplicate below the cumulative point; still ACK it.

  Packet ack = MakeAckPacket(pkt, /*ack_src=*/pkt.key.dst, /*ack_dst=*/pkt.key.src);
  ack.seq = cum_expected_;
  ack.request_id = pkt.request_id;
  host_->SendOut(std::move(ack));

  if (pkt.flow_total_pkts > 0 && cum_expected_ >= pkt.flow_total_pkts) {
    if (on_complete_) {
      on_complete_(host_->sim()->now());
    }
    // TIME_WAIT: the sender's final ACKs may still be lost, so its tail
    // retransmissions must keep drawing ACKs. From here on they can only ever
    // be ACKed with cum_expected_ == flow_total_pkts, which the host does for
    // any finite-flow data with no handler (Host::HandlePacket), so the flow
    // id leaves the demux with this receiver.
    host_->Unregister(flow_id_);
    FlowTable* table = table_;
    TcpReceiver* self = this;
    host_->sim()->Schedule(TimeDelta::Zero(), [table, self]() { table->Release(self); });
  }
}

TcpSender::TcpSender(Host* host, FlowTable* table, uint64_t flow_id, FlowKey key,
                     const TcpFlowParams& params)
    : host_(host), table_(table), flow_id_(flow_id), key_(key), params_(params) {
  cc_ = MakeHostCcInPlace(&cc_storage_, params.cc, params.const_cwnd_pkts);
  if (params_.size_bytes < 0) {
    total_pkts_ = 0;
    last_payload_bytes_ = kMssBytes;
  } else {
    total_pkts_ = (params_.size_bytes + kMssBytes - 1) / kMssBytes;
    total_pkts_ = std::max<int64_t>(total_pkts_, 1);
    int64_t rem = params_.size_bytes % kMssBytes;
    last_payload_bytes_ = rem == 0 ? kMssBytes : rem;
  }
  host_->Register(flow_id_, this);
  Simulator* sim = host_->sim();
  comp_ = sim->trace().FindOrRegisterComponent("tcp", "tcp");
  obs::CounterRegistry& reg = sim->counters();
  ctr_retx_ = reg.Counter("tcp.retransmits");
  ctr_rtos_ = reg.Counter("tcp.rtos");
  ctr_spurious_ = reg.Counter("tcp.spurious");
  ctr_recoveries_ = reg.Counter("tcp.recoveries");
}

TcpSender::~TcpSender() { cc_->~HostCc(); }

void TcpSender::Start() {
  BUNDLER_CHECK(!started_);
  started_ = true;
  TrySend();
}

double TcpSender::InflightPkts() const {
  // RFC 6675 "pipe": sent minus delivered (SACKed) minus presumed-lost holes
  // that have not been retransmitted. Retransmitted holes count once (their
  // retransmission is in flight), which the formula covers by construction.
  int64_t pipe = (next_seq_ - cum_acked_) - scoreboard_.sacked_count() -
                 scoreboard_.lost_count();
  return static_cast<double>(std::max<int64_t>(0, pipe));
}

int64_t TcpSender::PayloadSize(int64_t seq) const {
  if (total_pkts_ > 0 && seq == total_pkts_ - 1) {
    return last_payload_bytes_;
  }
  return kMssBytes;
}

uint32_t TcpSender::WireSize(int64_t seq) const {
  return static_cast<uint32_t>(PayloadSize(seq)) + kHeaderBytes;
}

void TcpSender::SendSegment(int64_t seq, bool retransmit) {
  Packet pkt = MakeDataPacket(flow_id_, key_, seq, WireSize(seq));
  pkt.flow_total_pkts = total_pkts_;
  pkt.retransmit = retransmit;
  pkt.tx_time = host_->sim()->now();
  pkt.delivered_at_tx = delivered_bytes_;
  pkt.request_id = params_.request_id;
  pkt.priority = params_.priority;
  if (retransmit) {
    ++retransmits_;
    ++*ctr_retx_;
    obs::Tracer& tracer = host_->sim()->trace();
    if (tracer.enabled(obs::TraceCat::kTcp)) {
      tracer.Trace(obs::TraceCat::kTcp, obs::TraceEv::kTcpRetx, comp_,
                   host_->sim()->now(), flow_id_, static_cast<uint64_t>(seq),
                   rto_recovery_ ? 1 : 0);
    }
  }
  if (in_recovery_ && !rto_recovery_) {
    prr_out_ += 1;
    --prr_budget_;
  }
  host_->SendOut(std::move(pkt));
  EnsureRtoArmed();
}

void TcpSender::TrySend() {
  if (complete_) {
    return;
  }
  TimePoint now = host_->sim()->now();
  Rate pacing = cc_->PacingRate();
  while ((total_pkts_ == 0 || next_seq_ < total_pkts_) && InflightPkts() < cc_->CwndPkts() &&
         !PrrGated()) {
    if (!pacing.IsZero()) {
      if (now < next_pacing_send_) {
        if (pacing_timer_ == kInvalidEventId) {
          pacing_timer_ = host_->sim()->ScheduleAt(next_pacing_send_, [this]() {
            pacing_timer_ = kInvalidEventId;
            TrySend();
          });
        }
        return;
      }
      next_pacing_send_ =
          std::max(next_pacing_send_, now) + pacing.TransmitTime(WireSize(next_seq_));
    }
    SendSegment(next_seq_, /*retransmit=*/false);
    ++next_seq_;
    scoreboard_.ExtendTo(next_seq_);
  }
}

void TcpSender::UpdateRtt(TimeDelta sample) {
  if (srtt_.IsZero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  TimeDelta err = TimeDelta::Nanos(std::abs((sample - srtt_).nanos()));
  rttvar_ = TimeDelta::Nanos((3 * rttvar_.nanos() + err.nanos()) / 4);
  srtt_ = TimeDelta::Nanos((7 * srtt_.nanos() + sample.nanos()) / 8);
}

TimeDelta TcpSender::CurrentRto() const {
  TimeDelta base = srtt_.IsZero() ? TimeDelta::Seconds(1) : srtt_ + rttvar_ * 4.0;
  base = std::max(base, kMinRto);
  for (int i = 0; i < rto_backoff_; ++i) {
    base = base * 2.0;
    if (base >= kMaxRto) {
      return kMaxRto;
    }
  }
  return std::min(base, kMaxRto);
}

void TcpSender::RestartRto() {
  rto_deadline_ = host_->sim()->now() + CurrentRto();
  if (rto_timer_ == kInvalidEventId) {
    rto_timer_ = host_->sim()->ScheduleAt(rto_deadline_, [this]() { OnRtoTimer(); });
  }
  ArmPto();
}

void TcpSender::EnsureRtoArmed() {
  // Do not slide an existing deadline forward: the timer guards the oldest
  // outstanding segment, and refreshing it on every transmission would let a
  // steadily sending flow starve a stuck retransmission forever.
  if (rto_timer_ == kInvalidEventId) {
    RestartRto();
    return;
  }
  ArmPto();
}

void TcpSender::ArmPto() {
  if (complete_ || probe_outstanding_) {
    return;
  }
  TimeDelta delay = srtt_.IsZero() ? TimeDelta::Millis(100)
                                   : std::max(srtt_ * 2.0, TimeDelta::Millis(10));
  TimePoint deadline = host_->sim()->now() + delay;
  if (deadline >= rto_deadline_) {
    return;  // the RTO will fire first anyway
  }
  pto_deadline_ = deadline;
  if (pto_timer_ == kInvalidEventId) {
    pto_timer_ = host_->sim()->ScheduleAt(pto_deadline_, [this]() { OnPtoTimer(); });
  }
}

void TcpSender::OnPtoTimer() {
  pto_timer_ = kInvalidEventId;
  if (complete_) {
    return;
  }
  TimePoint now = host_->sim()->now();
  if (now < pto_deadline_) {
    pto_timer_ = host_->sim()->ScheduleAt(pto_deadline_, [this]() { OnPtoTimer(); });
    return;
  }
  if (probe_outstanding_ || InflightPkts() <= 0) {
    return;
  }
  // Probe with the highest outstanding unSACKed segment.
  int64_t probe = next_seq_ - 1;
  while (probe >= cum_acked_ && scoreboard_.IsSacked(probe)) {
    --probe;
  }
  if (probe < cum_acked_) {
    return;
  }
  probe_outstanding_ = true;
  SendSegment(probe, /*retransmit=*/true);
}

void TcpSender::OnRtoTimer() {
  rto_timer_ = kInvalidEventId;
  if (complete_) {
    return;
  }
  TimePoint now = host_->sim()->now();
  if (now < rto_deadline_) {
    // The deadline moved forward since this timer was armed; re-arm lazily.
    rto_timer_ = host_->sim()->ScheduleAt(rto_deadline_, [this]() { OnRtoTimer(); });
    return;
  }
  if (InflightPkts() <= 0 && (total_pkts_ != 0 && cum_acked_ >= total_pkts_)) {
    return;  // nothing outstanding
  }
  ++timeouts_;
  ++*ctr_rtos_;
  {
    obs::Tracer& tracer = host_->sim()->trace();
    if (tracer.enabled(obs::TraceCat::kTcp)) {
      tracer.Trace(obs::TraceCat::kTcp, obs::TraceEv::kTcpRto, comp_, now,
                   flow_id_, static_cast<uint64_t>(rto_backoff_ + 1),
                   static_cast<uint64_t>(CurrentRto().nanos()));
    }
  }
  ++rto_backoff_;
  probe_outstanding_ = false;
  cc_->OnLoss(LossSample{now, /*is_timeout=*/true, InflightPkts()});
  // Keep the SACK scoreboard (no reneging) so recovery can retransmit every
  // known hole as the slow-start window regrows, instead of go-back-N.
  // Earlier retransmissions are presumed lost too: put them back in the
  // pending pool so they get another chance.
  in_recovery_ = true;
  rto_recovery_ = true;
  recovery_point_ = next_seq_;
  scoreboard_.MoveAllRetxToLost();
  dupacks_ = 0;
  if (total_pkts_ == 0 || cum_acked_ < total_pkts_) {
    scoreboard_.MarkRetx(cum_acked_, next_seq_);
    SendSegment(cum_acked_, /*retransmit=*/true);
  }
  RestartRto();
}

void TcpSender::EnterRecovery(TimePoint now) {
  in_recovery_ = true;
  rto_recovery_ = false;
  recovery_point_ = next_seq_;
  ++*ctr_recoveries_;
  obs::Tracer& tracer = host_->sim()->trace();
  if (tracer.enabled(obs::TraceCat::kTcp)) {
    tracer.Trace(obs::TraceCat::kTcp, obs::TraceEv::kTcpRecoveryEnter, comp_,
                 now, flow_id_, static_cast<uint64_t>(recovery_point_), 0);
  }
  scoreboard_.ClearRetx();
  prr_recoverfs_ = std::max(1.0, InflightPkts());
  prr_delivered_ = 0;
  prr_out_ = 0;
  prr_budget_ = 1;  // always allow the fast retransmit itself
  cc_->OnLoss(LossSample{now, /*is_timeout=*/false, InflightPkts()});
}

bool TcpSender::PrrGated() const {
  return in_recovery_ && !rto_recovery_ && prr_budget_ <= 0;
}

void TcpSender::RefreshPrrBudget() {
  if (!in_recovery_ || rto_recovery_) {
    return;
  }
  double ssthresh = cc_->CwndPkts();  // post-reduction window
  double pipe = InflightPkts();
  double sndcnt;
  if (pipe > ssthresh) {
    // Rate-reduction phase: send beta packets per delivered packet.
    sndcnt = std::ceil(prr_delivered_ * ssthresh / prr_recoverfs_) - prr_out_;
  } else {
    // Slow-start reduction bound: rebuild the pipe up to ssthresh.
    sndcnt = std::min(std::max(prr_delivered_ - prr_out_, 1.0), ssthresh - pipe + 1.0);
  }
  prr_budget_ = static_cast<int>(std::max(0.0, sndcnt));
}

void TcpSender::MaybeRetransmitHoles() {
  double pipe = InflightPkts();
  const double cwnd = cc_->CwndPkts();
  while (pipe < cwnd && scoreboard_.lost_count() > 0 && !PrrGated()) {
    int64_t hole = scoreboard_.FirstLost();
    scoreboard_.MarkRetx(hole, next_seq_);
    SendSegment(hole, /*retransmit=*/true);
    pipe += 1.0;  // the hole left the lost-pending pool, so the pipe grew by one
  }
}

void TcpSender::HandlePacket(Packet pkt) {
  if (pkt.type != PacketType::kAck || complete_) {
    return;
  }
  OnAck(pkt);
}

void TcpSender::OnAck(const Packet& ack) {
  TimePoint now = host_->sim()->now();
  // Spurious-retransmit detection (before the scoreboard window moves): the
  // ACK echoes which data transmission triggered it. If that echo is an
  // *original* transmission of a segment we have already retransmitted (state
  // kRetxOutstanding), the original survived and the retransmit was wasted.
  {
    const int64_t s = ack.acked_data_seq;
    if (!ack.echo_retransmit && s >= cum_acked_ && s < next_seq_ &&
        scoreboard_.StateOf(s) == SackScoreboard::SegState::kRetxOutstanding) {
      ++*ctr_spurious_;
      obs::Tracer& tracer = host_->sim()->trace();
      if (tracer.enabled(obs::TraceCat::kTcp)) {
        tracer.Trace(obs::TraceCat::kTcp, obs::TraceEv::kTcpSpuriousRetx,
                     comp_, now, flow_id_, static_cast<uint64_t>(s));
      }
    }
  }
  if (ack.seq > cum_acked_) {
    int64_t newly_acked = ack.seq - cum_acked_;
    // Count bytes for everything newly covered by the cumulative point: full
    // MSS segments except the flow's final (possibly short) one.
    delivered_bytes_ += newly_acked * kMssBytes;
    if (total_pkts_ > 0 && ack.seq >= total_pkts_) {
      delivered_bytes_ += last_payload_bytes_ - kMssBytes;
    }
    cum_acked_ = ack.seq;
    scoreboard_.AdvanceTo(cum_acked_);
    dupacks_ = 0;
    rto_backoff_ = 0;
    probe_outstanding_ = false;
    if (in_recovery_ && !rto_recovery_) {
      prr_delivered_ += static_cast<double>(newly_acked);
    }

    AckSample sample;
    sample.now = now;
    sample.acked_pkts = static_cast<int>(newly_acked);
    if (!ack.echo_retransmit && !ack.echo_tx_time.IsInfinite()) {
      sample.rtt = now - ack.echo_tx_time;
      sample.rtt_valid = sample.rtt > TimeDelta::Zero();
      if (sample.rtt_valid) {
        UpdateRtt(sample.rtt);
        // Delivery rate over the packet's flight (BBR-style sampling).
        int64_t delivered_delta = delivered_bytes_ - ack.echo_delivered_at_tx;
        if (delivered_delta > 0) {
          sample.delivery_rate = Rate::FromBytesAndTime(delivered_delta, sample.rtt);
        }
      }
    }
    sample.inflight_pkts = InflightPkts();

    if (in_recovery_) {
      if (cum_acked_ >= recovery_point_) {
        in_recovery_ = false;
        rto_recovery_ = false;
        scoreboard_.ClearLostAndRetx();
        obs::Tracer& tracer = host_->sim()->trace();
        if (tracer.enabled(obs::TraceCat::kTcp)) {
          tracer.Trace(obs::TraceCat::kTcp, obs::TraceEv::kTcpRecoveryExit,
                       comp_, now, flow_id_, static_cast<uint64_t>(cum_acked_));
        }
      }
    }
    sample.in_fast_recovery = in_recovery_ && !rto_recovery_;
    cc_->OnAck(sample);
    if (in_recovery_) {
      // Partial ACK: retransmit every remaining known hole the window allows.
      RefreshPrrBudget();
      MaybeRetransmitHoles();
    }
    RestartRto();

    if (total_pkts_ > 0 && cum_acked_ >= total_pkts_) {
      complete_ = true;
      if (rto_timer_ != kInvalidEventId) {
        host_->sim()->Cancel(rto_timer_);
        rto_timer_ = kInvalidEventId;
      }
      if (pto_timer_ != kInvalidEventId) {
        host_->sim()->Cancel(pto_timer_);
        pto_timer_ = kInvalidEventId;
      }
      if (pacing_timer_ != kInvalidEventId) {
        host_->sim()->Cancel(pacing_timer_);
        pacing_timer_ = kInvalidEventId;
      }
      // Every byte is cumulatively ACKed and every timer above is dead, so
      // no pending event references this sender. Vacate the flow id now
      // (straggler dup-ACKs land in the host's unclaimed counter) and
      // destroy via a zero-delay event so the destructor never runs under
      // this handler's own stack frame.
      host_->Unregister(flow_id_);
      FlowTable* table = table_;
      TcpSender* self = this;
      host_->sim()->Schedule(TimeDelta::Zero(), [table, self]() { table->Release(self); });
      return;
    }
  } else if (ack.seq == cum_acked_) {
    // Duplicate ACK; record the SACK hint carried by the echo and reveal any
    // holes it implies (every non-SACKed seq below the highest SACK is
    // presumed lost).
    int64_t s = ack.acked_data_seq;
    if (s > cum_acked_ && !scoreboard_.IsSacked(s)) {
      int64_t reveal_from =
          scoreboard_.HasSacked() ? scoreboard_.HighestSacked() + 1 : cum_acked_;
      if (s >= reveal_from) {
        for (int64_t q = reveal_from; q < s; ++q) {
          if (scoreboard_.StateOf(q) != SackScoreboard::SegState::kRetxOutstanding) {
            scoreboard_.MarkLost(q);
          }
        }
        scoreboard_.MarkSacked(s);
        // Lost-retransmission detection: this SACK is for an original
        // transmission; any hole retransmitted well before `s` was sent and
        // still unacked must have had its retransmission dropped.
        scoreboard_.MoveStaleRetxToLost(s);
      } else {
        // The SACK fills a previously revealed hole (whatever its state).
        scoreboard_.MarkSacked(s);
      }
      if (in_recovery_ && !rto_recovery_) {
        prr_delivered_ += 1;
      }
    }
    ++dupacks_;
    if (!in_recovery_ && dupacks_ >= 3) {
      EnterRecovery(now);
    }
    if (in_recovery_) {
      if (dupacks_ != 0) {  // budget already set by EnterRecovery on this ack
        RefreshPrrBudget();
      }
      MaybeRetransmitHoles();
    }
  }
  TrySend();
}

TcpSender* CreateTcpFlow(FlowTable* table, Host* src, Host* dst,
                         const TcpFlowParams& params, FlowDoneFn on_receiver_complete) {
  uint64_t flow_id = table->AllocFlowId();
  FlowKey key;
  key.src = src->address();
  key.dst = dst->address();
  // Server-to-client data: fixed well-known service port on the sender side,
  // ephemeral port on the receiver side (as a real accepted connection).
  key.src_port = 80;
  key.dst_port = dst->AllocPort();
  key.protocol = 6;
  (void)table->Emplace<TcpReceiver>(dst, table, flow_id, std::move(on_receiver_complete));
  return table->Emplace<TcpSender>(src, table, flow_id, key, params);
}

TcpSender* StartTcpFlow(FlowTable* table, Host* src, Host* dst, const TcpFlowParams& params,
                        FlowDoneFn on_receiver_complete) {
  TcpSender* sender = CreateTcpFlow(table, src, dst, params, std::move(on_receiver_complete));
  sender->Start();
  return sender;
}

}  // namespace bundler
