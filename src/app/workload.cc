#include "src/app/workload.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

PoissonWebWorkload::PoissonWebWorkload(Simulator* sim, FlowTable* flows, Host* server,
                                       Host* client, const SizeCdf* cdf,
                                       const WebWorkloadConfig& config, uint64_t seed,
                                       FctRecorder* fct)
    : sim_(sim),
      flows_(flows),
      server_(server),
      client_(client),
      cdf_(cdf),
      config_(config),
      rng_(seed),
      fct_(fct) {
  BUNDLER_CHECK(config_.offered_load.bps() > 0);
  double requests_per_sec = config_.offered_load.BytesPerSecond() / cdf_->MeanBytes();
  mean_interarrival_s_ = 1.0 / requests_per_sec;
  TimeDelta until_start = config_.start > sim_->now() ? config_.start - sim_->now()
                                                      : TimeDelta::Zero();
  timer_ = sim_->Schedule(
      until_start + TimeDelta::SecondsF(rng_.NextExponential(mean_interarrival_s_)),
      [this]() { IssueRequest(); });
}

PoissonWebWorkload::~PoissonWebWorkload() {
  if (timer_ != kInvalidEventId) {
    sim_->Cancel(timer_);
  }
}

void PoissonWebWorkload::ScheduleNext() {
  timer_ = sim_->Schedule(
      TimeDelta::SecondsF(rng_.NextExponential(mean_interarrival_s_)),
      [this]() { IssueRequest(); });
}

void PoissonWebWorkload::IssueRequest() {
  timer_ = kInvalidEventId;
  TimePoint now = sim_->now();
  if (now >= config_.stop) {
    return;  // workload finished; do not reschedule
  }
  int64_t size = cdf_->Sample(rng_);
  ++issued_;

  TcpFlowParams params;
  params.size_bytes = size;
  params.cc = config_.host_cc;
  params.priority = config_.priority;
  params.request_start = now;
  FlowDoneFn on_complete;
  if (fct_ != nullptr) {
    uint64_t req_id = fct_->RegisterRequest(size, now, config_.priority);
    params.request_id = req_id;
    FctRecorder* fct = fct_;
    on_complete = [fct, req_id](TimePoint end) { fct->OnComplete(req_id, end); };
  }
  // Fire-and-forget: the FlowTable owns the flow's lifetime.
  (void)flows_->Emplace<RequestResponse>(sim_, flows_, server_, client_, params,
                                         std::move(on_complete));
  ScheduleNext();
}

RequestResponse::RequestResponse(Simulator* sim, FlowTable* flows, Host* server,
                                 Host* client, const TcpFlowParams& params,
                                 FlowDoneFn on_complete)
    : sim_(sim),
      flows_(flows),
      server_(server),
      client_(client),
      params_(params),
      on_complete_(std::move(on_complete)),
      request_flow_id_(flows->AllocFlowId()) {
  request_key_.src = client_->address();
  request_key_.dst = server_->address();
  request_key_.src_port = client_->AllocPort();
  request_key_.dst_port = server_->AllocPort();
  request_key_.protocol = 6;
  server_->Register(request_flow_id_, this);
  SendRequest();
}

RequestResponse::~RequestResponse() {
  if (retry_timer_ != kInvalidEventId) {
    sim_->Cancel(retry_timer_);
  }
}

void RequestResponse::SendRequest() {
  retry_timer_ = kInvalidEventId;
  if (attempts_ >= kMaxAttempts) {
    Retire();
    return;
  }
  ++attempts_;
  Packet req = MakeDataPacket(request_flow_id_, request_key_, /*seq=*/0, kRequestBytes);
  req.tx_time = sim_->now();
  req.request_id = params_.request_id;
  req.priority = params_.priority;
  client_->SendOut(std::move(req));
  // Exponential backoff: 200 ms, 400 ms, ... capped at 2 s.
  TimeDelta delay = TimeDelta::Millis(std::min<int64_t>(200 << (attempts_ - 1), 2000));
  retry_timer_ = sim_->Schedule(delay, [this]() { SendRequest(); });
}

void RequestResponse::HandlePacket(Packet pkt) {
  if (pkt.type != PacketType::kData) {
    return;
  }
  if (retry_timer_ != kInvalidEventId) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = kInvalidEventId;
  }
  StartTcpFlow(flows_, server_, client_, params_, std::move(on_complete_));
  // The handshake glue is dead weight once the data flow exists. Retried
  // requests then land in the unclaimed counter, so only the first one starts
  // a response. The retry timer is already dead.
  Retire();
}

void RequestResponse::Retire() {
  server_->Unregister(request_flow_id_);
  FlowTable* table = flows_;
  RequestResponse* self = this;
  sim_->Schedule(TimeDelta::Zero(), [table, self]() { table->Release(self); });
}

std::vector<TcpSender*> StartBulkFlows(Simulator* sim, FlowTable* flows, Host* server,
                                       Host* client, int count, HostCcType cc,
                                       TimePoint start) {
  std::vector<TcpSender*> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    TcpFlowParams params;
    params.size_bytes = -1;  // backlogged
    params.cc = cc;
    if (start <= sim->now()) {
      out.push_back(StartTcpFlow(flows, server, client, params, nullptr));
    } else {
      // Create the pair now (so the handle can be returned) but defer the
      // first transmission to `start`. Construction sends nothing.
      TcpSender* sender = CreateTcpFlow(flows, server, client, params, nullptr);
      sim->ScheduleAt(start, [sender]() { sender->Start(); });
      out.push_back(sender);
    }
  }
  return out;
}

void IssueSingleRequest(Simulator* sim, FlowTable* flows, Host* server, Host* client,
                        int64_t size_bytes, HostCcType cc, FctRecorder* fct,
                        uint8_t priority) {
  TcpFlowParams params;
  params.size_bytes = size_bytes;
  params.cc = cc;
  params.priority = priority;
  params.request_start = sim->now();
  FlowDoneFn on_complete;
  if (fct != nullptr) {
    uint64_t req_id = fct->RegisterRequest(size_bytes, sim->now(), priority);
    params.request_id = req_id;
    on_complete = [fct, req_id](TimePoint end) { fct->OnComplete(req_id, end); };
  }
  // Fire-and-forget: the FlowTable owns the flow's lifetime.
  (void)flows->Emplace<RequestResponse>(sim, flows, server, client, params,
                                        std::move(on_complete));
}

}  // namespace bundler
