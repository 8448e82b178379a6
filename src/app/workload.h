// Workload generators (§7.1): an open-loop Poisson stream of web requests
// drawn from a heavy-tailed size CDF ("a many-threaded client generates
// requests ... each server sends the requested amount of data back"), and
// backlogged bulk (iperf-like) senders.
#ifndef SRC_APP_WORKLOAD_H_
#define SRC_APP_WORKLOAD_H_

#include <vector>

#include "src/app/size_cdf.h"
#include "src/metrics/fct.h"
#include "src/sim/simulator.h"
#include "src/transport/tcp_flow.h"
#include "src/util/random.h"

namespace bundler {

struct WebWorkloadConfig {
  Rate offered_load = Rate::Mbps(84);
  TimePoint start = TimePoint::Zero();
  TimePoint stop = TimePoint::Infinite();
  HostCcType host_cc = HostCcType::kCubic;
  uint8_t priority = 0;
};

// Poisson request arrivals; each request becomes a fresh TCP flow from
// `server` to `client` with a sampled size, recorded in `fct`.
class PoissonWebWorkload {
 public:
  PoissonWebWorkload(Simulator* sim, FlowTable* flows, Host* server, Host* client,
                     const SizeCdf* cdf, const WebWorkloadConfig& config, uint64_t seed,
                     FctRecorder* fct);
  ~PoissonWebWorkload();
  PoissonWebWorkload(const PoissonWebWorkload&) = delete;
  PoissonWebWorkload& operator=(const PoissonWebWorkload&) = delete;

  uint64_t issued() const { return issued_; }

 private:
  void ScheduleNext();
  void IssueRequest();

  Simulator* sim_;
  FlowTable* flows_;
  Host* server_;
  Host* client_;
  const SizeCdf* cdf_;
  WebWorkloadConfig config_;
  Rng rng_;
  FctRecorder* fct_;
  double mean_interarrival_s_;
  EventId timer_ = kInvalidEventId;
  uint64_t issued_ = 0;
};

// Wire size of the small client->server request message.
inline constexpr uint32_t kRequestBytes = 92;

// One request-response exchange: the client sends a small request packet to
// the server (retried with backoff if lost); on receipt the server starts the
// TCP response flow back to the client. FCT therefore spans the full
// round trip from the application's issue time to the last response byte,
// matching the paper's request-response workload (§7.1). The object frees
// itself once the response starts, or once it gives up after kMaxAttempts
// unanswered requests (the FCT then stays incomplete).
class RequestResponse : public PacketHandler {
 public:
  RequestResponse(Simulator* sim, FlowTable* flows, Host* server, Host* client,
                  const TcpFlowParams& params, FlowDoneFn on_complete);
  ~RequestResponse() override;
  RequestResponse(const RequestResponse&) = delete;
  RequestResponse& operator=(const RequestResponse&) = delete;

  // The request packet arriving at the server: starts the response flow and
  // releases this object.
  void HandlePacket(Packet pkt) override;

 private:
  static constexpr int kMaxAttempts = 15;

  void SendRequest();
  // Vacates the request flow id and releases this object off the current
  // stack frame.
  void Retire();

  Simulator* sim_;
  FlowTable* flows_;
  Host* server_;
  Host* client_;
  TcpFlowParams params_;
  FlowDoneFn on_complete_;
  uint64_t request_flow_id_;
  FlowKey request_key_;
  int attempts_ = 0;
  EventId retry_timer_ = kInvalidEventId;
};

// `count` backlogged flows from server to client, started at `start`.
// Backlogged flows never complete, so unlike a finite flow's sender (freed
// on completion, see CreateTcpFlow) these handles stay valid for the run.
// Always returns all `count` sender handles (for throughput accounting):
// sender/receiver pairs are created — ids and ports allocated — immediately,
// and a `start` in the future only defers the first transmission. (The old
// contract created deferred flows lazily and returned an empty vector for
// them, a footgun every caller tripped on at least once.)
std::vector<TcpSender*> StartBulkFlows(Simulator* sim, FlowTable* flows, Host* server,
                                       Host* client, int count, HostCcType cc,
                                       TimePoint start);

// One request-response exchange of `size_bytes`, recorded in `fct`.
void IssueSingleRequest(Simulator* sim, FlowTable* flows, Host* server, Host* client,
                        int64_t size_bytes, HostCcType cc, FctRecorder* fct,
                        uint8_t priority = 0);

}  // namespace bundler

#endif  // SRC_APP_WORKLOAD_H_
