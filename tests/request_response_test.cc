// Tests for the request-response workload leg: a small client->server
// request (retried on loss) triggers the server's TCP response, so FCTs span
// the full application round trip, matching the paper's request semantics.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/transport/endpoint.h"

namespace bundler {
namespace {

struct ReqNet {
  Simulator sim;
  FlowTable flows;
  std::unique_ptr<Host> server;
  std::unique_ptr<Host> client;
  std::unique_ptr<Link> fwd;   // server -> client (response data)
  std::unique_ptr<Link> rev;   // client -> server (requests, ACKs)
  std::unique_ptr<LambdaHandler> rev_mangler;

  explicit ReqNet(TimeDelta rtt = TimeDelta::Millis(60),
                  std::function<bool(const Packet&)> drop_reverse = nullptr) {
    server = std::make_unique<Host>(&sim, MakeAddress(1, 1), nullptr);
    client = std::make_unique<Host>(&sim, MakeAddress(2, 1), nullptr);
    fwd = std::make_unique<Link>(&sim, "fwd", Rate::Mbps(96), rtt / 2,
                                 std::make_unique<DropTailFifo>(1 << 22), client.get());
    rev = std::make_unique<Link>(&sim, "rev", Rate::Mbps(96), rtt / 2,
                                 std::make_unique<DropTailFifo>(1 << 22), server.get());
    server->set_egress(fwd.get());
    if (drop_reverse) {
      rev_mangler = std::make_unique<LambdaHandler>([this, drop_reverse](Packet p) {
        if (!drop_reverse(p)) {
          rev->HandlePacket(std::move(p));
        }
      });
      client->set_egress(rev_mangler.get());
    } else {
      client->set_egress(rev.get());
    }
  }

  void RunFor(double seconds) {
    sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(seconds));
  }
};

TEST(RequestResponseTest, FctIncludesTheRequestLeg) {
  ReqNet net(TimeDelta::Millis(60));
  FctRecorder fct;
  IssueSingleRequest(&net.sim, &net.flows, net.server.get(), net.client.get(), 5'000,
                     HostCcType::kCubic, &fct);
  net.RunFor(5);
  ASSERT_EQ(fct.completed(), 1u);
  // One full RTT minimum: 30 ms for the request, 30 ms + serialization for
  // the response.
  EXPECT_GE(fct.Fcts().Median() * 1000, 60.0);
  EXPECT_LE(fct.Fcts().Median() * 1000, 120.0);
}

TEST(RequestResponseTest, LostRequestIsRetried) {
  int dropped = 0;
  ReqNet net(TimeDelta::Millis(40), [&](const Packet& p) {
    // Drop the first two request transmissions (small data packets heading to
    // the server).
    if (p.type == PacketType::kData && p.size_bytes == kRequestBytes && dropped < 2) {
      ++dropped;
      return true;
    }
    return false;
  });
  FctRecorder fct;
  IssueSingleRequest(&net.sim, &net.flows, net.server.get(), net.client.get(), 3'000,
                     HostCcType::kCubic, &fct);
  net.RunFor(10);
  EXPECT_EQ(dropped, 2);
  ASSERT_EQ(fct.completed(), 1u);
  // Two retries at 200 + 400 ms backoff precede the successful exchange.
  EXPECT_GE(fct.Fcts().Median() * 1000, 600.0);
}

TEST(RequestResponseTest, GivesUpAfterMaxAttempts) {
  int dropped = 0;
  ReqNet net(TimeDelta::Millis(40), [&](const Packet& p) {
    if (p.type == PacketType::kData && p.size_bytes == kRequestBytes) {
      ++dropped;
      return true;  // black-hole every request
    }
    return false;
  });
  FctRecorder fct;
  IssueSingleRequest(&net.sim, &net.flows, net.server.get(), net.client.get(), 3'000,
                     HostCcType::kCubic, &fct);
  net.RunFor(120);
  EXPECT_EQ(fct.completed(), 0u);
  EXPECT_LE(dropped, 15) << "retries must stop after the attempt cap";
  EXPECT_GE(dropped, 10);
  // Giving up frees the glue: no flow object or server registration is left.
  EXPECT_EQ(net.flows.size(), 0u);
  EXPECT_EQ(net.server->registered_flows(), 0u);
}

TEST(RequestResponseTest, DuplicateRequestStartsOneResponse) {
  // Deliver the request twice (e.g. a spurious retry racing the original);
  // the server must start exactly one response flow.
  ReqNet net(TimeDelta::Millis(200));  // slow path so the retry fires
  FctRecorder fct;
  IssueSingleRequest(&net.sim, &net.flows, net.server.get(), net.client.get(), 20'000,
                     HostCcType::kCubic, &fct);
  net.RunFor(10);
  EXPECT_EQ(fct.completed(), 1u);
  EXPECT_EQ(fct.total(), 1u);
}

TEST(RequestResponseTest, ManyConcurrentRequestsAllComplete) {
  ReqNet net;
  FctRecorder fct;
  for (int i = 0; i < 50; ++i) {
    IssueSingleRequest(&net.sim, &net.flows, net.server.get(), net.client.get(),
                       2'000 + i * 997, HostCcType::kCubic, &fct);
  }
  net.RunFor(30);
  EXPECT_EQ(fct.completed(), 50u);
}

}  // namespace
}  // namespace bundler
