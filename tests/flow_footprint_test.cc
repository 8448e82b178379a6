// Per-flow memory budget. Completed flows free their objects, so the sizes of
// the per-flow transport objects times the flows in flight set the
// simulator's memory cost (the §7.1 dumbbell creates ~200k flows in 120
// simulated seconds), and a flow created ahead of its start holds only its
// sender handle and receiver. These are upper bounds: shrinking further is
// fine, growing past them needs a reason.
#include <gtest/gtest.h>

#include <utility>

#include "src/app/workload.h"
#include "src/transport/sack_scoreboard.h"
#include "src/transport/tcp_flow.h"

namespace bundler {
namespace {

TEST(FlowFootprintTest, TransportObjectsStayWithinBudget) {
  EXPECT_LE(sizeof(SackScoreboard), 264u);
  // FlowTable carves 64-byte granules behind a 16-byte header. The handle
  // takes one 144-byte carve, like the receiver, and the connection a
  // 656-byte one: a running sender must cost no more than the 848-byte carve
  // of a sender that is one object, or the dumbbell's arena would grow.
  EXPECT_LE(sizeof(TcpSender), 112u);
  EXPECT_LE(sizeof(TcpConnection), 640u);
  EXPECT_LE(sizeof(TcpReceiver), 112u);
  EXPECT_LE(sizeof(RequestResponse), 176u);
}

TEST(FlowFootprintTest, CompletionCallbackHoldsTwoPointers) {
  // FlowDoneFn: 16 bytes of capture plus invoke/manage pointers.
  EXPECT_EQ(FlowDoneFn::kCapacity, 16u);
  EXPECT_LE(sizeof(FlowDoneFn), 32u);
  int hits = 0;
  uint64_t id = 7;
  FlowDoneFn fn = [p = &hits, id](TimePoint) { *p += static_cast<int>(id); };
  FlowDoneFn moved = std::move(fn);
  moved(TimePoint::Zero());
  EXPECT_EQ(hits, 7);
}

}  // namespace
}  // namespace bundler
