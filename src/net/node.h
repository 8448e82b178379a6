// The interface every packet-consuming component implements: links deliver to
// a PacketHandler, routers fan out to PacketHandlers, middleboxes are
// PacketHandlers that forward to the next hop.
#ifndef SRC_NET_NODE_H_
#define SRC_NET_NODE_H_

#include <utility>

#include "src/net/packet.h"
#include "src/sim/inline_function.h"

namespace bundler {

class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void HandlePacket(Packet pkt) = 0;
};

// Adapter turning a lambda into a handler; useful in tests and for small glue
// nodes. Backed by the move-only InlineFunction (fixed inline storage), so
// wiring one into a topology never heap-allocates and per-packet dispatch is
// one indirect call.
class LambdaHandler : public PacketHandler {
 public:
  explicit LambdaHandler(InlineFunction<void(Packet)> fn) : fn_(std::move(fn)) {}
  void HandlePacket(Packet pkt) override { fn_(std::move(pkt)); }

 private:
  InlineFunction<void(Packet)> fn_;
};

// Swallows packets (e.g. traffic addressed past the edge of a scenario).
class SinkHandler : public PacketHandler {
 public:
  void HandlePacket(Packet pkt) override {
    ++packets_;
    bytes_ += pkt.size_bytes;
  }
  uint64_t packets() const { return packets_; }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_NODE_H_
