#include "src/qdisc/fifo.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

DropTailFifo::DropTailFifo(int64_t limit_bytes) : limit_bytes_(limit_bytes) {
  BUNDLER_CHECK(limit_bytes_ > 0);
}

bool DropTailFifo::DoEnqueue(Packet pkt, TimePoint now) {
  if (bytes_ + pkt.size_bytes > limit_bytes_) {
    CountDrop(pkt, now);
    return false;
  }
  bytes_ += pkt.size_bytes;
  queue_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> DropTailFifo::DoDequeue(TimePoint now) {
  (void)now;
  if (queue_.empty()) {
    return std::nullopt;
  }
  Packet pkt = queue_.pop_front();
  bytes_ -= pkt.size_bytes;
  return pkt;
}

const Packet* DropTailFifo::Peek() const {
  if (queue_.empty()) {
    return nullptr;
  }
  return &queue_.front();
}

}  // namespace bundler
