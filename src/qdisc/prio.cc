#include "src/qdisc/prio.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace bundler {

StrictPrio::StrictPrio(int64_t limit_bytes_per_band)
    : limit_bytes_per_band_(limit_bytes_per_band) {
  BUNDLER_CHECK(limit_bytes_per_band_ > 0);
}

bool StrictPrio::DoEnqueue(Packet pkt, TimePoint now) {
  (void)now;
  Band& b = bands_[std::min<size_t>(pkt.priority, kNumBands - 1)];
  if (b.bytes + pkt.size_bytes > limit_bytes_per_band_) {
    CountDrop();
    return false;
  }
  b.bytes += pkt.size_bytes;
  bytes_ += pkt.size_bytes;
  pool_.PushBack(b.queue, std::move(pkt));
  ++packets_;
  return true;
}

std::optional<Packet> StrictPrio::DoDequeue(TimePoint now) {
  (void)now;
  for (Band& b : bands_) {
    if (!b.queue.empty()) {
      Packet pkt = pool_.PopFront(b.queue);
      b.bytes -= pkt.size_bytes;
      bytes_ -= pkt.size_bytes;
      --packets_;
      return pkt;
    }
  }
  return std::nullopt;
}

const Packet* StrictPrio::Peek() const {
  for (const Band& b : bands_) {
    if (!b.queue.empty()) {
      return &pool_.Front(b.queue);
    }
  }
  return nullptr;
}

}  // namespace bundler
