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
  PacketPool::Queue& band = bands_[std::min<size_t>(pkt.priority, kNumBands - 1)];
  if (band.bytes + pkt.size_bytes > limit_bytes_per_band_) {
    CountDrop(pkt, now);
    return false;
  }
  pool_.PushBack(band, std::move(pkt));
  return true;
}

std::optional<Packet> StrictPrio::DoDequeue(TimePoint now) {
  (void)now;
  for (PacketPool::Queue& band : bands_) {
    if (!band.empty()) {
      return pool_.PopFront(band);
    }
  }
  return std::nullopt;
}

const Packet* StrictPrio::Peek() const {
  for (const PacketPool::Queue& band : bands_) {
    if (!band.empty()) {
      return &pool_.Front(band);
    }
  }
  return nullptr;
}

}  // namespace bundler
