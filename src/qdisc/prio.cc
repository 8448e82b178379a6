#include "src/qdisc/prio.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

StrictPrio::StrictPrio(size_t num_bands, int64_t limit_bytes_per_band, Classifier classifier)
    : bands_(num_bands),
      limit_bytes_per_band_(limit_bytes_per_band),
      classifier_(std::move(classifier)) {
  BUNDLER_CHECK(num_bands >= 1);
  BUNDLER_CHECK(limit_bytes_per_band_ > 0);
}

bool StrictPrio::DoEnqueue(Packet pkt, TimePoint now) {
  (void)now;
  size_t band = classifier_ ? classifier_(pkt) : pkt.priority;
  if (band >= bands_.size()) {
    band = bands_.size() - 1;
  }
  Band& b = bands_[band];
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
