#include "src/cc/cc.h"

#include <algorithm>
#include <cstddef>
#include <new>

#include "src/cc/basic_delay.h"
#include "src/cc/bbr.h"
#include "src/cc/const_cwnd.h"
#include "src/cc/copa.h"
#include "src/cc/cubic.h"
#include "src/cc/new_reno.h"
#include "src/util/check.h"

namespace bundler {

const char* HostCcTypeName(HostCcType type) {
  switch (type) {
    case HostCcType::kCubic:
      return "cubic";
    case HostCcType::kNewReno:
      return "newreno";
    case HostCcType::kBbr:
      return "bbr";
    case HostCcType::kConstCwnd:
      return "const_cwnd";
  }
  return "?";
}

const char* BundleCcTypeName(BundleCcType type) {
  switch (type) {
    case BundleCcType::kCopa:
      return "copa";
    case BundleCcType::kBasicDelay:
      return "basic_delay";
    case BundleCcType::kBbr:
      return "bbr";
  }
  return "?";
}

static_assert(sizeof(Cubic) <= kHostCcStorageBytes);
static_assert(sizeof(NewReno) <= kHostCcStorageBytes);
static_assert(sizeof(BbrHost) <= kHostCcStorageBytes);
static_assert(sizeof(ConstCwnd) <= kHostCcStorageBytes);
static_assert(alignof(Cubic) <= alignof(std::max_align_t));
static_assert(alignof(NewReno) <= alignof(std::max_align_t));
static_assert(alignof(BbrHost) <= alignof(std::max_align_t));
static_assert(alignof(ConstCwnd) <= alignof(std::max_align_t));
// Every flow embeds this slot, so unused headroom costs memory per flow:
// keep it within one alignment step of the largest controller.
static_assert(kHostCcStorageBytes < std::max({sizeof(Cubic), sizeof(NewReno), sizeof(BbrHost),
                                              sizeof(ConstCwnd)}) +
                                        alignof(std::max_align_t));

HostCc* MakeHostCcInPlace(HostCcStorage* storage, HostCcType type) {
  void* mem = storage->bytes;
  switch (type) {
    case HostCcType::kCubic:
      return ::new (mem) Cubic();
    case HostCcType::kNewReno:
      return ::new (mem) NewReno();
    case HostCcType::kBbr:
      return ::new (mem) BbrHost();
    case HostCcType::kConstCwnd:
      return ::new (mem) ConstCwnd();
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

std::unique_ptr<BundleCc> MakeBundleCc(BundleCcType type, Rate initial_rate) {
  switch (type) {
    case BundleCcType::kCopa:
      return std::make_unique<Copa>(initial_rate);
    case BundleCcType::kBasicDelay:
      return std::make_unique<BasicDelay>(initial_rate);
    case BundleCcType::kBbr:
      return std::make_unique<BbrBundle>(initial_rate);
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

}  // namespace bundler
