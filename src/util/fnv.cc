#include "src/util/fnv.h"

namespace bundler {

uint64_t Fnv1a64Combine(const uint64_t* values, size_t count, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < count; ++i) {
    hash = Fnv1a64Value(values[i], hash);
  }
  return hash;
}

}  // namespace bundler
