#include "src/qdisc/qdisc.h"

#include "src/util/fnv.h"

namespace bundler {

size_t HashedBucket(const FlowKey& key, size_t n) {
  // A zero seed word leads the hash input: the hash is never perturbed, and
  // every flow's bucket depends on the word.
  return Mix64(FlowKeyHash(key, Fnv1a64Value(uint64_t{0}))) % n;
}

}  // namespace bundler
