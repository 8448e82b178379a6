// FNV-1a non-cryptographic hash (Fowler/Noll/Vo), as used by the Bundler
// prototype to identify epoch boundary packets (§6.1 of the paper). The
// 64-bit variant costs a handful of integer multiplies per packet.
#ifndef SRC_UTIL_FNV_H_
#define SRC_UTIL_FNV_H_

#include <cstddef>
#include <cstdint>

namespace bundler {

inline constexpr uint64_t kFnv64OffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnv64Prime = 1099511628211ULL;

constexpr uint64_t Fnv1a64(const uint8_t* data, size_t len,
                           uint64_t seed = kFnv64OffsetBasis) {
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= kFnv64Prime;
  }
  return hash;
}

// Hash an integral value byte-by-byte (little-endian representation), chained
// from `seed` so multiple fields can be folded together.
template <typename T>
constexpr uint64_t Fnv1a64Value(T value, uint64_t seed = kFnv64OffsetBasis) {
  uint64_t hash = seed;
  for (size_t i = 0; i < sizeof(T); ++i) {
    hash ^= static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i));
    hash *= kFnv64Prime;
  }
  return hash;
}

// Folds `count` 64-bit values with Fnv1a64Value, chained from `seed`.
uint64_t Fnv1a64Combine(const uint64_t* values, size_t count,
                        uint64_t seed = kFnv64OffsetBasis);

// SplitMix64 finalizer. FNV-1a's output has weak low-bit avalanche: fields
// that differ in correlated ways (e.g. two port counters advancing in
// lockstep) can cancel exactly modulo small powers of two, which collapses
// `hash % buckets` onto one bucket. Any consumer that reduces a hash into a
// small index must finalize first.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace bundler

#endif  // SRC_UTIL_FNV_H_
