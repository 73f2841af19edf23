// Hash combination utilities used by model-checker state hashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace anoncoord {

/// Mix a 64-bit value (splitmix64 finalizer); good avalanche for state hashing.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a plain 64-bit register value. Declared here rather than beside
/// the record payloads so that templates hashing a machine's value_type
/// (state_pool, global_state) find it by ordinary lookup whatever the
/// include order: a fundamental type has no associated namespace for ADL.
inline std::size_t hash_value(std::uint64_t v) {
  return static_cast<std::size_t>(mix64(v));
}

/// Fold `v`'s hash into the running seed.
template <class T>
void hash_combine(std::size_t& seed, const T& v) {
  seed = static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(seed) +
            static_cast<std::uint64_t>(std::hash<T>{}(v))));
}

/// Hash every element of a range into the seed (order-sensitive).
template <class It>
void hash_range(std::size_t& seed, It first, It last) {
  for (; first != last; ++first) hash_combine(seed, *first);
}

template <class T>
std::size_t hash_vector(const std::vector<T>& v) {
  std::size_t seed = v.size();
  hash_range(seed, v.begin(), v.end());
  return seed;
}

/// Hash a short run of 32-bit words (packed interned-state rows). Two words
/// are folded per mix so an (m + n)-word state costs ~(m + n) / 2 mixes —
/// the seen-table hash of the packed explorers.
inline std::size_t hash_words(const std::uint32_t* w, std::size_t count) noexcept {
  std::uint64_t seed = 0x5157a7e5u ^ (count << 32);
  std::size_t i = 0;
  for (; i + 1 < count; i += 2)
    seed = mix64(seed ^ (std::uint64_t{w[i]} | (std::uint64_t{w[i + 1]} << 32)));
  if (i < count) seed = mix64(seed ^ w[i]);
  return static_cast<std::size_t>(seed);
}

}  // namespace anoncoord
