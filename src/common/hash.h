// Hash-combining helpers (header-only).

#ifndef OPD_COMMON_HASH_H_
#define OPD_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace opd {

/// Combines a hash value into a seed (boost::hash_combine recipe, 64-bit).
inline void HashCombine(uint64_t* seed, uint64_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 12) + (*seed >> 4);
}

/// Hash of a string, eight bytes per step: each 8-byte word is
/// multiplied in and rotated, a zero-padded tail word and the length are
/// folded in last, and a splitmix64 finalizer avalanches the result. No
/// value of it is persisted, so it may change between versions.
inline uint64_t HashString(std::string_view s) {
  constexpr uint64_t kMul1 = 0x87c37b91114253d5ULL;
  constexpr uint64_t kMul2 = 0x4cf5ad432745937fULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  const char* p = s.data();
  size_t n = s.size();
  auto step = [&h](uint64_t w) {
    w *= kMul1;
    w = (w << 31) | (w >> 33);
    h ^= w * kMul2;
    h = ((h << 27) | (h >> 37)) * 5 + 0x52dce729;
  };
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    step(w);
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    step(w);
  }
  h ^= static_cast<uint64_t>(s.size());
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace opd

#endif  // OPD_COMMON_HASH_H_
