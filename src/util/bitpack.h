#ifndef GDP_UTIL_BITPACK_H_
#define GDP_UTIL_BITPACK_H_

#include <cstdint>

namespace gdp::util {

// Word-aligned bit packing behind the compressed edge-block store
// (graph/edge_block_store.h). Values are packed back to back at a fixed
// width; unaligned straddles are handled with two word loads/stores and a
// shift-merge — no per-bit loop, no byte addressing.

/// Reads `width` bits (1..57) starting at absolute bit `bit_pos` of a
/// packed word array. The array must carry one padding word past the last
/// encoded bit so words[w + 1] is always dereferenceable.
inline uint64_t ReadPackedBits(const uint64_t* words, uint64_t bit_pos,
                               uint32_t width) {
  const uint64_t w = bit_pos >> 6;
  const uint32_t off = static_cast<uint32_t>(bit_pos & 63);
  uint64_t bits = words[w] >> off;
  if (off + width > 64) bits |= words[w + 1] << (64 - off);
  return bits & ((1ULL << width) - 1);
}

/// Writes the low `width` bits of `bits` at absolute bit `bit_pos` of a
/// zero-initialized word array (the encode mirror of ReadPackedBits).
inline void WritePackedBits(uint64_t* words, uint64_t bit_pos, uint32_t width,
                            uint64_t bits) {
  const uint64_t w = bit_pos >> 6;
  const uint32_t off = static_cast<uint32_t>(bit_pos & 63);
  words[w] |= bits << off;
  if (off + width > 64) words[w + 1] |= bits >> (64 - off);
}

/// Zigzag-maps a signed delta onto a non-negative integer so small
/// magnitudes of either sign pack into few bits.
inline uint64_t ZigZag(int64_t delta) {
  return (static_cast<uint64_t>(delta) << 1) ^
         static_cast<uint64_t>(delta >> 63);
}

/// Inverse of ZigZag.
inline int64_t UnZigZag(uint64_t zig) {
  return static_cast<int64_t>(zig >> 1) ^ -static_cast<int64_t>(zig & 1);
}

}  // namespace gdp::util

#endif  // GDP_UTIL_BITPACK_H_
