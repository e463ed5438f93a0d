#ifndef GDP_UTIL_DENSE_BITSET_H_
#define GDP_UTIL_DENSE_BITSET_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace gdp::util {

/// Fixed-size bitset for engine frontiers (the active and next-active
/// vertex sets, and each lane's wake set on dense supersteps). Unlike
/// std::vector<bool> it exposes the word array, so iteration over set bits
/// skips empty regions 64 vertices at a time and a popcount costs one
/// instruction per word — the standard representation in graph engines
/// (PowerGraph's dense_bitset). Concurrent writers from a parallel scatter
/// use SetAtomic, which is safe on overlapping words and reports which call
/// turned each bit on; everything else is single-writer.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(uint64_t size) { Resize(size); }

  /// Resizes to `size` bits, all zero (previous contents discarded).
  void Resize(uint64_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  uint64_t size() const { return size_; }
  uint64_t num_words() const { return words_.size(); }

  bool Test(uint64_t i) const {
    GDP_DCHECK_LT(i, size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Single-writer set/reset (no other thread may touch bit i's word).
  void Set(uint64_t i) {
    GDP_DCHECK_LT(i, size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }
  void Reset(uint64_t i) {
    GDP_DCHECK_LT(i, size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Concurrent-safe set: returns true iff this call turned bit i on, so
  /// concurrent setters can count the bits they added without a sweep. Of
  /// any number of calls racing on one bit exactly one returns true, and
  /// the final bitset is independent of thread interleaving. A relaxed load
  /// skips the locked RMW when the bit is already on; the single-bit
  /// fetch_or compiles to `lock bts`, with no compare-exchange loop.
  bool SetAtomic(uint64_t i) {
    GDP_DCHECK_LT(i, size_);
    std::atomic_ref<uint64_t> word(words_[i >> 6]);
    const uint64_t bit = 1ULL << (i & 63);
    if ((word.load(std::memory_order_relaxed) & bit) != 0) return false;
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  }

  /// Single-writer word-parallel union: this |= other. Sizes must match.
  /// 64 bits per iteration with no data dependence between words, so the
  /// loop auto-vectorizes — the dense-frontier merge primitive.
  void OrWith(const DenseBitset& other) {
    GDP_DCHECK_EQ(size_, other.size_);
    const uint64_t* __restrict src = other.words_.data();
    uint64_t* __restrict dst = words_.data();
    const uint64_t nw = words_.size();
    for (uint64_t w = 0; w < nw; ++w) dst[w] |= src[w];
  }

  void ClearAll() {
    if (!words_.empty()) {
      std::memset(words_.data(), 0, words_.size() * sizeof(uint64_t));
    }
  }

  uint64_t CountSet() const {
    uint64_t count = 0;
    for (uint64_t w : words_) count += std::popcount(w);
    return count;
  }

  /// Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    ForEachSetInWordRange(0, words_.size(), fn);
  }

  /// Calls fn(index) for every set bit whose word lies in
  /// [word_begin, word_end), ascending. Lets callers shard iteration into
  /// word-aligned blocks whose bit sets never overlap.
  template <typename Fn>
  void ForEachSetInWordRange(uint64_t word_begin, uint64_t word_end,
                             Fn&& fn) const {
    GDP_DCHECK_LE(word_end, words_.size());
    for (uint64_t w = word_begin; w < word_end; ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        uint64_t i = (w << 6) + static_cast<uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(i);
      }
    }
  }

  /// Appends every set index to `out`, ascending (the sparse-frontier list).
  template <typename Int>
  void AppendSetBits(std::vector<Int>* out) const {
    ForEachSet([out](uint64_t i) { out->push_back(static_cast<Int>(i)); });
  }

 private:
  uint64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace gdp::util

#endif  // GDP_UTIL_DENSE_BITSET_H_
