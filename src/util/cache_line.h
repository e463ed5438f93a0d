#ifndef GDP_UTIL_CACHE_LINE_H_
#define GDP_UTIL_CACHE_LINE_H_

// Memory layout for per-lane scratch. Parallel sections give every lane
// (pool lane, ingress loader, plan stripe, finalize shard) counters of its
// own, so no two lanes ever write the same word. They can still write the
// same cache line: small per-lane blocks allocated back to back, or
// adjacent elements of one dense array, and then every write invalidates
// the neighbour's copy of the line (false sharing). The types here put
// each lane's mutable counters on lines no other lane writes. They change
// where counters live, never their integer type or merge order, so
// simulated results stay bit-identical.

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace gdp::util {

/// Cache-line size assumed for layout (x86-64 and the common AArch64
/// cores). Pinned here rather than read from
/// std::hardware_destructive_interference_size, which GCC warns may change
/// with tuning flags.
inline constexpr std::size_t kCacheLineBytes = 64;

/// One lane's scalar or struct on lines of its own: consecutive elements of
/// a std::vector<CacheLinePadded<T>> start kCacheLineBytes (or a multiple)
/// apart, on line boundaries.
template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value{};
};

/// Allocator whose blocks start on a line boundary and span whole lines, so
/// a small per-lane array shares no line with any other heap block.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kCacheLineBytes) /
                sizeof(T)) {
      throw std::bad_array_new_length();
    }
    // Raw storage for the container, which owns and releases it.
    return static_cast<T*>(::operator new(  // NOLINT(no-naked-new)
        BlockBytes(n), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, BlockBytes(n), std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }

 private:
  /// `n` elements rounded up to whole lines.
  static std::size_t BlockBytes(std::size_t n) {
    return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }
};

/// A per-lane array on whole cache lines of its own.
template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace gdp::util

#endif  // GDP_UTIL_CACHE_LINE_H_
