// Branch-free binary search over small-to-medium sorted arrays.
#pragma once

#include <cstddef>
#include <span>

namespace lad {

/// Index of the first element of the ascending `sorted` that is not below
/// `key`, as std::lower_bound returns it. Each level picks its half with a
/// conditional move instead of a branch: lookups of unrelated keys (ID to
/// index maps) mispredict about half their branches, which costs more than
/// the comparisons themselves.
template <class T>
std::size_t lower_bound_index(std::span<const T> sorted, const T& key) {
  if (sorted.empty()) return 0;
  const T* base = sorted.data();
  for (std::size_t len = sorted.size(); len > 1;) {
    const std::size_t half = len / 2;
    base = base[half] < key ? base + half : base;
    len -= half;
  }
  return static_cast<std::size_t>(base - sorted.data()) + (*base < key ? 1 : 0);
}

}  // namespace lad
