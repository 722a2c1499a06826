// Test-local disjoint-set union with path halving and union by size: the
// reference that components and the chain sweep's cycle detection are
// checked against (test_graph, chain_reference.hpp). The library itself
// labels components by BFS (sens/graph/components.hpp).
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace sens::testing_ref {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Unites the sets of a and b; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

  [[nodiscard]] bool connected(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }

  /// Size of the set containing x.
  [[nodiscard]] std::uint32_t set_size(std::uint32_t x) { return size_[find(x)]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace sens::testing_ref
