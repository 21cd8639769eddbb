#include "src/graph/subgraph_counts.h"

#include <limits>

#include "src/util/check.h"

namespace agmdp::graph {

uint64_t BinomialOrSaturate(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    // result *= (n - k + i) / i, with overflow saturation.
    const uint64_t numerator = n - k + i;
    if (result > kMax / numerator) return kMax;
    result = result * numerator / i;
  }
  return result;
}

uint64_t CountKStars(const CsrGraph& g, uint32_t k) {
  AGMDP_CHECK(k >= 1);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint64_t stars = BinomialOrSaturate(g.Degree(v), k);
    if (total > kMax - stars) return kMax;
    total += stars;
  }
  return total;
}

}  // namespace agmdp::graph
