#include "src/stats/assortativity.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace agmdp::stats {

double DegreeAssortativityFromSums(double sum_xy, double sum_x,
                                   double sum_x2, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  // Pearson correlation over the 2m ordered endpoint pairs.
  const double count = 2.0 * static_cast<double>(num_edges);
  const double mean = sum_x / count;
  const double var = sum_x2 / count - mean * mean;
  if (var <= 0.0) return 0.0;
  const double cov = sum_xy / count - mean * mean;
  return cov / var;
}

double AttributeAssortativityFromMixingCounts(
    const std::vector<uint64_t>& counts, uint32_t k, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  // Normalized mixing matrix e over ordered endpoints; the integer tallies
  // make it exact.
  const double total = 2.0 * static_cast<double>(num_edges);
  std::vector<double> mixing(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    mixing[i] = static_cast<double>(counts[i]) / total;
  }
  double trace = 0.0, squared = 0.0;
  for (uint32_t a = 0; a < k; ++a) {
    trace += mixing[static_cast<size_t>(a) * k + a];
    // (e^2)_aa summed over a = sum over a,b of e_ab * e_ba; e is symmetric.
    for (uint32_t b = 0; b < k; ++b) {
      const double e_ab = mixing[static_cast<size_t>(a) * k + b];
      squared += e_ab * e_ab;
    }
  }
  if (1.0 - squared <= 1e-12) return 0.0;  // single category: undefined -> 0
  return (trace - squared) / (1.0 - squared);
}

std::vector<double> PerAttributeHomophilyFromCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges) {
  std::vector<double> same(counts.size(), 0.0);
  if (num_edges == 0) return same;
  const double m = static_cast<double>(num_edges);
  for (size_t a = 0; a < counts.size(); ++a) {
    same[a] = static_cast<double>(counts[a]) / m;
  }
  return same;
}

}  // namespace agmdp::stats
