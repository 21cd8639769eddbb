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
  double trace = 0.0, random = 0.0;
  for (uint32_t a = 0; a < k; ++a) {
    trace += mixing[static_cast<size_t>(a) * k + a];
    // a_a * b_a, the diagonal mass of random mixing; e is symmetric, so the
    // column sum b_a equals the row sum a_a.
    double row = 0.0;
    for (uint32_t b = 0; b < k; ++b) {
      row += mixing[static_cast<size_t>(a) * k + b];
    }
    random += row * row;
  }
  if (1.0 - random <= 1e-12) return 0.0;  // single category: undefined -> 0
  return (trace - random) / (1.0 - random);
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
