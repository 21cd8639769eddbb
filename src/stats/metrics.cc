#include "src/stats/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/graph/degree.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace agmdp::stats {

double RelativeError(double estimate, double truth, double floor) {
  return std::fabs(estimate - truth) / std::max(std::fabs(truth), floor);
}

double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b) {
  AGMDP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

double MeanRelativeError(const std::vector<double>& a,
                         const std::vector<double>& b, double floor) {
  AGMDP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += RelativeError(a[i], b[i], floor);
  return sum / static_cast<double>(a.size());
}

double HellingerDistance(std::vector<double> p, std::vector<double> q) {
  const size_t len = std::max(p.size(), q.size());
  p.resize(len, 0.0);
  q.resize(len, 0.0);
  // The per-element terms are element-exact on every dispatch arm
  // (util/simd.h), and the reduction below keeps the sequential
  // index-order chain — so the distance is bitwise-identical whichever
  // arm ran.
  std::vector<double> terms(len);
  util::SquaredSqrtDiff(p.data(), q.data(), len, terms.data());
  double sum = 0.0;
  for (size_t i = 0; i < len; ++i) sum += terms[i];
  return std::sqrt(sum) / std::sqrt(2.0);
}

double KsStatistic(std::vector<uint32_t> s1, std::vector<uint32_t> s2) {
  if (s1.empty() || s2.empty()) return s1.empty() == s2.empty() ? 0.0 : 1.0;
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());
  const double n1 = static_cast<double>(s1.size());
  const double n2 = static_cast<double>(s2.size());
  size_t i = 0, j = 0;
  double ks = 0.0;
  while (i < s1.size() && j < s2.size()) {
    const uint32_t d = std::min(s1[i], s2[j]);
    while (i < s1.size() && s1[i] == d) ++i;
    while (j < s2.size() && s2[j] == d) ++j;
    ks = std::max(ks, std::fabs(static_cast<double>(i) / n1 -
                                static_cast<double>(j) / n2));
  }
  return ks;
}

double KsStatisticFromHistograms(const std::vector<uint64_t>& h1,
                                 const std::vector<uint64_t>& h2) {
  uint64_t n1 = 0, n2 = 0;
  for (uint64_t c : h1) n1 += c;
  for (uint64_t c : h2) n2 += c;
  if (n1 == 0 || n2 == 0) return (n1 == 0) == (n2 == 0) ? 0.0 : 1.0;
  // The merge walk of KsStatistic with each nonzero bin playing the run of
  // equal sample values it expands to: the cumulative counts after each
  // distinct value are the same integers, so the |F1 - F2| candidates —
  // and hence the sup — are bitwise-identical.
  const auto next_nonzero = [](const std::vector<uint64_t>& h, size_t from) {
    while (from < h.size() && h[from] == 0) ++from;
    return from;
  };
  size_t i = next_nonzero(h1, 0), j = next_nonzero(h2, 0);
  uint64_t ci = 0, cj = 0;
  double ks = 0.0;
  while (i < h1.size() && j < h2.size()) {
    const size_t d = std::min(i, j);
    if (i == d) {
      ci += h1[i];
      i = next_nonzero(h1, i + 1);
    }
    if (j == d) {
      cj += h2[j];
      j = next_nonzero(h2, j + 1);
    }
    ks = std::max(ks, std::fabs(static_cast<double>(ci) /
                                    static_cast<double>(n1) -
                                static_cast<double>(cj) /
                                    static_cast<double>(n2)));
  }
  return ks;
}

double KsDistance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty() ? 0.0 : 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return KsDistanceSorted(a, b);
}

double KsDistanceSorted(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty() ? 0.0 : 1.0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t i = 0, j = 0;
  double ks = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    ks = std::max(ks, std::fabs(static_cast<double>(i) / na -
                                static_cast<double>(j) / nb));
  }
  return ks;
}

double KlDivergence(std::vector<double> p, std::vector<double> q,
                    double floor) {
  const size_t len = std::max(p.size(), q.size());
  p.resize(len, 0.0);
  q.resize(len, 0.0);
  double kl = 0.0;
  for (size_t i = 0; i < len; ++i) {
    if (p[i] <= 0.0) continue;
    kl += p[i] * std::log(p[i] / std::max(q[i], floor));
  }
  return kl;
}

std::vector<double> DegreeDistributionFromHistogram(
    const std::vector<uint64_t>& hist, uint64_t num_nodes) {
  std::vector<double> dist(hist.size(), 0.0);
  const double n = static_cast<double>(num_nodes);
  if (n == 0.0) return dist;
  for (size_t d = 0; d < hist.size(); ++d) {
    dist[d] = static_cast<double>(hist[d]) / n;
  }
  return dist;
}

std::vector<double> DegreeDistribution(const graph::CsrGraph& g) {
  return DegreeDistributionFromHistogram(graph::DegreeHistogram(g),
                                         g.num_nodes());
}

}  // namespace agmdp::stats
