#include "src/graph/degree.h"

#include <algorithm>

namespace agmdp::graph {

std::vector<uint32_t> DegreeSequence(const Graph& g) {
  std::vector<uint32_t> degrees(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) degrees[v] = g.Degree(v);
  return degrees;
}

std::vector<uint32_t> DegreeSequence(const CsrGraph& g) {
  return g.degrees();
}

std::vector<uint32_t> SortedDegreeSequence(const CsrGraph& g) {
  std::vector<uint32_t> degrees = g.degrees();
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

std::vector<uint64_t> DegreeHistogram(const CsrGraph& g) {
  std::vector<uint64_t> hist(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++hist[g.Degree(v)];
  return hist;
}

double AverageDegree(const CsrGraph& g) {
  if (g.num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_nodes());
}

}  // namespace agmdp::graph
