#include "src/stats/joint_degree.h"

#include <cmath>

#include "src/util/parallel.h"

namespace agmdp::stats {

using JointDegreeMap = std::map<std::pair<uint32_t, uint32_t>, double>;

JointDegreeMap JointDegreeDistribution(const graph::CsrGraph& g,
                                       int threads) {
  JointDegreeMap dist;
  if (g.num_edges() == 0) return dist;
  const graph::NodeId n = g.num_nodes();
  using CountMap = std::map<std::pair<uint32_t, uint32_t>, uint64_t>;
  CountMap counts;
  util::ParallelTally(
      n, threads, [] { return CountMap(); },
      [&](CountMap& local, uint64_t begin, uint64_t end) {
        for (uint64_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<graph::NodeId>(ui);
          for (graph::NodeId v : g.Neighbors(u)) {
            if (v <= u) continue;
            uint32_t du = g.Degree(u), dv = g.Degree(v);
            if (du > dv) std::swap(du, dv);
            ++local[{du, dv}];
          }
        }
      },
      [&](const CountMap& local) {
        for (const auto& [key, count] : local) counts[key] += count;
      });
  const double m = static_cast<double>(g.num_edges());
  for (const auto& [key, count] : counts) {
    dist[key] = static_cast<double>(count) / m;
  }
  return dist;
}

double JointDegreeDistance(const graph::CsrGraph& a, const graph::CsrGraph& b,
                           int threads) {
  const JointDegreeMap pa = JointDegreeDistribution(a, threads);
  const JointDegreeMap pb = JointDegreeDistribution(b, threads);
  double sum = 0.0;
  auto ia = pa.begin();
  auto ib = pb.begin();
  // Merge-walk the two sorted supports.
  while (ia != pa.end() || ib != pb.end()) {
    double x = 0.0, y = 0.0;
    if (ib == pb.end() || (ia != pa.end() && ia->first < ib->first)) {
      x = (ia++)->second;
    } else if (ia == pa.end() || ib->first < ia->first) {
      y = (ib++)->second;
    } else {
      x = (ia++)->second;
      y = (ib++)->second;
    }
    const double d = std::sqrt(x) - std::sqrt(y);
    sum += d * d;
  }
  return std::sqrt(sum) / std::sqrt(2.0);
}

}  // namespace agmdp::stats
