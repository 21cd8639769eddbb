#include "src/stats/summary.h"

#include <cstdio>

#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"

namespace agmdp::stats {

GraphSummary Summarize(const graph::CsrGraph& g, int threads) {
  GraphSummary s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();
  s.max_degree = g.MaxDegree();
  s.avg_degree = graph::AverageDegree(g);
  // The fused pass serves all three statistics from one run of the
  // SIMD-dispatched triangle sweep.
  graph::FusedOptions opts;
  opts.threads = threads;
  const graph::FusedStats fused = graph::FusedEvaluate(g, opts);
  s.triangles = fused.clustering.triangles;
  s.avg_local_clustering = fused.clustering.avg_local_clustering;
  s.global_clustering = fused.clustering.global_clustering;
  return s;
}

std::string FormatSummary(const std::string& name, const GraphSummary& s) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%-14s n=%-8llu m=%-9llu dmax=%-6u davg=%-6.2f "
                "tri=%-9llu C̄=%-6.4f C=%-6.4f",
                name.c_str(),
                static_cast<unsigned long long>(s.num_nodes),
                static_cast<unsigned long long>(s.num_edges), s.max_degree,
                s.avg_degree, static_cast<unsigned long long>(s.triangles),
                s.avg_local_clustering, s.global_clustering);
  return buffer;
}

UtilityErrors& UtilityErrors::operator+=(const UtilityErrors& o) {
  theta_f_mae += o.theta_f_mae;
  theta_f_hellinger += o.theta_f_hellinger;
  degree_ks += o.degree_ks;
  degree_hellinger += o.degree_hellinger;
  triangles_re += o.triangles_re;
  avg_clustering_re += o.avg_clustering_re;
  global_clustering_re += o.global_clustering_re;
  edges_re += o.edges_re;
  return *this;
}

UtilityErrors UtilityErrors::operator/(double k) const {
  UtilityErrors out = *this;
  out.theta_f_mae /= k;
  out.theta_f_hellinger /= k;
  out.degree_ks /= k;
  out.degree_hellinger /= k;
  out.triangles_re /= k;
  out.avg_clustering_re /= k;
  out.global_clustering_re /= k;
  out.edges_re /= k;
  return out;
}

}  // namespace agmdp::stats
