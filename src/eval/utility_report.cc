#include "src/eval/utility_report.h"

#include <algorithm>
#include <cmath>

#include "src/agm/theta_f.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/paths.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
#include "src/stats/metrics.h"

namespace agmdp::eval {

std::vector<std::pair<std::string, double>> UtilityReport::Flatten() const {
  std::vector<std::pair<std::string, double>> flat = {
      {"theta_f_mae", errors.theta_f_mae},
      {"theta_f_hellinger", errors.theta_f_hellinger},
      {"degree_ks", errors.degree_ks},
      {"degree_hellinger", errors.degree_hellinger},
      {"degree_kl", degree_kl},
      {"degree_ccdf_distance", degree_ccdf_distance},
      {"clustering_ccdf_distance", clustering_ccdf_distance},
      {"triangles_re", errors.triangles_re},
      {"avg_clustering_re", errors.avg_clustering_re},
      {"global_clustering_re", errors.global_clustering_re},
      {"edges_re", errors.edges_re},
      {"degree_assortativity_delta", degree_assortativity_delta},
      {"attribute_assortativity_delta", attribute_assortativity_delta},
  };
  double abs_sum = 0.0;
  for (size_t a = 0; a < homophily_delta.size(); ++a) {
    flat.emplace_back("homophily_delta_a" + std::to_string(a),
                      homophily_delta[a]);
    abs_sum += std::fabs(homophily_delta[a]);
  }
  flat.emplace_back("homophily_delta_mean_abs",
                    homophily_delta.empty()
                        ? 0.0
                        : abs_sum / static_cast<double>(
                                        homophily_delta.size()));
  return flat;
}

ReferenceProfile ProfileReference(const graph::AttributedCsrGraph& original,
                                  int analytics_threads) {
  ReferenceProfile ref;
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  graph::FusedStats fused = graph::FusedEvaluate(original, opts);
  ref.theta_f = agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                                fused.num_edges);
  ref.degree_distribution = stats::DegreeDistributionFromHistogram(
      fused.degree_histogram, fused.num_nodes);
  ref.sorted_local_clustering = std::move(fused.clustering.local_coefficients);
  std::sort(ref.sorted_local_clustering.begin(),
            ref.sorted_local_clustering.end());
  ref.avg_clustering = fused.clustering.avg_local_clustering;
  ref.global_clustering = fused.clustering.global_clustering;
  ref.triangles = static_cast<double>(fused.clustering.triangles);
  ref.edges = static_cast<double>(fused.num_edges);
  ref.degree_assortativity = stats::DegreeAssortativityFromSums(
      fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
      fused.num_edges);
  ref.attribute_assortativity = stats::AttributeAssortativityFromMixingCounts(
      fused.mixing_counts, fused.num_configs, fused.num_edges);
  ref.homophily = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  ref.degree_histogram = std::move(fused.degree_histogram);
  return ref;
}

UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedGraph& released,
                              int analytics_threads) {
  return EvaluateRelease(original,
                         graph::AttributedCsrGraph::FromGraph(released),
                         analytics_threads);
}

UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedCsrGraph& released,
                              int analytics_threads) {
  UtilityReport report;
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  graph::FusedStats fused = graph::FusedEvaluate(released, opts);

  const ThetaFError theta = CompareThetaF(
      agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                      fused.num_edges),
      original.theta_f);
  report.errors.theta_f_mae = theta.mae;
  report.errors.theta_f_hellinger = theta.hellinger;

  report.errors.degree_ks = stats::KsStatisticFromHistograms(
      fused.degree_histogram, original.degree_histogram);
  const std::vector<double> dist1 = stats::DegreeDistributionFromHistogram(
      fused.degree_histogram, fused.num_nodes);
  report.errors.degree_hellinger =
      stats::HellingerDistance(dist1, original.degree_distribution);
  report.degree_kl = stats::KlDivergence(original.degree_distribution, dist1);
  // sup |F1-F2| over degrees == sup |CCDF1-CCDF2|: reuse the KS statistic.
  report.degree_ccdf_distance = report.errors.degree_ks;

  // The reference side is presorted in the profile; only the released
  // side's coefficients need one sort.
  std::vector<double>& cc1 = fused.clustering.local_coefficients;
  std::sort(cc1.begin(), cc1.end());
  report.clustering_ccdf_distance =
      stats::KsDistanceSorted(original.sorted_local_clustering, cc1);
  report.errors.avg_clustering_re = stats::RelativeError(
      fused.clustering.avg_local_clustering, original.avg_clustering);
  report.errors.global_clustering_re = stats::RelativeError(
      fused.clustering.global_clustering, original.global_clustering);

  report.errors.triangles_re = stats::RelativeError(
      static_cast<double>(fused.clustering.triangles), original.triangles);
  report.errors.edges_re = stats::RelativeError(
      static_cast<double>(fused.num_edges), original.edges);

  report.degree_assortativity_delta =
      stats::DegreeAssortativityFromSums(fused.assort_sum_xy,
                                         fused.assort_sum_x,
                                         fused.assort_sum_x2,
                                         fused.num_edges) -
      original.degree_assortativity;
  report.attribute_assortativity_delta =
      stats::AttributeAssortativityFromMixingCounts(
          fused.mixing_counts, fused.num_configs, fused.num_edges) -
      original.attribute_assortativity;

  const std::vector<double> h1 = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  const size_t w = std::min(original.homophily.size(), h1.size());
  report.homophily_delta.resize(w);
  for (size_t a = 0; a < w; ++a) {
    report.homophily_delta[a] = h1[a] - original.homophily[a];
  }
  return report;
}

ThetaFError CompareThetaF(std::vector<double> estimate,
                          std::vector<double> exact) {
  const size_t len = std::max(estimate.size(), exact.size());
  estimate.resize(len, 0.0);
  exact.resize(len, 0.0);
  ThetaFError e;
  e.mae = stats::MeanAbsoluteError(estimate, exact);
  e.hellinger = stats::HellingerDistance(estimate, exact);
  return e;
}

StructuralProfile ProfileGraph(const graph::AttributedGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads) {
  return ProfileGraph(graph::AttributedCsrGraph::FromGraph(g), path_samples,
                      rng, analytics_threads);
}

StructuralProfile ProfileGraph(const graph::AttributedCsrGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads) {
  StructuralProfile profile;
  if (path_samples > 0) {
    const graph::PathStats paths =
        graph::EstimatePathStats(g.structure, path_samples, rng);
    profile.avg_path_length = paths.avg_path_length;
    profile.effective_diameter = paths.effective_diameter;
    profile.diameter_lower_bound = paths.diameter_lower_bound;
  }
  // One fused edge sweep covers all three families; the triangle sweep is
  // skipped since no clustering statistic is reported here.
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  opts.triangles = false;
  const graph::FusedStats fused = graph::FusedEvaluate(g, opts);
  profile.degree_assortativity = stats::DegreeAssortativityFromSums(
      fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
      fused.num_edges);
  profile.attribute_assortativity =
      stats::AttributeAssortativityFromMixingCounts(
          fused.mixing_counts, fused.num_configs, fused.num_edges);
  profile.homophily = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  return profile;
}

std::vector<std::pair<double, double>> DegreeCcdfSeries(
    const graph::CsrGraph& g, size_t max_points) {
  // Histogram-based construction: same series, no value expansion or sort.
  return stats::DownsampleCcdf(
      stats::CcdfFromHistogram(graph::DegreeHistogram(g)), max_points);
}

}  // namespace agmdp::eval
