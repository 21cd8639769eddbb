// Utility evaluation of a released (synthetic) graph against the sensitive
// original — the metric suite behind the paper's Tables 2-5 and Figures
// 1-5, computed in one place so that every bench, the sweep engine and the
// CLI report identical numbers.
//
// The metric families:
//   * degree distribution   — KS / Hellinger (Tables 2-5), plus KL
//                             divergence and the sup-distance between the
//                             degree CCDF curves (Figure 2);
//   * clustering            — relative errors of C̄ / C (Tables 2-5) and
//                             the sup-distance between the local-clustering
//                             CCDF curves (Figure 3);
//   * triangle count        — relative error of n∆;
//   * attribute correlation — ΘF MAE / Hellinger (Figures 1/5);
//   * assortativity &       — deltas of Newman's degree / attribute
//     homophily               assortativity and of the per-attribute
//                             same-value edge fractions (released − original).
//
// Everything is a pure function of the two graphs; all heavy lifting is
// delegated to src/stats and src/graph primitives.
//
// There is one evaluator: it runs on immutable CsrGraph snapshots through
// the fused evaluation kernel (graph/fused_eval.h). Every per-node partial
// is collected in two sweeps over the neighbor arrays (SIMD-dispatched,
// sharded over `analytics_threads` workers; <= 0 selects hardware
// concurrency), and the metric families derive from those partials through
// fixed formula tails (graph/clustering.h, stats/assortativity.h), so
// results are bitwise-identical at any thread count and on either dispatch
// arm. The
// AttributedGraph entry points snapshot their input and delegate.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"

namespace agmdp::eval {

/// \brief The full metric suite for one released graph vs the original.
struct UtilityReport {
  /// The Tables 2-5 error columns (ΘF MAE/Hellinger, degree KS/Hellinger,
  /// triangle/clustering/edge relative errors), reused verbatim.
  stats::UtilityErrors errors;

  /// KL(degree distribution of original || released), floored (metrics.h).
  double degree_kl = 0.0;
  /// Sup-distance between the two degree CCDF curves. Numerically equal to
  /// `errors.degree_ks` (sup |F1-F2| = sup |CCDF1-CCDF2|); kept as its own
  /// schema field so sweep artifacts name the Figure-2 statistic directly.
  double degree_ccdf_distance = 0.0;
  /// Sup-distance between the two local-clustering-coefficient CCDFs.
  double clustering_ccdf_distance = 0.0;
  /// Newman degree assortativity, released − original.
  double degree_assortativity_delta = 0.0;
  /// Newman attribute assortativity, released − original.
  double attribute_assortativity_delta = 0.0;
  /// Per attribute bit: same-value edge fraction, released − original.
  std::vector<double> homophily_delta;

  /// Stable flat view for aggregation and serialization: (metric name,
  /// value) in a fixed documented order (see DESIGN.md; per-attribute
  /// homophily deltas appear as "homophily_delta_a<j>" followed by their
  /// mean absolute value as "homophily_delta_mean_abs").
  std::vector<std::pair<std::string, double>> Flatten() const;
};

/// \brief Precomputed original-side statistics.
///
/// Profiling the sensitive input is the expensive half of every
/// evaluation (triangle counting, clustering coefficients, ΘF); the sweep
/// engine evaluates models × epsilons × repeats releases against the same
/// original, so it profiles each input once and reuses the profile for
/// every cell.
struct ReferenceProfile {
  std::vector<double> theta_f;
  std::vector<double> degree_distribution;
  double avg_clustering = 0.0;
  double global_clustering = 0.0;
  double triangles = 0.0;
  double edges = 0.0;
  double degree_assortativity = 0.0;
  double attribute_assortativity = 0.0;
  /// Per attribute bit: same-value edge fraction.
  std::vector<double> homophily;

  /// hist[d] = number of original nodes of degree d (MaxDegree + 1 bins);
  /// the degree KS statistic runs directly on histograms.
  std::vector<uint64_t> degree_histogram;
  /// The local clustering coefficients sorted ascending, ready for
  /// KsDistanceSorted (sorted once here, not once per evaluated release).
  std::vector<double> sorted_local_clustering;
};

/// Profiles the original's snapshot once for repeated evaluation.
ReferenceProfile ProfileReference(const graph::AttributedCsrGraph& original,
                                  int analytics_threads = 1);

/// Computes the full metric suite against a precomputed original profile.
/// The AttributedGraph entry point builds one snapshot of the released
/// graph and reuses it across all metrics. The released graph may have a
/// different attribute dimension than the original (homophily deltas are
/// then over the common prefix of bits).
UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedGraph& released,
                              int analytics_threads = 1);
UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedCsrGraph& released,
                              int analytics_threads = 1);


/// \brief Error of one ΘF estimate against the exact correlation vector
/// (the y-axes of Figures 1 and 5).
struct ThetaFError {
  double mae = 0.0;
  double hellinger = 0.0;
};

/// Compares a (learned or baseline) ΘF vector against the exact one.
/// Mismatched lengths (graphs of different attribute dimension) are
/// zero-padded to a common length.
ThetaFError CompareThetaF(std::vector<double> estimate,
                          std::vector<double> exact);

/// \brief Absolute held-out statistics of one graph (bench_extended_stats):
/// the statistics AGM-DP never directly optimizes.
struct StructuralProfile {
  double avg_path_length = 0.0;
  double effective_diameter = 0.0;
  /// Max BFS distance observed from the sampled sources (lower bound on
  /// the diameter; exact when every node is sampled).
  uint32_t diameter_lower_bound = 0;
  double degree_assortativity = 0.0;
  double attribute_assortativity = 0.0;
  /// Per attribute bit: fraction of edges whose endpoints agree on it.
  std::vector<double> homophily;
};

/// Profiles `g`. Path statistics are estimated from `path_samples` BFS
/// sources (0 skips them, leaving the path fields at 0 and `rng` untouched).
/// The AttributedGraph entry point snapshots `g` and delegates.
StructuralProfile ProfileGraph(const graph::AttributedGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads = 1);
StructuralProfile ProfileGraph(const graph::AttributedCsrGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads = 1);

/// Degree CCDF of a graph, downsampled to at most `max_points` (Figure 2).
std::vector<std::pair<double, double>> DegreeCcdfSeries(
    const graph::CsrGraph& g, size_t max_points);

}  // namespace agmdp::eval
