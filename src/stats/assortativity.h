// Assortativity coefficients: degree assortativity (Newman's r) and
// attribute assortativity. Homophily ("birds of a feather", the phenomenon
// ΘF models) is exactly positive attribute assortativity, so these are the
// natural held-out statistics for judging whether AGM-DP preserved the
// correlations it never directly optimized.
//
// The fused evaluation kernel (graph/fused_eval.h) accumulates every
// partial in one edge sweep: the degree sums as per-source-node partials
// over ascending forward neighbors, reduced in node order, and the mixing
// and homophily tallies as integers. These finalizers turn those partials
// into the statistics.
#pragma once

#include <cstdint>
#include <vector>

namespace agmdp::stats {

/// Pearson correlation of endpoint degrees over the 2m ordered endpoint
/// pairs, in [-1, 1], from the three accumulated degree sums; 0 for
/// edgeless or constant-degree graphs.
double DegreeAssortativityFromSums(double sum_xy, double sum_x,
                                   double sum_x2, uint64_t num_edges);

/// Discrete assortativity for the node attribute configuration from the
/// k x k row-major integer tallies over ordered edge endpoints, after
/// Newman (2003): (tr(e) - sum_a a_a b_a) / (1 - sum_a a_a b_a), where e is
/// the normalized mixing matrix and a_a, b_a are its row and column sums
/// (equal here: e is symmetric). 1 = perfect homophily, 0 = mixing at
/// random, negative = heterophily. Returns 0 for edgeless graphs or
/// single-category mixes.
double AttributeAssortativityFromMixingCounts(
    const std::vector<uint64_t>& counts, uint32_t k, uint64_t num_edges);

/// Per-attribute homophily: for each attribute bit, the fraction of edges
/// whose endpoints agree on it, from per-bit agreement tallies; every
/// entry is 0 for edgeless graphs.
std::vector<double> PerAttributeHomophilyFromCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges);

}  // namespace agmdp::stats
