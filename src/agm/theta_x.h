// Node attribute distribution ΘX (Section 3.2 / Algorithm 5).
#pragma once

#include <vector>

#include "src/graph/csr.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::agm {

/// Exact counts per attribute configuration (the queries Q_X), length 2^w.
std::vector<double> ComputeAttributeCounts(
    const graph::AttributedCsrGraph& g);

/// Exact ΘX: fraction of nodes per configuration.
std::vector<double> ComputeThetaX(const graph::AttributedCsrGraph& g);

/// Algorithm 5 (LearnAttributesDP): counts + Laplace(2 / epsilon), clamp to
/// [0, n], normalize. Global sensitivity 2 (changing one node's attributes
/// moves one count down and one up; edges are irrelevant). Satisfies
/// epsilon-DP (Theorem 8).
std::vector<double> LearnAttributesDp(const graph::AttributedCsrGraph& g,
                                      double epsilon, util::Rng& rng);

/// Samples n attribute configurations i.i.d. from theta_x (the X̃ step of
/// Algorithm 3, line 6).
util::Result<std::vector<graph::AttrConfig>> SampleAttributes(
    const std::vector<double>& theta_x, graph::NodeId n, util::Rng& rng);

}  // namespace agmdp::agm
