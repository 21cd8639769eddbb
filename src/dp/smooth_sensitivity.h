// Smooth sensitivity calculus for the Q_F connection-count queries
// (Appendix B.1 of the paper), plus the (eps, delta) noise calibration.
//
// Local sensitivity of Q_F is 2 * dmax (Lemma 3); at edit distance t it is
// min(2 dmax + 2t, 2n - 2) (Proposition 4), and the beta-smooth bound is the
// max over t of e^{-t beta} LS_t (Corollary 5). Adding
// Laplace(2 S / epsilon) noise satisfies (epsilon, delta)-DP with
// beta = epsilon / (2 ln(1 / delta)).
#pragma once

#include <cstdint>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace agmdp::dp {

/// beta = epsilon / (2 ln(1/delta)); requires 0 < delta < 1, epsilon > 0.
double SmoothSensitivityBeta(double epsilon, double delta);

/// Beta-smooth sensitivity of Q_F at a graph with maximum degree dmax and n
/// nodes: max_{t >= 0} e^{-t beta} min(2 dmax + 2t, 2n - 2) (Corollary 5,
/// including the 2n - 2 cap).
double SmoothSensitivityQF(uint32_t dmax, graph::NodeId n, double beta);

/// Scale of the Laplace noise for an (epsilon, delta)-DP release of Q_F via
/// smooth sensitivity at a graph with maximum degree dmax and n nodes:
/// 2 * S / epsilon.
double SmoothLaplaceScaleQF(uint32_t dmax, graph::NodeId n, double epsilon,
                            double delta);

/// Reconstruction of the paper's Section-7 preliminary node-DP experiment:
/// smooth-sensitivity noise scale for Q_F computed over the k-truncated
/// graph under *node* adjacency. The paper gives no formula; we use the
/// conservative distance-t bound LS_t = min(2(dmax + 2k) + 2kt, 2n - 2)
/// (attribute flip costs 2k on the truncated graph; one node's edge rewiring
/// perturbs at most ~2(dmax + k) surviving edges including truncation
/// cascades, and each further edit step adds at most 2k). Documented as a
/// substitution in DESIGN.md.
double NodeDpSmoothLaplaceScaleQF(uint32_t dmax, uint32_t k, graph::NodeId n,
                                  double epsilon, double delta);

}  // namespace agmdp::dp
