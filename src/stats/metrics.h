// Error metrics from Section 5.1: MRE/MAE, Hellinger distance, and the
// Kolmogorov-Smirnov statistic between degree distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"

namespace agmdp::stats {

/// |estimate - truth| / max(|truth|, floor); floor guards division by zero.
double RelativeError(double estimate, double truth, double floor = 1e-12);

/// Mean of component-wise |a_i - b_i|. Requires equal sizes.
double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Mean of component-wise relative errors |a_i - b_i| / max(|b_i|, floor).
double MeanRelativeError(const std::vector<double>& a,
                         const std::vector<double>& b, double floor = 1e-12);

/// Hellinger distance between two discrete distributions (padded with zeros
/// to a common length): (1/sqrt(2)) * || sqrt(p) - sqrt(q) ||_2.
double HellingerDistance(std::vector<double> p, std::vector<double> q);

/// KS statistic between the degree distributions of two sorted degree
/// sequences: max_d |F_1(d) - F_2(d)| where F is the empirical CDF of the
/// degree values.
double KsStatistic(std::vector<uint32_t> s1, std::vector<uint32_t> s2);

/// KsStatistic on two integer samples given as value -> count histograms
/// (e.g. graph::DegreeHistogram): bitwise-identical to KsStatistic on the
/// expanded sorted sequences, without materializing or sorting them. The
/// fused evaluation path feeds degree histograms straight into this.
double KsStatisticFromHistograms(const std::vector<uint64_t>& h1,
                                 const std::vector<uint64_t>& h2);

/// KS statistic over real-valued samples: sup_x |F_1(x) - F_2(x)|. Because
/// sup |F_1 - F_2| = sup |(1-F_1) - (1-F_2)|, this is also the sup-norm
/// distance between the two empirical CCDF step functions (the curves of
/// Figures 2/3). Empty-vs-nonempty is distance 1, empty-vs-empty is 0.
double KsDistance(std::vector<double> a, std::vector<double> b);

/// KsDistance over samples the caller already sorted ascending (no copies,
/// no re-sorts — EvaluateRelease keeps the reference side presorted in the
/// profile and sorts the released side once).
double KsDistanceSorted(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Kullback-Leibler divergence KL(p || q) = sum_{p_i > 0} p_i ln(p_i / q_i)
/// over distributions padded with zeros to a common length; q_i is floored
/// at `floor` so that mass of p outside q's support contributes a large but
/// finite penalty. Nonnegative whenever p and q are distributions.
double KlDivergence(std::vector<double> p, std::vector<double> q,
                    double floor = 1e-12);

/// Normalized degree histogram of a graph (mass at each degree value).
std::vector<double> DegreeDistribution(const graph::CsrGraph& g);

/// The same distribution from an already-computed degree histogram — the
/// shared tail of DegreeDistribution and the fused evaluation path.
std::vector<double> DegreeDistributionFromHistogram(
    const std::vector<uint64_t>& hist, uint64_t num_nodes);

}  // namespace agmdp::stats
