#include "src/models/tcl.h"

#include <algorithm>

#include "src/models/edge_age_queue.h"
#include "src/util/check.h"
#include "src/util/math_util.h"

namespace agmdp::models {

namespace {

constexpr uint64_t kMaxProposalsPerEdge = 200;
constexpr int kEmIterations = 20;
constexpr size_t kEmSampleEdges = 5000;
constexpr double kInitialRho = 0.5;

}  // namespace

util::Result<graph::Graph> GenerateTcl(const std::vector<uint32_t>& degrees,
                                       double rho, util::Rng& rng,
                                       const TclOptions& options) {
  if (degrees.empty()) {
    return util::Status::InvalidArgument("TCL: empty degree sequence");
  }
  if (rho < 0.0 || rho > 1.0) {
    return util::Status::InvalidArgument("TCL: rho must be in [0, 1]");
  }
  const auto n = static_cast<graph::NodeId>(degrees.size());
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  // A simple graph holds at most C(n, 2) edges; the clamp also bounds the
  // proposal budget, which a complete graph spends on duplicates alone.
  const uint64_t m_target =
      std::min(total_degree / 2, graph::MaxPossibleEdges(n));
  if (m_target == 0) return graph::Graph(n);

  auto pi = BuildPiSampler(degrees, /*exclude_degree_one=*/false);
  if (!pi.ok()) return pi.status();

  ChungLuOptions seed_options;
  seed_options.filter = options.filter;
  std::vector<graph::Edge> insertion_order;
  seed_options.insertion_order = &insertion_order;
  auto seed = FastChungLu(degrees, rng, seed_options);
  if (!seed.ok()) return seed.status();
  graph::Graph g = std::move(seed).value();

  // The seed edges are the oldest queue entries and each swap pops exactly
  // one live edge, so the seed is gone once that many edges were popped.
  EdgeAgeQueue age;
  for (const graph::Edge& e : insertion_order) age.Push(e);
  uint64_t seed_edges_left = insertion_order.size();

  const uint64_t max_proposals =
      util::SaturatingMul(kMaxProposalsPerEdge, m_target);
  uint64_t proposals = 0;
  while (seed_edges_left > 0 && proposals < max_proposals) {
    ++proposals;
    auto vi = static_cast<graph::NodeId>(pi.value().Sample(rng));
    graph::NodeId vj;
    if (rng.Bernoulli(rho)) {
      // Transitive step: uniform friend-of-a-friend.
      if (g.Degree(vi) == 0) continue;
      const auto& gamma_i = g.Neighbors(vi);
      graph::NodeId vk = gamma_i[rng.UniformIndex(gamma_i.size())];
      const auto& gamma_k = g.Neighbors(vk);
      vj = gamma_k[rng.UniformIndex(gamma_k.size())];
    } else {
      vj = static_cast<graph::NodeId>(pi.value().Sample(rng));
    }
    if (vj == vi || g.HasEdge(vi, vj)) continue;
    if (!AcceptEdge(options.filter, vi, vj, rng)) continue;

    g.AddEdge(vi, vj);
    age.Push(graph::Edge(vi, vj));

    graph::Edge oldest;
    AGMDP_CHECK(age.PopOldest(&oldest));  // holds at least the new edge
    g.RemoveEdge(oldest.u, oldest.v);
    --seed_edges_left;
  }

  PostProcessGraph(&g, degrees, pi.value(), rng);
  return g;
}

double FitTclRho(const graph::Graph& g, util::Rng& rng) {
  const uint64_t m = g.num_edges();
  if (m == 0) return 0.0;

  // Collect the sample of edges once (uniform without replacement via
  // shuffle of the canonical edge list when the sample is large, reservoir
  // otherwise is unnecessary at these sizes).
  std::vector<graph::Edge> edges = g.CanonicalEdges();
  if (edges.size() > kEmSampleEdges) {
    rng.Shuffle(&edges);
    edges.resize(kEmSampleEdges);
  }

  const double two_m = 2.0 * static_cast<double>(m);
  double rho = kInitialRho;
  for (int iter = 0; iter < kEmIterations; ++iter) {
    double responsibility_sum = 0.0;
    size_t counted = 0;
    for (const graph::Edge& e : edges) {
      // Exact transitive likelihood: walk i -> k -> j over common neighbors.
      const graph::NodeId i = e.u, j = e.v;
      const double d_i = g.Degree(i);
      double p_tc = 0.0;
      const auto& smaller =
          g.Degree(i) <= g.Degree(j) ? g.Neighbors(i) : g.Neighbors(j);
      const graph::NodeId other = g.Degree(i) <= g.Degree(j) ? j : i;
      for (graph::NodeId k : smaller) {
        if (k != other && g.HasEdge(k, other)) {
          p_tc += 1.0 / static_cast<double>(g.Degree(k));
        }
      }
      p_tc /= d_i;
      const double p_cl = static_cast<double>(g.Degree(j)) / two_m;
      const double denom = rho * p_tc + (1.0 - rho) * p_cl;
      if (denom <= 0.0) continue;
      responsibility_sum += rho * p_tc / denom;
      ++counted;
    }
    if (counted == 0) return 0.0;
    rho = std::clamp(responsibility_sum / static_cast<double>(counted), 1e-6,
                     1.0 - 1e-6);
  }
  return rho;
}

}  // namespace agmdp::models
