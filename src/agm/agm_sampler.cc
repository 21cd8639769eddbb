#include "src/agm/agm_sampler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/dp/laplace_mechanism.h"
#include "src/graph/attribute_encoding.h"
#include "src/graph/triangle_count.h"
#include "src/util/alias_sampler.h"
#include "src/util/check.h"
#include "src/util/flat_edge_set.h"
#include "src/util/math_util.h"
#include "src/util/parallel.h"

namespace agmdp::agm {

AgmParams LearnAgmParams(const graph::AttributedCsrGraph& g) {
  AgmParams params;
  params.w = g.num_attributes;
  params.theta_x = ComputeThetaX(g);
  params.theta_f = ComputeThetaF(g);
  params.degree_sequence = g.structure.degrees();
  params.target_triangles = graph::CountTriangles(g.structure);
  return params;
}

namespace {

util::Status BadTheta(const char* which, size_t index, double value) {
  std::ostringstream message;
  message << which << "[" << index << "] = " << value
          << " is not a finite non-negative probability mass";
  return util::Status::InvalidArgument(message.str());
}

}  // namespace

util::Status ValidateAgmParams(const AgmParams& params) {
  // w is capped at 16: beyond that the triangular edge-config count
  // C(2^w + 1, 2) overflows NumEdgeConfigs's uint32 range, so a dimension
  // check against the truncated value would wave through short theta_f
  // vectors that the sampler then indexes out of bounds.
  if (params.w < 0 || params.w > 16) {
    return util::Status::InvalidArgument(
        "params: w must be in [0, 16], got " + std::to_string(params.w));
  }
  if (params.theta_x.size() != graph::NumNodeConfigs(params.w) ||
      params.theta_f.size() != graph::NumEdgeConfigs(params.w)) {
    return util::Status::InvalidArgument(
        "params: theta dimensions inconsistent with w=" +
        std::to_string(params.w));
  }
  for (size_t y = 0; y < params.theta_x.size(); ++y) {
    const double p = params.theta_x[y];
    if (!std::isfinite(p) || p < 0.0) return BadTheta("theta_x", y, p);
  }
  for (size_t y = 0; y < params.theta_f.size(); ++y) {
    const double p = params.theta_f[y];
    if (!std::isfinite(p) || p < 0.0) return BadTheta("theta_f", y, p);
  }
  if (params.degree_sequence.empty()) {
    return util::Status::InvalidArgument("params: empty degree sequence");
  }
  // No simple graph over n nodes has a degree above n - 1 or more than
  // C(n, 3) triangles, and the generators would chase either until their
  // budgets run out (the DP fit clamps to the same bounds). C(n, 3) is
  // taken in 128 bits: the 64-bit product overflows from n ~ 2.6M on.
  const uint64_t n = params.degree_sequence.size();
  const uint32_t max_degree = *std::max_element(params.degree_sequence.begin(),
                                                params.degree_sequence.end());
  const unsigned __int128 max_triangles =
      n < 3 ? 0 : static_cast<unsigned __int128>(n) * (n - 1) * (n - 2) / 6;
  if (max_degree > n - 1 || params.target_triangles > max_triangles) {
    return util::Status::InvalidArgument(
        "params: degree " + std::to_string(max_degree) + " or " +
        std::to_string(params.target_triangles) +
        " triangles infeasible over n = " + std::to_string(n) + " nodes");
  }
  return util::Status::OK();
}

std::vector<double> ComputeAcceptanceProbabilities(
    const std::vector<double>& theta_f_target,
    const std::vector<double>& theta_f_observed,
    const std::vector<double>& a_old, double min_acceptance) {
  AGMDP_CHECK(theta_f_target.size() == theta_f_observed.size());
  const size_t dim = theta_f_target.size();
  constexpr double kTiny = 1e-12;

  // R(y) = target / observed, carrying the previous acceptance forward
  // (Algorithm 3 lines 11-14). Configurations the current graph never
  // produced but the target wants get the largest finite ratio (the paper
  // is silent on 0-denominators; see DESIGN.md deviations).
  std::vector<double> ratio(dim, 0.0);
  double max_finite = 0.0;
  for (size_t y = 0; y < dim; ++y) {
    if (theta_f_observed[y] > kTiny) {
      ratio[y] = theta_f_target[y] / theta_f_observed[y];
      if (!a_old.empty()) ratio[y] *= a_old[y];
      max_finite = std::max(max_finite, ratio[y]);
    }
  }
  const double missing_ratio = max_finite > 0.0 ? max_finite : 1.0;
  for (size_t y = 0; y < dim; ++y) {
    if (theta_f_observed[y] <= kTiny) {
      ratio[y] = theta_f_target[y] > kTiny ? missing_ratio : 0.0;
    }
  }

  // A(y) = R(y) / sup R (line 16), floored for configurations with demand.
  double sup = *std::max_element(ratio.begin(), ratio.end());
  if (sup <= 0.0) return std::vector<double>(dim, 1.0);
  std::vector<double> acceptance(dim);
  for (size_t y = 0; y < dim; ++y) {
    acceptance[y] = ratio[y] / sup;
    if (theta_f_target[y] > kTiny) {
      acceptance[y] = std::max(acceptance[y], min_acceptance);
    }
  }
  return acceptance;
}

namespace {

// The fixed shard count of the parallel hot path (kSamplerProposalShards,
// agm_sampler.h). Work is always split into this many shards — never into
// `threads` shards — so the per-shard random sub-streams, and therefore the
// merged output, do not depend on how many workers happen to execute them.
constexpr int kProposalShards = kSamplerProposalShards;

// Worker count for the sampler's persistent pool: the hardware concurrency
// (or the explicit request), never more than the shard count.
int SamplerWorkers(int threads) {
  return std::min(util::ResolveThreadCount(threads), kProposalShards);
}

// The per-sample invariants of the sharded FCL path, built once per
// SampleAgmGraph call and reused across every acceptance iteration: the pi
// weights, the alias table over them, and the edge target. Only the cFCL
// calibration pass (whose weights depend on the pilot of the current
// iteration) still builds a fresh alias table.
struct FclPlan {
  std::vector<double> weights;
  std::optional<util::AliasSampler> sampler;  // engaged iff target > 0
  uint64_t target = 0;
};

util::Result<FclPlan> BuildFclPlan(const std::vector<uint32_t>& degrees,
                                   const models::ChungLuOptions& options) {
  if (degrees.empty()) {
    return util::Status::InvalidArgument("FastChungLu: empty degree sequence");
  }
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  FclPlan plan;
  // A simple graph cannot hold more edges than this; the clamp bounds every
  // quota- and reservation-derived allocation of the passes.
  plan.target = std::min(
      options.target_edges > 0 ? options.target_edges : total_degree / 2,
      graph::MaxPossibleEdges(static_cast<graph::NodeId>(degrees.size())));
  if (plan.target == 0) return plan;  // empty result; no pi table needed
  plan.weights.assign(degrees.begin(), degrees.end());
  auto sampler = util::AliasSampler::Build(plan.weights);
  if (!sampler.ok()) return sampler.status();
  plan.sampler = std::move(sampler).value();
  return plan;
}

// One sharded proposal pass of the parallel Fast Chung-Lu sampler, merged
// into `out` (a graph::Graph or a models::FclPilot). Shard s draws
// exclusively from util::Rng::Substream(seed_base, stream_offset + s) and
// collects its accepted edges locally (deduplicating, like the sequential
// sampler, only among *accepted* edges, so a filter-rejected pair can be
// re-proposed); the shards are merged in shard order with cross-shard
// duplicates dropped, stopping at the target. Shards are drawn lazily, in
// merge order: first the ceil(target / quota) shards the merge needs at the
// least, then one shard per worker at a time until the merge reaches the
// target, so shards after that point are never drawn. Every quantity here
// is a function of (seed_base, stream_offset) alone — the pool only changes
// which worker runs which shard and how many are drawn ahead of the merge.
template <typename Out>
void ShardedProposalPass(const util::AliasSampler& sampler,
                         uint64_t target_edges,
                         uint64_t max_proposals_per_edge,
                         const models::EdgeFilter& filter,
                         util::WorkerPool& pool, uint64_t seed_base,
                         uint64_t stream_offset, Out& out,
                         std::vector<graph::Edge>* insertion_order) {
  // Over-provision each shard a little beyond target/shards: cross-shard
  // duplicates only surface at merge time, and the surplus lets the merge
  // still reach the target. (Falling short is permitted — FCL's contract —
  // but the slack makes it rare.)
  const uint64_t base_quota = (target_edges + kProposalShards - 1) /
                              static_cast<uint64_t>(kProposalShards);
  const uint64_t quota = base_quota + base_quota / 4 + 2;
  // Saturate: max_proposals_per_edge is a caller knob, and a wrapped
  // product can silently collapse the budget to ~0 proposals.
  const uint64_t budget = util::SaturatingMul(max_proposals_per_edge, quota);
  const bool filtered = filter.active();

  std::vector<std::vector<graph::Edge>> accepted(kProposalShards);
  const auto draw_shard = [&](int s) {
    util::Rng rng = util::Rng::Substream(
        seed_base, stream_offset + static_cast<uint64_t>(s));
    util::FlatEdgeSet seen(quota);
    std::vector<graph::Edge>& edges = accepted[s];
    edges.reserve(quota);
    uint64_t proposals = 0;
    while (edges.size() < quota && proposals < budget) {
      ++proposals;
      const auto u = static_cast<graph::NodeId>(sampler.Sample(rng));
      const auto v = static_cast<graph::NodeId>(sampler.Sample(rng));
      if (u == v || seen.Contains(graph::PackEdge(u, v))) continue;
      if (filtered && !filter.Accept(u, v, rng)) continue;
      seen.Insert(graph::PackEdge(u, v));
      edges.emplace_back(u, v);
    }
  };

  int wave = static_cast<int>(std::min<uint64_t>(
      (target_edges + quota - 1) / quota, kProposalShards));
  int drawn = 0;
  while (drawn < kProposalShards) {
    const int first = drawn;
    drawn = std::min(kProposalShards, drawn + wave);
    pool.Run(drawn - first, [&](int i) { draw_shard(first + i); });
    for (int s = first; s < drawn; ++s) {
      for (const graph::Edge& e : accepted[s]) {
        if (out.num_edges() >= target_edges) return;
        if (out.AddEdge(e.u, e.v) && insertion_order != nullptr) {
          insertion_order->push_back(e);
        }
      }
      std::vector<graph::Edge>().swap(accepted[s]);  // merged; free it
    }
    wave = pool.num_workers();
  }
}

// Parallel counterpart of models::FastChungLu through the same cFCL routine
// (models::RunFcl; the pilot it measures is the deterministic shard merge,
// so the calibration is reproducible too). The calibrated pass uses the
// next block of sub-streams. The first pass reuses the plan's prebuilt
// alias table; only the calibrated pass, whose weights depend on the pilot,
// builds a fresh one.
util::Result<graph::Graph> ShardedFastChungLu(
    const std::vector<uint32_t>& degrees, const FclPlan& plan,
    const models::ChungLuOptions& options, util::WorkerPool& pool,
    uint64_t seed_base) {
  const uint64_t target = plan.target;
  if (target == 0) {
    if (options.insertion_order != nullptr) options.insertion_order->clear();
    return graph::Graph(static_cast<graph::NodeId>(degrees.size()));
  }
  return models::RunFcl(
      degrees, target, plan.weights, *plan.sampler, options,
      [&](const util::AliasSampler& sampler, auto& out,
          std::vector<graph::Edge>* insertion_order, bool calibrated) {
        ShardedProposalPass(sampler, target, options.max_proposals_per_edge,
                            options.filter, pool, seed_base,
                            calibrated ? kProposalShards : 0, out,
                            insertion_order);
      });
}

// Θ'F counted over the pool's workers (node-range partition; exact integer
// counts, so the result is identical at any worker count).
std::vector<double> MeasureThetaFWithPool(const graph::AttributedGraph& g,
                                          util::WorkerPool& pool) {
  const int w = g.num_attributes();
  const uint64_t n = g.num_nodes();
  const uint32_t dim = graph::NumEdgeConfigs(w);
  const int workers = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(pool.num_workers()), std::max<uint64_t>(n, 1)));

  std::vector<std::vector<double>> partial(
      workers, std::vector<double>(dim, 0.0));
  pool.Run(workers, [&](int t) {
    const auto lo = static_cast<graph::NodeId>(n * t / workers);
    const auto hi = static_cast<graph::NodeId>(n * (t + 1) / workers);
    std::vector<double>& counts = partial[t];
    for (graph::NodeId u = lo; u < hi; ++u) {
      for (graph::NodeId v : g.structure().Neighbors(u)) {
        if (u < v) {
          counts[graph::EncodeEdgeConfig(g.attribute(u), g.attribute(v), w)] +=
              1.0;
        }
      }
    }
  });
  std::vector<double> counts(dim, 0.0);
  for (const auto& p : partial) {
    for (uint32_t y = 0; y < dim; ++y) counts[y] += p[y];
  }
  // Same normalization as ComputeThetaF (uniform when edgeless).
  return dp::ClampAndNormalize(std::move(counts), 0.0,
                               static_cast<double>(g.num_edges() + 1));
}

// Generates the edge set for the current acceptance vector (empty = none).
// `fcl_plan` is the hoisted per-sample FCL state (null on the TriCycLe and
// registry-generator paths, which do not use it).
util::Result<graph::Graph> GenerateStructure(
    const AgmParams& params, const AgmSampleOptions& options,
    const std::vector<graph::AttrConfig>& attrs,
    const std::vector<double>& acceptance, const FclPlan* fcl_plan,
    util::WorkerPool& pool, util::Rng& rng) {
  models::EdgeFilter filter;
  if (!acceptance.empty()) {
    // Dense acceptance table: attribute lookups and the triangular
    // edge-config encoding are precomputed once per iteration, so the inner
    // proposal loops pay two array loads per decision.
    filter = models::EdgeFilter::FromAcceptanceTable(attrs, acceptance,
                                                     params.w);
  }

  if (options.generator) return options.generator(params, filter, rng);

  if (options.model == StructuralModelKind::kFcl) {
    AGMDP_CHECK(fcl_plan != nullptr);
    models::ChungLuOptions fcl = options.fcl;
    fcl.filter = filter;
    // One master draw keys the whole sharded pass, so the master stream
    // advances identically at any thread count.
    const uint64_t seed_base = rng.Next();
    return ShardedFastChungLu(params.degree_sequence, *fcl_plan, fcl, pool,
                              seed_base);
  }
  // TriCycLe's oldest-edge rewiring chain is inherently sequential (every
  // swap depends on the full edge-age state); it stays on the master stream.
  models::TriCycLeOptions tri = options.tricycle;
  tri.filter = filter;
  return models::GenerateTriCycLeGraph(params.degree_sequence,
                                       params.target_triangles, rng, tri);
}

}  // namespace

std::vector<double> MeasureThetaF(const graph::AttributedGraph& g,
                                  int threads) {
  util::WorkerPool pool(SamplerWorkers(threads));
  return MeasureThetaFWithPool(g, pool);
}

namespace {

// Algorithm 3 lines 6-18, shared by SampleAgmGraph and CalibrateAcceptance:
// returns the final acceptance vector and moves the last generated graph
// into `graph_out` when non-null. Without `graph_out` nothing reads that
// graph, so the last iteration (iteration limit or tolerance exit) stops
// once it has computed the vector, before its structural generation; the
// stream up to that point, and so the vector, is the same either way.
util::Result<std::vector<double>> RunAcceptanceLoop(
    const AgmParams& params, const AgmSampleOptions& options, util::Rng& rng,
    graph::AttributedGraph* graph_out) {
  if (params.degree_sequence.empty()) {
    return util::Status::InvalidArgument("SampleAgmGraph: empty degree sequence");
  }
  if (params.theta_f.size() != graph::NumEdgeConfigs(params.w) ||
      params.theta_x.size() != graph::NumNodeConfigs(params.w)) {
    return util::Status::InvalidArgument(
        "SampleAgmGraph: parameter dimensions do not match w");
  }
  const auto n = static_cast<graph::NodeId>(params.degree_sequence.size());
  const std::vector<double>* warm = options.initial_acceptance;
  if (warm != nullptr && warm->size() != graph::NumEdgeConfigs(params.w)) {
    return util::Status::InvalidArgument(
        "SampleAgmGraph: initial_acceptance dimension does not match w");
  }
  std::vector<double> a_old =
      warm != nullptr ? *warm : std::vector<double>{};

  // The pool and the FCL invariants (pi weights + alias table) live for the
  // whole sample: one thread spawn and one alias build per sample, not one
  // per acceptance iteration. A caller-provided pool (the serving layer's
  // persistent one) removes even the per-sample spawn.
  std::optional<util::WorkerPool> owned_pool;
  util::WorkerPool* pool_ptr = options.pool;
  if (pool_ptr == nullptr) {
    owned_pool.emplace(SamplerWorkers(options.threads));
    pool_ptr = &*owned_pool;
  }
  util::WorkerPool& pool = *pool_ptr;
  std::optional<FclPlan> plan_storage;
  const FclPlan* fcl_plan = nullptr;
  if (!options.generator && options.model == StructuralModelKind::kFcl) {
    auto plan = BuildFclPlan(params.degree_sequence, options.fcl);
    if (!plan.ok()) return plan.status();
    plan_storage = std::move(plan).value();
    fcl_plan = &*plan_storage;
  }

  // Line 6: fresh attribute vectors X̃ ~ ΘX.
  auto attrs = SampleAttributes(params.theta_x, n, rng);
  if (!attrs.ok()) return attrs.status();

  // Line 7: temporary edge set. The cold start generates it unfiltered;
  // a warm start (serving layer) filters it by the calibrated acceptance
  // vector straight away.
  auto structure = GenerateStructure(params, options, attrs.value(), a_old,
                                     fcl_plan, pool, rng);
  if (!structure.ok()) return structure.status();

  graph::AttributedGraph synthetic(std::move(structure).value(), params.w);
  AGMDP_CHECK_OK(synthetic.SetAttributes(attrs.value()));

  // Lines 9-18: iterate acceptance probabilities to convergence (starting
  // from the warm-start vector when one was supplied).
  for (int iter = 0; iter < options.acceptance_iterations; ++iter) {
    const std::vector<double> observed =
        MeasureThetaFWithPool(synthetic, pool);
    std::vector<double> acceptance = ComputeAcceptanceProbabilities(
        params.theta_f, observed, a_old, options.min_acceptance);

    double delta = 0.0;
    if (!a_old.empty()) {
      for (size_t y = 0; y < acceptance.size(); ++y) {
        delta = std::max(delta, std::fabs(acceptance[y] - a_old[y]));
      }
    }
    const bool converged = iter > 0 && delta < options.acceptance_tolerance;
    a_old = std::move(acceptance);
    if (graph_out == nullptr &&
        (converged || iter + 1 == options.acceptance_iterations)) {
      break;
    }

    auto refreshed = GenerateStructure(params, options, attrs.value(), a_old,
                                       fcl_plan, pool, rng);
    if (!refreshed.ok()) return refreshed.status();
    synthetic = graph::AttributedGraph(std::move(refreshed).value(), params.w);
    AGMDP_CHECK_OK(synthetic.SetAttributes(attrs.value()));
    if (converged) break;
  }
  if (graph_out != nullptr) *graph_out = std::move(synthetic);
  return a_old;
}

}  // namespace

util::Result<graph::AttributedGraph> SampleAgmGraph(
    const AgmParams& params, const AgmSampleOptions& options,
    util::Rng& rng) {
  graph::AttributedGraph synthetic;
  auto acceptance = RunAcceptanceLoop(params, options, rng, &synthetic);
  if (!acceptance.ok()) return acceptance.status();
  return synthetic;
}

util::Result<std::vector<double>> CalibrateAcceptance(
    const AgmParams& params, const AgmSampleOptions& options,
    util::Rng& rng) {
  return RunAcceptanceLoop(params, options, rng, /*graph_out=*/nullptr);
}

}  // namespace agmdp::agm
