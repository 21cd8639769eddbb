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
#include "src/models/chung_lu.h"
#include "src/util/check.h"
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
// one shard per worker — so the per-shard random sub-streams, and therefore
// the merged output, do not depend on how many workers happen to execute
// them.
constexpr int kProposalShards = kSamplerProposalShards;

// The per-sample invariants of the sharded FCL path, built when the model
// is bound to a sample and reused across every acceptance iteration: the pi
// weights, the edge target, and the pi tables over those weights, one form
// for unfiltered passes and one for table-filtered ones, each built at its
// first pass (the unfiltered one is dropped at the first filtered pass).
// The attribute vector is fixed for the whole sample, so every iteration's
// acceptance table shares the attribute classes of the first.
// Only the cFCL calibration pass (whose weights depend on the pilot of the
// current iteration) rebuilds its tables, in the plan's FclScratch.
//
// The plan also owns the passes' scratch, reused across shards, across the
// pilot and calibrated passes and across iterations. The one-worker pass
// keeps one mark bit per slot of its output's edge table and the slots the
// current shard marked. The wave path keeps the accepted edges of each
// shard of a wave (keyed by its place in the wave) and the dedup sets
// (keyed by the task that draws the shard, never by the worker that runs
// the task).
struct FclPlan {
  std::vector<double> weights;
  uint64_t target = 0;
  std::optional<models::PiTables> by_node;   // no filter
  std::optional<models::PiTables> by_class;  // acceptance-table filter
  models::FclScratch fcl;
  std::vector<uint64_t> slot_marks;                   // one worker
  std::vector<size_t> marked_slots;                   // one worker
  std::vector<std::vector<graph::Edge>> shard_edges;  // waves, by place
  std::vector<util::FlatEdgeSet> shard_seen;          // waves, by task
};

FclPlan BuildFclPlan(const std::vector<uint32_t>& degrees) {
  uint64_t total_degree = 0;
  for (uint32_t d : degrees) total_degree += d;
  FclPlan plan;
  // A simple graph cannot hold more edges than this; the clamp bounds every
  // quota- and reservation-derived allocation of the passes.
  plan.target = std::min(
      total_degree / 2,
      graph::MaxPossibleEdges(static_cast<graph::NodeId>(degrees.size())));
  if (plan.target > 0) plan.weights.assign(degrees.begin(), degrees.end());
  return plan;
}

// The plan's pi tables in the form `filter` needs, built on first use.
util::Result<const models::PiTables*> PlanTables(
    FclPlan& plan, const models::EdgeFilter& filter) {
  std::optional<models::PiTables>& tables =
      filter.table_view() ? plan.by_class : plan.by_node;
  if (filter.table_view()) plan.by_node.reset();  // never unfiltered again
  if (!tables) {
    auto built =
        models::PiTables::Build(plan.weights, filter, &plan.fcl.worklist);
    if (!built.ok()) return built.status();
    tables = std::move(built).value();
  }
  return &*tables;
}

// The one-worker sharded pass: shards s = 0, 1, ... drawn in merge order
// straight into `out`, one output-table lookup per candidate. A shard
// accepts a candidate exactly when models::DrawShard would: one its own
// earlier candidates did not accept (no mark on the candidate's slot) that
// the filter admits. An accepted candidate marks its slot and counts
// toward the quota; it joins `out` unless an earlier shard put it there,
// which is the merge dropping a cross-shard duplicate. The pass stops at
// the target, where the merge stops; a shard's stream is private to it,
// so stopping mid-shard leaves every edge, adjacency order and insertion
// order as the wave path's. `out` is reserved for the target (RunFcl), so
// a found slot stays valid until AddEdgeAt; the marks are cleared from the
// shard's slot list, O(quota) per shard.
template <typename Out>
void OneWorkerProposalPass(const models::CandidateKernel& kernel,
                           uint64_t target_edges, uint64_t quota,
                           uint64_t budget, uint64_t seed_base,
                           uint64_t stream_offset, FclPlan& plan, Out& out,
                           std::vector<graph::Edge>* insertion_order) {
  std::vector<uint64_t>& marks = plan.slot_marks;
  std::vector<size_t>& marked = plan.marked_slots;
  marks.assign((out.edge_slot_count() + 63) / 64, 0);
  marked.reserve(quota);
  kernel.Run([&](const auto& arm) {
    for (int s = 0; s < kProposalShards; ++s) {
      util::Rng rng = util::Rng::Substream(
          seed_base, stream_offset + static_cast<uint64_t>(s));
      models::PassBudget remaining(budget);
      marked.clear();
      graph::NodeId u = 0;
      graph::NodeId v = 0;
      while (marked.size() < quota && arm.Propose(rng, remaining, u, v)) {
        const util::FlatEdgeSet::Slot slot = out.FindEdgeSlot(u, v);
        uint64_t& word = marks[slot.index / 64];
        const uint64_t bit = uint64_t{1} << (slot.index % 64);
        if ((word & bit) != 0 || !arm.Admit(u, v, rng)) continue;
        word |= bit;
        marked.push_back(slot.index);
        if (slot.found) continue;  // accepted by an earlier shard
        out.AddEdgeAt(slot, u, v);
        if (insertion_order != nullptr) insertion_order->emplace_back(u, v);
        if (out.num_edges() >= target_edges) return;
      }
      for (size_t i : marked) marks[i / 64] = 0;
    }
  });
}

// One sharded proposal pass of the parallel Fast Chung-Lu sampler, merged
// into `out` (a graph::Graph or a models::FclPilot). Shard s draws
// exclusively from util::Rng::Substream(seed_base, stream_offset + s) and
// collects its accepted edges locally (deduplicating, like the sequential
// sampler, only among *accepted* edges, so a filter-rejected pair can be
// re-proposed); the shards are merged in shard order with cross-shard
// duplicates dropped, stopping at the target. With one worker the shards
// are drawn straight into `out` (OneWorkerProposalPass). With several they
// are drawn lazily, in merge order and in waves: first the
// ceil(target / quota) shards the merge needs at the least, then one shard
// per worker at a time until the merge reaches the target. Shards after
// that point are never drawn. A wave runs as at most one task per worker,
// task t drawing the wave's shards t, t + tasks, ... with the plan's dedup
// set t into the plan's buffers, keyed by the shard's place in the wave.
// Every quantity here is a function of (seed_base, stream_offset) alone —
// the pool only changes which worker runs which task and how many shards
// are drawn ahead of the merge.
template <typename Out>
void ShardedProposalPass(const models::CandidateKernel& kernel,
                         uint64_t target_edges,
                         uint64_t max_proposals_per_edge,
                         util::WorkerPool& pool, uint64_t seed_base,
                         uint64_t stream_offset, FclPlan& plan, Out& out,
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

  const int workers = pool.num_workers();
  if (workers == 1) {
    OneWorkerProposalPass(kernel, target_edges, quota, budget, seed_base,
                          stream_offset, plan, out, insertion_order);
    return;
  }
  int wave = static_cast<int>(std::min<uint64_t>(
      (target_edges + quota - 1) / quota, kProposalShards));
  std::vector<std::vector<graph::Edge>>& accepted = plan.shard_edges;
  int drawn = 0;
  while (drawn < kProposalShards) {
    const int first = drawn;
    drawn = std::min(kProposalShards, drawn + wave);
    const int tasks = std::min(drawn - first, workers);
    if (accepted.size() < static_cast<size_t>(drawn - first)) {
      accepted.resize(drawn - first);
    }
    if (plan.shard_seen.size() < static_cast<size_t>(tasks)) {
      plan.shard_seen.resize(tasks);
    }
    pool.Run(tasks, [&](int t) {
      for (int s = first + t; s < drawn; s += tasks) {
        models::DrawShard(
            kernel, quota, budget,
            util::Rng::Substream(seed_base,
                                 stream_offset + static_cast<uint64_t>(s)),
            plan.shard_seen[t], accepted[s - first]);
      }
    });
    for (int s = first; s < drawn; ++s) {
      for (const graph::Edge& e : accepted[s - first]) {
        if (out.num_edges() >= target_edges) return;
        if (out.AddEdge(e.u, e.v) && insertion_order != nullptr) {
          insertion_order->push_back(e);
        }
      }
    }
    wave = workers;
  }
}

// Parallel counterpart of models::FastChungLu through the same cFCL routine
// (models::RunFcl; the pilot it measures is the deterministic shard merge,
// so the calibration is reproducible too). The calibrated pass uses the
// next block of sub-streams. The first pass reuses the plan's pi tables;
// only the calibrated pass, whose weights depend on the pilot, rebuilds
// its own, in the plan's scratch.
util::Result<graph::Graph> ShardedFastChungLu(
    const std::vector<uint32_t>& degrees, FclPlan& plan,
    const models::ChungLuOptions& options, util::WorkerPool& pool,
    uint64_t seed_base) {
  const uint64_t target = plan.target;
  if (target == 0) {
    return graph::Graph(static_cast<graph::NodeId>(degrees.size()));
  }
  auto pi = PlanTables(plan, options.filter);
  if (!pi.ok()) return pi.status();
  return models::RunFcl(
      degrees, target, plan.weights, *pi.value(), options, plan.fcl,
      [&](const models::CandidateKernel& kernel, auto& out,
          std::vector<graph::Edge>* insertion_order, bool calibrated) {
        ShardedProposalPass(kernel, target, options.max_proposals_per_edge,
                            pool, seed_base,
                            calibrated ? kProposalShards : 0, plan, out,
                            insertion_order);
      });
}

}  // namespace

StructuralModel ShardedFclModel(uint64_t max_proposals_per_edge) {
  return [max_proposals_per_edge](const AgmParams& params,
                                  util::WorkerPool& pool) -> StructuralDraw {
    return [&params, &pool, max_proposals_per_edge,
            plan = BuildFclPlan(params.degree_sequence)](
               const models::EdgeFilter& filter,
               util::Rng& rng) mutable -> util::Result<graph::Graph> {
      models::ChungLuOptions options;
      options.max_proposals_per_edge = max_proposals_per_edge;
      options.filter = filter;
      // One master draw keys the whole sharded pass, so the master stream
      // advances identically at any pool size.
      const uint64_t seed_base = rng.Next();
      return ShardedFastChungLu(params.degree_sequence, plan, options, pool,
                                seed_base);
    };
  };
}

std::vector<double> MeasureThetaF(const graph::AttributedGraph& g,
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

namespace {

// Algorithm 3 lines 6-18, shared by SampleAgmGraph and CalibrateAcceptance:
// returns the final acceptance vector and moves the last generated graph
// into `graph_out` when non-null. Without `graph_out` nothing reads that
// graph, so the last iteration (iteration limit or tolerance exit) stops
// once it has computed the vector, before its structural generation; the
// stream up to that point, and so the vector, is the same either way.
util::Result<std::vector<double>> RunAcceptanceLoop(
    const AgmParams& params, const StructuralModel& model,
    const AgmSampleOptions& options, util::WorkerPool& pool, util::Rng& rng,
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

  // The model's per-sample state (FCL's pi tables) lives in the draw, so it
  // is built once per sample, not once per acceptance iteration.
  const StructuralDraw draw = model(params, pool);

  // Line 6: fresh attribute vectors X̃ ~ ΘX.
  auto attrs = SampleAttributes(params.theta_x, n, rng);
  if (!attrs.ok()) return attrs.status();

  // Lines 7 and 17: the edge set for the current acceptance vector. The
  // cold start generates it unfiltered; a warm start (serving layer)
  // filters it by the calibrated acceptance vector straight away. The
  // dense acceptance table precomputes attribute lookups and the
  // triangular edge-config encoding once per iteration.
  const auto generate = [&]() -> util::Result<graph::AttributedGraph> {
    models::EdgeFilter filter;
    if (!a_old.empty()) {
      filter = models::EdgeFilter::FromAcceptanceTable(attrs.value(), a_old,
                                                       params.w);
    }
    auto structure = draw(filter, rng);
    if (!structure.ok()) return structure.status();
    graph::AttributedGraph g(std::move(structure).value(), params.w);
    AGMDP_CHECK_OK(g.SetAttributes(attrs.value()));
    return g;
  };
  auto first = generate();
  if (!first.ok()) return first.status();
  graph::AttributedGraph synthetic = std::move(first).value();

  // Lines 9-18: iterate acceptance probabilities to convergence (starting
  // from the warm-start vector when one was supplied).
  for (int iter = 0; iter < options.acceptance_iterations; ++iter) {
    const std::vector<double> observed = MeasureThetaF(synthetic, pool);
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

    auto refreshed = generate();
    if (!refreshed.ok()) return refreshed.status();
    synthetic = std::move(refreshed).value();
    if (converged) break;
  }
  if (graph_out != nullptr) *graph_out = std::move(synthetic);
  return a_old;
}

}  // namespace

util::Result<graph::AttributedGraph> SampleAgmGraph(
    const AgmParams& params, const StructuralModel& model,
    const AgmSampleOptions& options, util::WorkerPool& pool, util::Rng& rng) {
  graph::AttributedGraph synthetic;
  auto acceptance =
      RunAcceptanceLoop(params, model, options, pool, rng, &synthetic);
  if (!acceptance.ok()) return acceptance.status();
  return synthetic;
}

util::Result<std::vector<double>> CalibrateAcceptance(
    const AgmParams& params, const StructuralModel& model,
    const AgmSampleOptions& options, util::WorkerPool& pool, util::Rng& rng) {
  return RunAcceptanceLoop(params, model, options, pool, rng,
                           /*graph_out=*/nullptr);
}

}  // namespace agmdp::agm
