// TriCycLe random graph model — Algorithm 1 of the paper.
//
// Start from a (bias-corrected) Fast Chung-Lu seed graph, then repeatedly
// propose transitive "friend of a friend" edges: sample v_i from the
// degree-proportional pi distribution, pick a uniform neighbor v_k, a
// uniform neighbor v_j of v_k, and try to swap the *oldest* edge in the
// graph for {v_i, v_j}. The swap is kept only if it does not decrease the
// triangle count; a rejected swap re-inserts the old edge as the *youngest*
// (the paper's anti-livelock detail). The process ends when the target
// triangle count n∆ is reached.
//
// Extensions from Section 3.3 are always on: degree-one nodes are excluded
// from pi and from the bias-corrected cFCL seed graph, as they cannot join
// triangles, and orphaned nodes are rewired by PostProcessGraph, applied to
// the seed and to the final graph unless `post_process` is cleared.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/chung_lu.h"
#include "src/models/edge_filter.h"
#include "src/models/post_process.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::models {

struct TriCycLeOptions {
  /// Run Algorithm 2 on the seed and final graphs.
  bool post_process = true;
  /// Rewiring proposal budget; 0 means 200 * m. Guards the paper's
  /// potentially unbounded loop (documented deviation).
  uint64_t max_proposals = 0;
  /// Optional AGM acceptance filter, applied to proposed transitive edges
  /// and to the seed graph (Section 4).
  EdgeFilter filter;
};

struct TriCycLeResult {
  graph::Graph graph;
  uint64_t target_triangles = 0;
  uint64_t achieved_triangles = 0;  // recounted on the final graph
  uint64_t proposals = 0;
  bool reached_target = false;
};

/// Generates a TriCycLe graph whose expected degrees follow `degrees`
/// (indexed by synthetic node id) and whose triangle count approaches
/// `target_triangles`. The graph alone — what the AGM sampler reads; no
/// final triangle recount.
util::Result<graph::Graph> GenerateTriCycLeGraph(
    const std::vector<uint32_t>& degrees, uint64_t target_triangles,
    util::Rng& rng, const TriCycLeOptions& options = {});

/// GenerateTriCycLeGraph plus the achieved triangle count, recounted on the
/// final graph (same graph from the same stream).
util::Result<TriCycLeResult> GenerateTriCycLe(
    const std::vector<uint32_t>& degrees, uint64_t target_triangles,
    util::Rng& rng, const TriCycLeOptions& options = {});

}  // namespace agmdp::models
