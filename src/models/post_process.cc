#include "src/models/post_process.h"

#include <algorithm>

#include "src/graph/components.h"
#include "src/util/check.h"

namespace agmdp::models {

namespace {

// Outer rounds before the remaining orphans are attached without deletions.
constexpr uint32_t kMaxRounds = 50;

// Deletes an approximately uniform random edge: a degree-weighted endpoint
// via uniform node draws, then a uniform incident edge. (Exact uniformity
// over edges would need an edge index; the paper only asks for "a random
// edge" and the step fires rarely.) Early attempts avoid edges with a
// degree-one endpoint, whose removal would immediately re-orphan a node.
bool DeleteRandomEdge(graph::Graph* g, util::Rng& rng) {
  if (g->num_edges() == 0) return false;
  const graph::NodeId n = g->num_nodes();
  for (int attempt = 0; attempt < 256; ++attempt) {
    auto u = static_cast<graph::NodeId>(rng.UniformIndex(n));
    if (g->Degree(u) == 0) continue;
    const auto& nbrs = g->Neighbors(u);
    graph::NodeId v = nbrs[rng.UniformIndex(nbrs.size())];
    if (attempt < 128 && (g->Degree(u) <= 1 || g->Degree(v) <= 1)) continue;
    return g->RemoveEdge(u, v);
  }
  return false;
}

// Largest-component label and a per-node membership flag.
uint32_t MainComponentLabel(const std::vector<uint32_t>& label,
                            uint32_t num_components) {
  std::vector<uint64_t> sizes(num_components, 0);
  for (uint32_t l : label) ++sizes[l];
  return static_cast<uint32_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

}  // namespace

void PostProcessGraph(graph::Graph* g, const std::vector<uint32_t>& desired,
                      const util::AliasSampler& pi, util::Rng& rng,
                      std::vector<graph::Edge>* added) {
  AGMDP_CHECK(g != nullptr);
  AGMDP_CHECK(desired.size() == g->num_nodes());
  const graph::NodeId n = g->num_nodes();
  if (n < 2) return;

  uint64_t desired_total = 0;
  for (uint32_t d : desired) desired_total += d;
  const uint64_t target_edges = desired_total / 2;

  for (uint32_t round = 0; round < kMaxRounds; ++round) {
    uint32_t num_components = 0;
    std::vector<uint32_t> label = graph::ConnectedComponents(*g,
                                                             &num_components);
    if (num_components <= 1) return;
    const uint32_t main_label = MainComponentLabel(label, num_components);

    for (graph::NodeId vi = 0; vi < n; ++vi) {
      if (label[vi] == main_label) continue;

      // Line 6-8 of Algorithm 2: drop the orphan's existing edges (they can
      // only lead to other orphans).
      while (g->Degree(vi) > 0) {
        g->RemoveEdge(vi, g->Neighbors(vi).front());
      }

      // Lines 9-13: attach vi to main-component nodes with unmet desired
      // degree, sampled from pi.
      const uint32_t want = std::max<uint32_t>(1, desired[vi]);
      for (uint32_t j = 0; j < want; ++j) {
        graph::NodeId attached = vi;
        bool did_add = false;
        for (int attempt = 0; attempt < 1000 && !did_add; ++attempt) {
          auto vk = static_cast<graph::NodeId>(pi.Sample(rng));
          if (vk == vi || label[vk] != main_label) continue;
          if (g->Degree(vk) >= desired[vk]) continue;  // capacity met
          did_add = g->AddEdge(vi, vk);
          if (did_add) attached = vk;
        }
        if (!did_add) {
          // Capacity everywhere is met; relax the capacity constraint so the
          // orphan still joins the main component.
          for (int attempt = 0; attempt < 1000 && !did_add; ++attempt) {
            auto vk = static_cast<graph::NodeId>(pi.Sample(rng));
            if (vk == vi || label[vk] != main_label) continue;
            did_add = g->AddEdge(vi, vk);
            if (did_add) attached = vk;
          }
        }
        if (!did_add) break;  // pi cannot reach the main component; give up
        if (added != nullptr) added->emplace_back(vi, attached);

        // Lines 14-17: keep the total edge budget.
        if (g->num_edges() > target_edges) DeleteRandomEdge(g, rng);
      }
      if (g->Degree(vi) > 0) label[vi] = main_label;
    }
  }

  // Fallback: attach whatever is still disconnected without deleting edges,
  // so the output is guaranteed connected (slight edge surplus; see
  // DESIGN.md deviations).
  uint32_t num_components = 0;
  std::vector<uint32_t> label = graph::ConnectedComponents(*g,
                                                           &num_components);
  if (num_components <= 1) return;
  const uint32_t main_label = MainComponentLabel(label, num_components);
  for (graph::NodeId vi = 0; vi < n; ++vi) {
    if (label[vi] == main_label) continue;
    for (int attempt = 0; attempt < 10000; ++attempt) {
      auto vk = static_cast<graph::NodeId>(pi.Sample(rng));
      if (vk != vi && label[vk] == main_label && g->AddEdge(vi, vk)) {
        if (added != nullptr) added->emplace_back(vi, vk);
        label[vi] = main_label;
        break;
      }
    }
  }
}

}  // namespace agmdp::models
