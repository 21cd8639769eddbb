// Edge age bookkeeping for the rewiring models (TCL, TriCycLe).
//
// Both models repeatedly delete the *oldest* edge in the evolving graph, and
// TriCycLe's undo step re-inserts a deleted edge as the *youngest* (the
// paper stresses this detail — without it Algorithm 1 can live-lock). The
// queue is a plain FIFO holding each live edge exactly once: it is built
// from the graph's history with only live edges, each at its latest
// insertion (FromHistory), and the rewiring loops remove an edge only by
// popping it and push only edges that are absent or were just popped. So
// every pop yields a live edge, with no liveness check or per-edge index.
#pragma once

#include <deque>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/flat_edge_set.h"

namespace agmdp::models {

/// \brief FIFO of a graph's live edges, oldest first.
class EdgeAgeQueue {
 public:
  /// The queue of `g`'s live edges from the history that built `g`:
  /// `seed_order` (distinct edges in insertion order), then `added` (later
  /// insertions in order, which may repeat each other or re-insert seed
  /// edges deleted in between). An edge is kept only if it is live in `g`,
  /// and only at its latest insertion; deleted edges are dropped.
  static EdgeAgeQueue FromHistory(const graph::Graph& g,
                                  const std::vector<graph::Edge>& seed_order,
                                  const std::vector<graph::Edge>& added) {
    // Scanned newest first and pushed to the front, so each edge's first
    // hit is its latest insertion and the queue ends up oldest first.
    util::FlatEdgeSet in_added(added.size());
    EdgeAgeQueue queue;
    for (auto it = added.rbegin(); it != added.rend(); ++it) {
      if (in_added.Insert(graph::PackEdge(it->u, it->v)) &&
          g.HasEdge(it->u, it->v)) {
        queue.queue_.push_front(*it);
      }
    }
    for (auto it = seed_order.rbegin(); it != seed_order.rend(); ++it) {
      if (!in_added.Contains(graph::PackEdge(it->u, it->v)) &&
          g.HasEdge(it->u, it->v)) {
        queue.queue_.push_front(*it);
      }
    }
    return queue;
  }

  /// Registers `e` as the youngest edge (fresh insertion or undo).
  void Push(const graph::Edge& e) { queue_.push_back(e); }

  /// Pops and returns the oldest edge; false if the queue is empty.
  bool PopOldest(graph::Edge* out) {
    if (queue_.empty()) return false;
    *out = queue_.front();
    queue_.pop_front();
    return true;
  }

  size_t size() const { return queue_.size(); }

 private:
  std::deque<graph::Edge> queue_;
};

}  // namespace agmdp::models
