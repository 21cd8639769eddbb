// Edge acceptance filters: how AGM injects attribute-correlation
// accept/reject decisions into the structural models (Section 4).
//
// A filter sees a proposed edge {u, v} and returns whether to keep it; AGM's
// filter accepts with probability A(F_w(x_u, x_v)). A default-constructed
// filter accepts everything (plain structural sampling).
//
// EdgeFilter is a concrete class, not a std::function. Its table mode
// holds the per-node attribute configurations as a flat array indexed by
// node id and the acceptance probabilities as a dense 2^w x 2^w matrix
// indexed by the endpoint configurations, so a decision is two array
// loads and a coin. The rewiring loops of TriCycLe and TCL evaluate it
// once per proposal; the pi x pi proposal loops (FCL, the registry
// top-up) instead read the table through models::CandidateKernel, which
// draws the proposals the filter would accept directly
// (proposal_kernel.h). Arbitrary predicates (tests, registry top-up
// models) still plug in through the custom mode, which keeps the old
// std::function behavior.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/graph/attribute_encoding.h"
#include "src/graph/graph.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace agmdp::models {

/// \brief Per-proposal edge accept/reject decision.
class EdgeFilter {
 public:
  using Predicate =
      std::function<bool(graph::NodeId u, graph::NodeId v, util::Rng& rng)>;

  /// Pass-through: accepts every edge without consuming randomness.
  EdgeFilter() = default;

  /// Custom predicate — any callable (u, v, rng) -> bool, so
  /// `options.filter = lambda` keeps working. An empty std::function
  /// behaves like the pass-through filter.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EdgeFilter> &&
                std::is_constructible_v<Predicate, F&&>>>
  EdgeFilter(F&& predicate)  // NOLINT(google-explicit-constructor)
      : predicate_(std::forward<F>(predicate)) {}

  /// AGM's acceptance filter: accept {u, v} with probability
  /// A(F_w(x_u, x_v)). `node_configs` holds x (indexed by node id) and
  /// `acceptance_by_config` holds A (indexed by the triangular edge-config
  /// index, length NumEdgeConfigs(w)); both are expanded into the flat
  /// layout described above. The table is shared, not copied, when the same
  /// filter is handed to seed + rewiring passes.
  static EdgeFilter FromAcceptanceTable(
      std::vector<graph::AttrConfig> node_configs,
      const std::vector<double>& acceptance_by_config, int w) {
    const uint32_t k = graph::NumNodeConfigs(w);
    AGMDP_CHECK(acceptance_by_config.size() == graph::NumEdgeConfigs(w));
    auto table = std::make_shared<Table>();
    table->k = k;
    table->node_configs = std::move(node_configs);
    table->accept.resize(static_cast<size_t>(k) * k);
    for (uint32_t a = 0; a < k; ++a) {
      for (uint32_t b = a; b < k; ++b) {
        const double p = acceptance_by_config[graph::EncodeEdgeConfig(a, b, w)];
        table->accept[static_cast<size_t>(a) * k + b] = p;
        table->accept[static_cast<size_t>(b) * k + a] = p;
      }
    }
    EdgeFilter filter;
    filter.table_ = std::move(table);
    return filter;
  }

  /// True when the filter can reject edges (the pass-through state answers
  /// false, letting callers skip the accept call entirely).
  bool active() const { return table_ != nullptr || bool(predicate_); }
  explicit operator bool() const { return active(); }

  /// The table mode's arrays as plain pointers, for the candidate kernel
  /// that stratifies proposals by them. Empty (false) outside the table
  /// mode; valid while the filter lives.
  struct TableView {
    const graph::AttrConfig* node_configs = nullptr;  // x, by node id
    size_t num_nodes = 0;                             // length of x
    const double* accept = nullptr;                   // A, dense k*k
    size_t k = 0;

    explicit operator bool() const { return accept != nullptr; }
  };

  TableView table_view() const {
    if (table_ == nullptr) return {};
    return {table_->node_configs.data(), table_->node_configs.size(),
            table_->accept.data(), table_->k};
  }

  /// Accept/reject the proposed edge {u, v}. The table path consumes one
  /// Bernoulli draw from `rng` unless the probability is exactly 0 or 1
  /// (Rng::Bernoulli's own shortcut), a pure function of (x_u, x_v).
  bool Accept(graph::NodeId u, graph::NodeId v, util::Rng& rng) const {
    if (table_ != nullptr) {
      return rng.Bernoulli(
          table_->accept[static_cast<size_t>(table_->node_configs[u]) *
                             table_->k +
                         table_->node_configs[v]]);
    }
    if (predicate_) return predicate_(u, v, rng);
    return true;
  }

 private:
  struct Table {
    uint32_t k = 0;
    std::vector<graph::AttrConfig> node_configs;  // x, indexed by node id
    std::vector<double> accept;                   // A, dense k*k row-major
  };

  std::shared_ptr<const Table> table_;
  Predicate predicate_;
};

inline bool AcceptEdge(const EdgeFilter& filter, graph::NodeId u,
                       graph::NodeId v, util::Rng& rng) {
  return filter.Accept(u, v, rng);
}

}  // namespace agmdp::models
