#include "src/models/proposal_kernel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace agmdp::models {

namespace {

// A class's pairs of distinct members carry Pi^2 - S of pi-mass. Below this
// share of Pi^2 the difference is rounding (one dominant member), and
// drawing the class pair would leave the u == v redraw loop nearly
// unbounded, so it counts as zero.
constexpr double kSelfPairTolerance = 1e-12;

ClassWeights BuildClassWeights(std::shared_ptr<const AttributeClasses> classes,
                               const std::vector<double>& weights) {
  ClassWeights out;
  const size_t k = classes->size();
  out.mass.assign(k, 0.0);
  out.self_mass.assign(k, 0.0);
  out.buckets.resize(classes->members.size());
  std::vector<double> class_weights;
  std::vector<util::AliasBucket> table;
  for (size_t c = 0; c < k; ++c) {
    const uint32_t first = classes->begin[c];
    const graph::NodeId* members = classes->members.data() + first;
    const uint32_t size = classes->begin[c + 1] - first;
    class_weights.clear();
    for (uint32_t i = 0; i < size; ++i) {
      const double w = weights[members[i]];
      class_weights.push_back(w);
      out.mass[c] += w;
      out.self_mass[c] += w * w;
    }
    if (out.mass[c] <= 0.0) continue;
    table.resize(size);
    util::BuildAliasBuckets(class_weights.data(), size, table.data());
    for (uint32_t i = 0; i < size; ++i) {
      out.buckets[first + i] = {table[i].prob, members[i],
                                members[table[i].alias]};
    }
  }
  out.classes = std::move(classes);
  return out;
}

}  // namespace

AttributeClasses AttributeClasses::Build(const graph::AttrConfig* configs,
                                         size_t n, size_t k) {
  std::vector<uint32_t> count(k, 0);
  for (size_t u = 0; u < n; ++u) {
    AGMDP_CHECK(configs[u] < k);
    ++count[configs[u]];
  }
  AttributeClasses out;
  std::vector<uint32_t> class_of(k, 0);
  out.begin.push_back(0);
  for (size_t x = 0; x < k; ++x) {
    if (count[x] == 0) continue;
    class_of[x] = static_cast<uint32_t>(out.config.size());
    out.config.push_back(static_cast<graph::AttrConfig>(x));
    out.begin.push_back(out.begin.back() + count[x]);
  }
  out.members.resize(n);
  std::vector<uint32_t> next(out.begin.begin(), out.begin.end() - 1);
  for (size_t u = 0; u < n; ++u) {
    out.members[next[class_of[configs[u]]]++] = static_cast<graph::NodeId>(u);
  }
  return out;
}

util::Result<PiTables> PiTables::Build(const std::vector<double>& weights,
                                       const EdgeFilter& filter) {
  // The form is set by which member is engaged; Reweighted fills it.
  PiTables form;
  if (const EdgeFilter::TableView table = filter.table_view()) {
    AGMDP_CHECK(table.num_nodes >= weights.size());
    form.classes_.emplace();
    form.classes_->classes = std::make_shared<const AttributeClasses>(
        AttributeClasses::Build(table.node_configs, weights.size(), table.k));
  }
  return form.Reweighted(weights);
}

util::Result<PiTables> PiTables::Reweighted(
    const std::vector<double>& weights) const {
  PiTables out;
  if (!classes_) {
    auto nodes = util::AliasSampler::Build(weights);
    if (!nodes.ok()) return nodes.status();
    out.nodes_ = std::move(nodes).value();
    return out;
  }
  if (auto st = util::CheckAliasWeights(weights); !st.ok()) return st;
  AGMDP_CHECK(weights.size() == classes_->classes->members.size());
  out.classes_ = BuildClassWeights(classes_->classes, weights);
  return out;
}

CandidateKernel::CandidateKernel(const PiTables& pi,
                                 const EdgeFilter& filter) {
  const EdgeFilter::TableView table = filter.table_view();
  if (!table) {
    AGMDP_CHECK(pi.nodes_.has_value());
    pi_.pi = &*pi.nodes_;
    pi_.filter = &filter;
    return;
  }
  AGMDP_CHECK(pi.classes_.has_value());
  const ClassWeights& weights = *pi.classes_;
  const AttributeClasses& classes = *weights.classes;
  const size_t k = classes.size();
  // Class indices are packed 16 bits apiece into class_pairs.
  AGMDP_CHECK(k <= 0x10000);
  std::vector<double> m(k * k, 0.0);
  table_.class_pairs.resize(k * k);
  double total_mass = 0.0;
  double rate = 0.0;
  for (size_t a = 0; a < k; ++a) {
    total_mass += weights.mass[a];
    for (size_t b = 0; b < k; ++b) {
      // Rng::Bernoulli's reading of A: at most 1, and nothing below 0.
      const double p =
          table.accept[static_cast<size_t>(classes.config[a]) * table.k +
                       classes.config[b]];
      const double accept = p > 0.0 ? std::min(p, 1.0) : 0.0;
      double pairs = weights.mass[a] * weights.mass[b];
      if (a == b) {
        pairs -= weights.self_mass[a];
        if (pairs < kSelfPairTolerance * weights.mass[a] * weights.mass[a]) {
          pairs = 0.0;
        }
      }
      m[a * k + b] = accept * pairs;
      rate += m[a * k + b];
      table_.class_pairs[a * k + b] = static_cast<uint32_t>(a << 16 | b);
    }
  }
  table_.classes = &weights;
  if (rate > 0.0) {
    auto pairs = util::AliasSampler::Build(m);
    AGMDP_CHECK_OK(pairs.status());
    table_.pairs = std::move(pairs).value();
    const double q = std::min(rate / (total_mass * total_mass), 1.0);
    table_.log1m_q = q < 1.0 ? std::log1p(-q)
                             : -std::numeric_limits<double>::infinity();
  }
}

}  // namespace agmdp::models
