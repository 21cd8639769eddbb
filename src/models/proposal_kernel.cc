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

// Fills `out` (reusing its storage) with pi within each class of
// `classes`. Each member's weight is read once: the mass pass stages it in
// its bucket's `prob` field, where the alias build reads it back, and
// checks it against the alias weight contract on the way. A vector that
// breaks the contract gets util::CheckAliasWeights's status.
util::Status BuildClassWeights(std::shared_ptr<const AttributeClasses> classes,
                               const std::vector<double>& weights,
                               std::vector<uint32_t>& worklist,
                               ClassWeights& out) {
  const size_t k = classes->size();
  out.mass.assign(k, 0.0);
  out.self_mass.assign(k, 0.0);
  out.buckets.resize(classes->members.size());
  bool positive = false;
  for (size_t c = 0; c < k; ++c) {
    const uint32_t first = classes->begin[c];
    const graph::NodeId* members = classes->members.data() + first;
    const uint32_t size = classes->begin[c + 1] - first;
    ClassWeights::Bucket* buckets = out.buckets.data() + first;
    bool valid = true;
    for (uint32_t i = 0; i < size; ++i) {
      const double w = weights[members[i]];
      valid &= (w >= 0.0) & (w <= std::numeric_limits<double>::max());
      buckets[i].prob = w;
      out.mass[c] += w;
      out.self_mass[c] += w * w;
    }
    if (!valid) return util::CheckAliasWeights(weights);
    if (out.mass[c] <= 0.0) {
      std::fill(buckets, buckets + size, ClassWeights::Bucket{});
      continue;
    }
    positive = true;
    // Built over member positions, then the positions become node ids.
    util::BuildAliasBuckets([&](size_t i) { return buckets[i].prob; }, size,
                            out.mass[c], buckets, worklist);
    for (uint32_t i = 0; i < size; ++i) {
      buckets[i].node = members[i];
      buckets[i].alias = members[buckets[i].alias];
    }
  }
  if (!positive) return util::CheckAliasWeights(weights);
  out.classes = std::move(classes);
  return util::Status::OK();
}

}  // namespace

CandidateGap::CandidateGap(double q)
    : log1m_q(q < 1.0 ? std::log1p(-q)
                      : -std::numeric_limits<double>::infinity()) {
  if (q < kMinFastRate) return;
  // Why U <= fast_below bounds the gap: 1 - U is exact, and when
  // 1 - fast_below is within a factor 1 - 2^-12 of (1 - q)^h, then
  // log(1 - U) >= h log1p(-q) - 2^-11 and the ratio is below h + 1, so the
  // gap is at most 1 + h <= 2h. Otherwise the rounding of fast_below
  // (under 2^-52) outweighs (1 - q)^h, which is then below 2^-41, so
  // h |log1p(-q)| > 28.4; every U is at most 1 - 2^-53, so the ratio is
  // below 36.8 / |log1p(-q)| < 1.3 h and the gap at most 1 + 1.3h <= 2h.
  const double h = std::max(2.0, std::ceil(3.0 / q));
  bound = 2 * static_cast<uint64_t>(h);
  fast_below = -std::expm1(h * log1m_q);
  // The largest U at or below the threshold (UniformDouble draws multiples
  // of 2^-53) stays within the bound.
  const double largest =
      std::min(std::floor(fast_below * 0x1p53), 0x1p53 - 1) * 0x1p-53;
  AGMDP_CHECK(Exact(largest) <= static_cast<double>(bound));
}

bool CandidateKernel::TableArm::ChargeExact(double uniform,
                                            PassBudget& budget) const {
  const double exact = gap.Exact(uniform);
  // Checked against 2^64 as a double before the cast, so a huge gap (tiny
  // q) never overflows it; such a gap exceeds any budget.
  if (!(exact < 0x1p64)) return false;
  const auto proposals = static_cast<uint64_t>(exact);
  if (proposals > budget.left - budget.charged) {
    // The budget could bind: settle the pending candidates' exact gaps by
    // replaying their draws.
    util::Rng replay = budget.replay;
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    for (; budget.pending > 0; --budget.pending) {
      budget.left -=
          static_cast<uint64_t>(gap.Exact(replay.UniformDouble()));
      DrawPair(replay, u, v);
    }
    budget.charged = 0;
    if (proposals > budget.left) return false;
  }
  if (budget.pending == 0) {
    budget.left -= proposals;
  } else {
    budget.charged += proposals;
    ++budget.pending;
  }
  return true;
}

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
                                       const EdgeFilter& filter,
                                       std::vector<uint32_t>* worklist) {
  // The form is set by which member is engaged; ReweightInto fills it.
  PiTables form;
  if (const EdgeFilter::TableView table = filter.table_view()) {
    AGMDP_CHECK(table.num_nodes >= weights.size());
    form.classes_.emplace();
    form.classes_->classes = std::make_shared<const AttributeClasses>(
        AttributeClasses::Build(table.node_configs, weights.size(), table.k));
  }
  std::vector<uint32_t> local;
  PiTables out;
  const util::Status built = form.ReweightInto(
      weights, worklist != nullptr ? *worklist : local, out);
  if (!built.ok()) return built;
  return out;
}

util::Status PiTables::ReweightInto(const std::vector<double>& weights,
                                    std::vector<uint32_t>& worklist,
                                    PiTables& out) const {
  out.nodes_.reset();
  if (!classes_) {
    out.classes_.reset();
    auto nodes = util::AliasSampler::Build(weights);
    if (!nodes.ok()) return nodes.status();
    out.nodes_ = std::move(nodes).value();
    return util::Status::OK();
  }
  AGMDP_CHECK(weights.size() == classes_->classes->members.size());
  if (!out.classes_) out.classes_.emplace();
  const util::Status built =
      BuildClassWeights(classes_->classes, weights, worklist, *out.classes_);
  // The build finds a bad weight partway through, after it has overwritten
  // some classes: drop the half-built table rather than leave it readable.
  if (!built.ok()) out.classes_.reset();
  return built;
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
    table_.gap = CandidateGap(std::min(rate / (total_mass * total_mass), 1.0));
  }
}

}  // namespace agmdp::models
