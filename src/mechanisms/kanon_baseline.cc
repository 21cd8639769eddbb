#include "src/mechanisms/kanon_baseline.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "src/models/chung_lu.h"
#include "src/util/alias_sampler.h"

namespace agmdp::mechanisms {

namespace {

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument("kanon_baseline: " + what);
}

uint32_t ResolveK(uint32_t configured, double epsilon, graph::NodeId n) {
  uint64_t k = configured;
  if (k == 0) {
    k = static_cast<uint64_t>(std::max<int64_t>(
        2, std::llround(2.0 / epsilon)));
  }
  return static_cast<uint32_t>(std::min<uint64_t>(k, n));
}

class KanonSampler final : public ArtifactSampler {
 public:
  static util::Result<std::shared_ptr<const ArtifactSampler>> Build(
      const pipeline::ReleaseArtifact& artifact) {
    auto sampler = std::make_shared<KanonSampler>();
    const pipeline::MechanismPayload& payload = artifact.payload;
    sampler->w_ = artifact.params.w;
    sampler->degrees_ = artifact.params.degree_sequence;
    sampler->node_blocks_ = payload.node_blocks;
    const size_t configs = graph::NumNodeConfigs(sampler->w_);
    sampler->attr_samplers_.reserve(payload.num_blocks);
    for (size_t b = 0; b < payload.num_blocks; ++b) {
      std::vector<double> row(
          payload.block_attr.begin() +
              static_cast<std::ptrdiff_t>(b * configs),
          payload.block_attr.begin() +
              static_cast<std::ptrdiff_t>((b + 1) * configs));
      auto alias = util::AliasSampler::Build(row);
      if (!alias.ok()) return alias.status();
      sampler->attr_samplers_.push_back(std::move(alias).value());
    }
    return std::shared_ptr<const ArtifactSampler>(std::move(sampler));
  }

  util::Result<graph::AttributedGraph> Sample(util::Rng& rng) const override {
    // Attributes first, structure second — a fixed draw order so the
    // sample is a pure function of the stream.
    std::vector<graph::AttrConfig> attrs(degrees_.size());
    for (size_t v = 0; v < attrs.size(); ++v) {
      attrs[v] = static_cast<graph::AttrConfig>(
          attr_samplers_[node_blocks_[v]].Sample(rng));
    }
    auto structure = models::FastChungLu(degrees_, rng);
    if (!structure.ok()) return structure.status();
    graph::AttributedGraph out(std::move(structure).value(), w_);
    if (auto st = out.SetAttributes(std::move(attrs)); !st.ok()) return st;
    return out;
  }

  uint64_t ApproxBytes() const override {
    return degrees_.size() * sizeof(uint32_t) +
           node_blocks_.size() * sizeof(uint32_t) +
           attr_samplers_.size() * (size_t{1} << w_) * 16 +
           sizeof(KanonSampler);
  }

  int w_ = 0;
  std::vector<uint32_t> degrees_;
  std::vector<uint32_t> node_blocks_;
  std::vector<util::AliasSampler> attr_samplers_;
};

}  // namespace

util::Result<pipeline::ReleaseArtifact> FitKanonBaseline(
    const graph::AttributedCsrGraph& input,
    const pipeline::PipelineConfig& config, util::Rng& rng) {
  (void)rng;  // Syntactic anonymization is deterministic: no noise drawn.
  const graph::NodeId n = input.num_nodes();
  if (n < 2) return Invalid("input graph needs at least 2 nodes");
  const int w = input.num_attributes;
  const size_t configs = graph::NumNodeConfigs(w);
  const uint32_t k = ResolveK(config.k_anonymity, config.epsilon, n);

  // Degree k-anonymization: group the degree-sorted nodes k at a time and
  // publish each group's median. Sorting is stable by node index so the
  // grouping — hence the whole fit — is deterministic.
  const std::vector<uint32_t>& degrees = input.structure.degrees();
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&degrees](graph::NodeId a, graph::NodeId b) {
                     return degrees[a] > degrees[b];
                   });
  const size_t num_groups = std::max<size_t>(1, n / k);
  std::vector<uint32_t> anonymized(n, 0);
  std::vector<uint32_t> node_blocks(n, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t start = g * k;
    const size_t end = (g + 1 == num_groups) ? n : (g + 1) * k;
    const uint32_t median = degrees[order[start + (end - start) / 2]];
    for (size_t i = start; i < end; ++i) {
      anonymized[order[i]] = median;
      node_blocks[order[i]] = static_cast<uint32_t>(g);
    }
  }

  // t-closeness: blend each group's attribute distribution q toward the
  // global one p just enough that TV(q', p) <= t. TV scales linearly under
  // the blend q' = p + lambda (q - p), so lambda = min(1, t / TV(q, p)).
  std::vector<double> global(configs, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) global[input.attribute(v)] += 1.0;
  for (double& mass : global) mass /= static_cast<double>(n);
  std::vector<double> block_attr(num_groups * configs, 0.0);
  std::vector<size_t> group_sizes(num_groups, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    block_attr[size_t{node_blocks[v]} * configs + input.attribute(v)] += 1.0;
    ++group_sizes[node_blocks[v]];
  }
  for (size_t g = 0; g < num_groups; ++g) {
    double tv = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      double& mass = block_attr[g * configs + y];
      mass /= static_cast<double>(group_sizes[g]);
      tv += std::fabs(mass - global[y]);
    }
    tv *= 0.5;
    const double lambda =
        tv > config.t_closeness && tv > 0.0 ? config.t_closeness / tv : 1.0;
    for (size_t y = 0; y < configs; ++y) {
      double& mass = block_attr[g * configs + y];
      mass = global[y] + lambda * (mass - global[y]);
      if (mass < 0.0) mass = 0.0;  // guard float dust at tiny masses
    }
  }

  pipeline::ReleaseArtifact artifact =
      pipeline::MakeReleaseArtifact(agm::AgmParams{}, config);
  artifact.mechanism = "kanon_baseline";
  artifact.model = "kanon_baseline";
  artifact.params.w = w;
  artifact.params.degree_sequence = std::move(anonymized);
  artifact.payload.num_blocks = static_cast<uint32_t>(num_groups);
  artifact.payload.node_blocks = std::move(node_blocks);
  artifact.payload.block_attr = std::move(block_attr);
  artifact.payload.k_anonymity = k;
  artifact.payload.t_closeness = config.t_closeness;
  // No accountant ran: budget, spent, and the ledger stay zero/empty, and
  // ValidateReleaseArtifact enforces exactly that for this tag.
  return artifact;
}

util::Result<std::shared_ptr<const ArtifactSampler>> MakeKanonSampler(
    const pipeline::ReleaseArtifact& artifact) {
  if (artifact.mechanism != "kanon_baseline") {
    return Invalid("artifact is tagged '" + artifact.mechanism + "'");
  }
  return KanonSampler::Build(artifact);
}

}  // namespace agmdp::mechanisms
