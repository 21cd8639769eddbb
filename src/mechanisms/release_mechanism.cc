#include "src/mechanisms/release_mechanism.h"

#include <cmath>

#include "src/mechanisms/agm_mechanism.h"
#include "src/mechanisms/community_dp.h"
#include "src/mechanisms/kanon_baseline.h"

namespace agmdp::mechanisms {

using pipeline::InvalidArtifact;

namespace {

const std::vector<MechanismSpec>& Registry() {
  static const std::vector<MechanismSpec>* registry =
      new std::vector<MechanismSpec>{AgmMechanism(), CommunityDpMechanism(),
                                     KanonBaselineMechanism()};
  return *registry;
}

}  // namespace

const MechanismSpec* FindMechanism(const std::string& name) {
  for (const MechanismSpec& spec : Registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> MechanismNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const MechanismSpec& spec : Registry()) names.push_back(spec.name);
  return names;
}

std::string MechanismNameList() {
  std::string out;
  for (const MechanismSpec& spec : Registry()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

util::Status ValidateBlockPayload(const pipeline::ReleaseArtifact& artifact) {
  const pipeline::MechanismPayload& p = artifact.payload;
  const std::string& tag = artifact.mechanism;
  for (uint32_t block : p.node_blocks) {
    if (block >= p.num_blocks) {
      return InvalidArtifact(tag + " node_blocks entry out of range");
    }
  }
  if (artifact.params.w < 0 || artifact.params.w > 20) {
    return InvalidArtifact(tag + " payload needs 0 <= w <= 20");
  }
  const size_t configs = size_t{1} << artifact.params.w;
  if (p.block_attr.size() != size_t{p.num_blocks} * configs) {
    return InvalidArtifact(tag + " block_attr must be num_blocks * 2^w");
  }
  for (size_t b = 0; b < p.num_blocks; ++b) {
    double row_sum = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      const double mass = p.block_attr[b * configs + y];
      if (!std::isfinite(mass) || mass < 0.0) {
        return InvalidArtifact(tag +
                               " block_attr must be finite and non-negative");
      }
      row_sum += mass;
    }
    if (row_sum <= 0.0) {
      return InvalidArtifact(tag + " block_attr row " + std::to_string(b) +
                             " has no mass");
    }
  }
  return util::Status::OK();
}

}  // namespace agmdp::mechanisms
