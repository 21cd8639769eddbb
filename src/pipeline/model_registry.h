// Structural-model registry: the set of models the release pipeline can
// plug into the AGM sampling loop, keyed by name.
//
// Every entry is the same kind of object, an agm::StructuralModel that
// binds the private parameters (degree sequence, optionally a triangle
// target) and the sampler's pool to a per-sample draw through the
// attribute-acceptance filter. The paper's two models are the sharded
// parallel FCL sampler and the TriCycLe rewiring chain; the rest wrap
// their generators. Adding a scenario is one registry entry, with budget
// accounting and CLI/bench wiring inherited for free.
#pragma once

#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"

namespace agmdp::pipeline {

struct StructuralModelSpec {
  std::string name;
  std::string description;
  /// Whether ΘM includes a DP triangle-count target for this model (and
  /// therefore whether the default budget split reserves a share for it).
  bool needs_triangles = false;
  agm::StructuralModel model;
};

/// Returns the spec registered under `name`, or nullptr if unknown.
const StructuralModelSpec* FindStructuralModel(const std::string& name);

/// All registered model names, in registry order.
std::vector<std::string> StructuralModelNames();

/// Comma-separated registry names (for usage/error messages).
std::string StructuralModelNameList();

}  // namespace agmdp::pipeline
