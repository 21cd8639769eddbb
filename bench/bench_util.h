// Shared plumbing for the paper-artifact bench binaries: flag conventions,
// dataset instantiation with default scales, and tiny table formatting.
//
// Common flags (all binaries):
//   --scale=F    node-count scale for every dataset (default: per-dataset,
//                chosen so the whole suite runs in minutes)
//   --full       paper-scale datasets (scale = 1.0)
//   --trials=N   trials per cell (default varies per bench)
//   --seed=S     base RNG seed
//   --dataset=D  restrict to one dataset (lastfm|petster|epinions|pokec)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/datasets/datasets.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/util/check.h"
#include "src/util/flags.h"

namespace agmdp::bench {

/// Default scales keep the suite laptop-fast while preserving each
/// dataset's relative size ordering (the size -> robustness trend of the
/// paper's Tables 2-5 depends only on that ordering).
inline double DefaultScale(datasets::DatasetId id) {
  switch (id) {
    case datasets::DatasetId::kLastFm:
    case datasets::DatasetId::kPetster:
      return 1.0;
    case datasets::DatasetId::kEpinions:
      return 0.2;
    case datasets::DatasetId::kPokec:
      return 0.02;
  }
  return 1.0;
}

inline double ScaleFor(datasets::DatasetId id, const util::Flags& flags) {
  if (flags.GetBool("full", false)) return 1.0;
  return flags.GetDouble("scale", DefaultScale(id));
}

inline std::vector<datasets::DatasetId> SelectedDatasets(
    const util::Flags& flags) {
  if (flags.Has("dataset")) {
    return {datasets::DatasetByName(flags.GetString("dataset", "lastfm"))};
  }
  return datasets::AllDatasets();
}

/// Typed variant of SelectedDatasets: an unknown --dataset name is an
/// InvalidArgument listing the registry, not an abort.
inline util::Result<std::vector<datasets::DatasetId>> TrySelectedDatasets(
    const util::Flags& flags) {
  if (!flags.Has("dataset")) return datasets::AllDatasets();
  const std::string name = flags.GetString("dataset", "");
  std::string known;
  for (datasets::DatasetId id : datasets::AllDatasets()) {
    if (datasets::PaperSpec(id).name == name) {
      return std::vector<datasets::DatasetId>{id};
    }
    if (!known.empty()) known += "|";
    known += datasets::PaperSpec(id).name;
  }
  return util::Status::InvalidArgument("--dataset='" + name +
                                       "' is not one of " + known);
}

/// Typed variant of LoadDataset: generation failures (absent dataset, bad
/// scale) surface as the generator's Status instead of aborting the bench.
inline util::Result<graph::AttributedGraph> TryLoadDataset(
    datasets::DatasetId id, const util::Flags& flags) {
  const double scale = ScaleFor(id, flags);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 20160626));
  auto g = datasets::GenerateDataset(id, scale, seed);
  if (!g.ok()) return g.status();
  std::printf("# dataset %s scale=%.3g: n=%u m=%llu\n",
              datasets::PaperSpec(id).name.c_str(), scale,
              g.value().num_nodes(),
              static_cast<unsigned long long>(g.value().num_edges()));
  return g;
}

/// TryLoadDataset that aborts the bench on failure.
inline graph::AttributedGraph LoadDataset(datasets::DatasetId id,
                                          const util::Flags& flags) {
  auto g = TryLoadDataset(id, flags);
  AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
  return std::move(g).value();
}

/// LoadDataset as the snapshot every fit and metric reads.
inline graph::AttributedCsrGraph LoadSnapshot(datasets::DatasetId id,
                                              const util::Flags& flags) {
  return graph::AttributedCsrGraph::FromGraph(LoadDataset(id, flags));
}

inline void PrintRule() {
  std::printf(
      "#-----------------------------------------------------------------"
      "---------\n");
}

}  // namespace agmdp::bench
