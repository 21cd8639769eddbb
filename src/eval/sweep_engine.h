// Multi-scenario sweep engine: runs the private release pipeline over a
// (dataset × mechanism × model × epsilon) grid with repeated trials per
// cell, evaluates every release with EvaluateRelease, and aggregates
// per-cell mean/stddev for every metric — the machinery behind the paper's
// Tables 2-5 / Figures 1-5 experiment grids and the `agmdp sweep`
// subcommand. The mechanism axis expands to spec.models for "agm" and to
// a single cell per epsilon for every other registered release mechanism,
// so competing publication schemes rank on the same metrics in one grid.
//
// Determinism contract: cell (index c, repeat r) draws exclusively from
// util::Rng::Substream(spec.seed, c * spec.repeats + r), a pure function of
// the spec — so results are bitwise-identical regardless of how cells are
// scheduled onto worker threads, and SweepResultToJson(..., false) is
// byte-identical across runs with the same spec and inputs. With
// `reuse_fit` the cell's single fit draws from Substream(spec.seed,
// c * spec.repeats) and the repeats are served by a
// pipeline::ReleaseEngine from a request family keyed off that stream —
// still a pure function of the spec, at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dp/privacy_budget.h"
#include "src/eval/aggregate.h"
#include "src/graph/csr.h"
#include "src/pipeline/pipeline_config.h"
#include "src/util/status.h"

namespace agmdp::eval {

/// \brief One scenario grid: the cross product of datasets, models and
/// epsilons, with `repeats` fully accounted releases per cell.
struct SweepSpec {
  /// Dataset stand-ins to generate (names from datasets::PaperSpec). Used
  /// by RunSweepOnDatasets; RunSweep takes explicit inputs instead.
  std::vector<std::string> datasets;
  /// Node-count scale for the generated stand-ins (1.0 = paper size).
  double dataset_scale = 0.1;

  /// Release mechanisms by registry name (mechanisms::FindMechanism). The
  /// "agm" entry expands over `models`; every other mechanism contributes
  /// one cell per (dataset, epsilon). The default grid is AGM-only, which
  /// reproduces the pre-mechanism sweep exactly (same cells, same
  /// substream indices).
  std::vector<std::string> mechanisms = {"agm"};
  /// Structural models by registry name (consulted for "agm" cells only).
  std::vector<std::string> models = {"fcl", "tricycle"};
  /// Global epsilon per release.
  std::vector<double> epsilons = {0.6931471805599453};
  /// Releases per cell (>= 1).
  int repeats = 3;

  /// Base seed of the per-cell substream family (and of dataset generation).
  uint64_t seed = 1;
  /// Worker threads across cells; 0 = hardware concurrency.
  int threads = 1;

  /// Per-release sampler settings (forwarded to PipelineConfig).
  int sampler_threads = 1;
  int acceptance_iterations = 2;
  /// Fit-once / sample-many cells: fit the cell's parameters once (one
  /// budget spend per cell) and draw the repeats from a
  /// pipeline::ReleaseEngine over the resulting artifact. The default
  /// refits per repeat — the paper's protocol, where every repeat is an
  /// independent fully-accounted release. With reuse_fit the repeats share
  /// one fit's noise draw, so per-cell stddevs reflect sampler variance
  /// only; in exchange each cell costs one fit and spends epsilon once.
  bool reuse_fit = false;
  /// Worker threads inside the CsrGraph analytics kernels when profiling
  /// inputs and evaluating releases (<= 0 = hardware concurrency). Results
  /// are bitwise-identical at any value.
  int analytics_threads = 1;
  /// Optional custom budget split; zero-total selects the model default.
  dp::BudgetSplit split;
};

/// A named evaluation input: the snapshot every cell fits from and
/// profiles against.
struct SweepInput {
  std::string name;
  graph::AttributedCsrGraph graph;
  /// Optional precomputed profile of `graph` (callers that already
  /// profiled the original — e.g. the table harness — pass it here);
  /// RunSweep profiles the graph itself when absent.
  std::shared_ptr<const ReferenceProfile> reference;
};

/// \brief Aggregated result of one (dataset, mechanism, model, epsilon)
/// cell.
struct SweepCell {
  std::string dataset;
  /// Release mechanism the cell ran under ("agm", "community_dp", ...).
  std::string mechanism;
  /// Structural model for "agm" cells; equals `mechanism` otherwise.
  std::string model;
  double epsilon = 0.0;
  int repeats = 0;
  /// Mean/stddev per metric, in UtilityReport::Flatten() order. Empty when
  /// the cell failed.
  std::vector<MetricStats> metrics;
  /// Mean total epsilon actually spent per fit (equals epsilon under
  /// default splits). With reuse_fit the cell performs exactly one fit, so
  /// this is that fit's spend.
  double epsilon_spent = 0.0;
  /// Number of parameter fits (budget spends) the cell performed:
  /// `repeats` by default, exactly 1 with reuse_fit.
  int fits = 0;
  /// Mean wall-clock seconds per release (a timing field).
  double seconds_mean = 0.0;
  /// Non-empty when the release pipeline failed for this cell; metrics are
  /// then empty and the remaining repeats were skipped.
  std::string error;
};

struct SweepResult {
  /// The spec the sweep ran under (inputs recorded by name).
  SweepSpec spec;
  std::vector<std::string> input_names;
  /// Cells in grid order: datasets outermost, then mechanisms (each "agm"
  /// entry expanding over models), then epsilons.
  std::vector<SweepCell> cells;
  /// Wall-clock of the whole sweep (a timing field).
  double total_seconds = 0.0;
};

/// Runs the sweep over explicit inputs. Fails fast on an invalid spec
/// (empty grid axes, repeats < 1, unknown model, non-positive epsilon);
/// per-cell pipeline failures are recorded in the cell, not fatal.
util::Result<SweepResult> RunSweep(const std::vector<SweepInput>& inputs,
                                   const SweepSpec& spec);

/// Generates the stand-in datasets named in `spec.datasets` (at
/// `spec.dataset_scale`, seeded from `spec.seed`) and runs the sweep over
/// them. Fails on an unknown dataset name.
util::Result<SweepResult> RunSweepOnDatasets(const SweepSpec& spec);

/// Serializes a sweep result as the BENCH_sweep.json document (schema
/// "agmdp.sweep.v4"; see DESIGN.md). Includes a "mechanism_summary"
/// ranking: per mechanism, the mean composite utility score (mean of
/// degree_ks, degree_hellinger, clustering_ccdf_distance and
/// theta_f_hellinger cell means; lower is better) over its successful
/// cells, sorted best first. With `include_timing` false the timing fields
/// (total_seconds, per-cell seconds_mean) are omitted and the document is
/// byte-identical across runs with the same spec and inputs.
std::string SweepResultToJson(const SweepResult& result,
                              bool include_timing = true);

}  // namespace agmdp::eval
