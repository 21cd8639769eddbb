#include "src/eval/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/datasets/datasets.h"
#include "src/graph/graph_source.h"
#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace agmdp::eval {

namespace {

using Clock = std::chrono::steady_clock;

util::Status ValidateSpec(const std::vector<SweepInput>& inputs,
                          const SweepSpec& spec) {
  if (inputs.empty()) {
    return util::Status::InvalidArgument("sweep needs at least one input");
  }
  if (spec.mechanisms.empty()) {
    return util::Status::InvalidArgument(
        "sweep needs at least one mechanism");
  }
  for (const std::string& mechanism : spec.mechanisms) {
    if (mechanisms::FindMechanism(mechanism) == nullptr) {
      return util::Status::InvalidArgument(
          "unknown mechanism '" + mechanism +
          "'; registered: " + mechanisms::MechanismNameList());
    }
  }
  if (spec.models.empty()) {
    return util::Status::InvalidArgument("sweep needs at least one model");
  }
  for (const std::string& model : spec.models) {
    if (pipeline::FindStructuralModel(model) == nullptr) {
      return util::Status::InvalidArgument(
          "unknown model '" + model +
          "'; registered: " + pipeline::StructuralModelNameList());
    }
  }
  if (spec.epsilons.empty()) {
    return util::Status::InvalidArgument("sweep needs at least one epsilon");
  }
  for (double eps : spec.epsilons) {
    if (!(eps > 0.0)) {
      return util::Status::InvalidArgument("epsilon must be positive");
    }
  }
  if (spec.repeats < 1) {
    return util::Status::InvalidArgument("repeats must be >= 1");
  }
  return util::Status::OK();
}

// Fit-once / sample-many cell: one fully accounted fit, repeats served by
// a ReleaseEngine over the resulting artifact. Every draw is a pure
// function of (spec, cell_index), so the contract of RunCell holds.
void RunCellReuseFit(const SweepInput& input,
                     const ReferenceProfile& reference, const SweepSpec& spec,
                     const pipeline::PipelineConfig& config,
                     uint64_t cell_index, SweepCell* cell) {
  const Clock::time_point start = Clock::now();
  util::Rng rng = util::Rng::Substream(
      spec.seed, cell_index * static_cast<uint64_t>(spec.repeats));
  auto artifact = pipeline::FitReleaseArtifact(input.graph, config, rng);
  if (!artifact.ok()) {
    cell->error = artifact.status().ToString();
    return;
  }
  const double spent = artifact.value().epsilon_spent;

  pipeline::EngineOptions engine_options;
  engine_options.threads = spec.sampler_threads;
  // No calibration warm start: every repeat runs the paper's cold
  // acceptance loop at the spec's iteration count, so reuse_fit changes
  // only the fitting protocol, not the sampling one — cells stay
  // comparable against the default refit grid.
  engine_options.calibrate = false;
  engine_options.sample = config.sample;
  auto engine = pipeline::ReleaseEngine::Create(std::move(artifact).value(),
                                                engine_options);
  if (!engine.ok()) {
    cell->error = engine.status().ToString();
    return;
  }

  // The request family is keyed off the cell's fit stream, so it is a pure
  // function of the spec and disjoint from other cells' draws.
  pipeline::SampleRequest base;
  base.seed = rng.Next();
  auto graphs = engine.value()->SampleMany(spec.repeats, base);
  // Stop the clock before evaluation, mirroring the default path (which
  // times RunPrivateRelease only) so seconds_mean stays comparable
  // between the two modes.
  const double cell_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!graphs.ok()) {
    cell->error = graphs.status().ToString();
    return;
  }

  ReportAccumulator accumulator;
  for (const graph::AttributedGraph& g : graphs.value()) {
    accumulator.Add(EvaluateRelease(reference,
                                    graph::AttributedCsrGraph::FromGraph(g),
                                    spec.analytics_threads));
  }
  cell->metrics = accumulator.Stats();
  cell->fits = 1;
  cell->epsilon_spent = spent;
  cell->seconds_mean = cell_seconds / spec.repeats;
}

// Runs all repeats of one cell sequentially (ascending repeat index, so the
// aggregation order — and therefore the floating-point result — does not
// depend on scheduling). The original-side statistics arrive precomputed in
// `reference` — they are shared by every cell of the same input.
void RunCell(const SweepInput& input, const ReferenceProfile& reference,
             const SweepSpec& spec, uint64_t cell_index, SweepCell* cell) {
  pipeline::PipelineConfig config;
  config.epsilon = cell->epsilon;
  config.mechanism = cell->mechanism;
  // Non-AGM mechanisms ignore the structural model; the config keeps its
  // default there so Validate's registry check passes.
  if (cell->mechanism == "agm") config.model = cell->model;
  config.split = spec.split;
  config.sample.threads = spec.sampler_threads;
  config.sample.acceptance_iterations = spec.acceptance_iterations;

  if (spec.reuse_fit) {
    RunCellReuseFit(input, reference, spec, config, cell_index, cell);
    return;
  }

  ReportAccumulator accumulator;
  double seconds_sum = 0.0;
  double spent_sum = 0.0;
  for (int r = 0; r < spec.repeats; ++r) {
    util::Rng rng = util::Rng::Substream(
        spec.seed, cell_index * static_cast<uint64_t>(spec.repeats) +
                       static_cast<uint64_t>(r));
    const Clock::time_point start = Clock::now();
    auto result = pipeline::RunPrivateRelease(input.graph, config, rng);
    seconds_sum +=
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!result.ok()) {
      cell->error = result.status().ToString();
      cell->metrics.clear();
      return;
    }
    spent_sum += result.value().epsilon_spent;
    // One immutable snapshot per release, reused across every metric.
    accumulator.Add(EvaluateRelease(
        reference, graph::AttributedCsrGraph::FromGraph(result.value().graph),
        spec.analytics_threads));
  }
  cell->metrics = accumulator.Stats();
  cell->fits = spec.repeats;
  cell->epsilon_spent = spent_sum / spec.repeats;
  cell->seconds_mean = seconds_sum / spec.repeats;
}

}  // namespace

util::Result<SweepResult> RunSweep(const std::vector<SweepInput>& inputs,
                                   const SweepSpec& spec) {
  if (auto st = ValidateSpec(inputs, spec); !st.ok()) return st;
  const Clock::time_point start = Clock::now();

  SweepResult result;
  result.spec = spec;
  for (const SweepInput& input : inputs) {
    result.input_names.push_back(input.name);
  }

  // Profile each input once; every cell of that input reuses the profile
  // (the original-side statistics are the expensive half of evaluation).
  // Inputs that arrive with a caller-precomputed profile are not
  // re-profiled.
  std::vector<ReferenceProfile> owned_references;
  owned_references.reserve(inputs.size());
  std::vector<const ReferenceProfile*> references;
  references.reserve(inputs.size());
  for (const SweepInput& input : inputs) {
    if (input.reference != nullptr) {
      references.push_back(input.reference.get());
    } else {
      owned_references.push_back(
          ProfileReference(input.graph, spec.analytics_threads));
      references.push_back(&owned_references.back());
    }
  }

  // Lay out the grid (datasets, mechanisms × models, epsilons) up front;
  // cell index == position in this vector, which fixes the RNG substream
  // family and the output order independent of scheduling. The "agm"
  // mechanism expands over spec.models; other mechanisms have no
  // structural-model axis and contribute one row. The default AGM-only
  // spec therefore lays out exactly the pre-mechanism grid, substream
  // indices included.
  std::vector<const SweepInput*> cell_inputs;
  std::vector<const ReferenceProfile*> cell_references;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const std::string& mechanism : spec.mechanisms) {
      const std::vector<std::string> rows =
          mechanism == "agm" ? spec.models
                             : std::vector<std::string>{mechanism};
      for (const std::string& model : rows) {
        for (double eps : spec.epsilons) {
          SweepCell cell;
          cell.dataset = inputs[i].name;
          cell.mechanism = mechanism;
          cell.model = model;
          cell.epsilon = eps;
          cell.repeats = spec.repeats;
          result.cells.push_back(std::move(cell));
          cell_inputs.push_back(&inputs[i]);
          cell_references.push_back(references[i]);
        }
      }
    }
  }

  unsigned workers = spec.threads > 0
                         ? static_cast<unsigned>(spec.threads)
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(
      workers, static_cast<unsigned>(result.cells.size()));

  if (workers <= 1) {
    for (size_t c = 0; c < result.cells.size(); ++c) {
      RunCell(*cell_inputs[c], *cell_references[c], spec, c,
              &result.cells[c]);
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (size_t c = next.fetch_add(1); c < result.cells.size();
             c = next.fetch_add(1)) {
          RunCell(*cell_inputs[c], *cell_references[c], spec, c,
                  &result.cells[c]);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }

  result.total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

util::Result<SweepResult> RunSweepOnDatasets(const SweepSpec& spec) {
  if (spec.datasets.empty()) {
    return util::Status::InvalidArgument("sweep needs at least one dataset");
  }
  std::vector<SweepInput> inputs;
  for (const std::string& name : spec.datasets) {
    bool found = false;
    for (datasets::DatasetId id : datasets::AllDatasets()) {
      if (datasets::PaperSpec(id).name != name) continue;
      auto g = datasets::GenerateDataset(id, spec.dataset_scale, spec.seed);
      if (!g.ok()) return g.status();
      inputs.push_back(SweepInput{
          name, graph::AttributedCsrGraph::FromGraph(g.value()), nullptr});
      found = true;
      break;
    }
    if (!found) {
      // Not a registry name: treat it as a path (text prefix or binary
      // container) via the unified GraphSource front door, so sweeps can
      // run directly against on-disk graphs.
      auto source = graph::GraphSource::Open(name);
      if (!source.ok()) {
        if (source.status().code() == util::StatusCode::kNotFound) {
          return util::Status::InvalidArgument(
              "unknown dataset: " + name +
              " (not a registry name, and no graph file at that path)");
        }
        return source.status();
      }
      inputs.push_back(SweepInput{name, source.value().snapshot(), nullptr});
      found = true;
    }
  }
  return RunSweep(inputs, spec);
}

namespace {

/// The shared ranking composite: the mean of the four headline utility
/// distances, lower is better. Metrics are looked up by Flatten() name so
/// every mechanism is scored on exactly the same yardstick.
constexpr const char* kUtilityScoreMetrics[] = {
    "degree_ks", "degree_hellinger", "clustering_ccdf_distance",
    "theta_f_hellinger"};

struct MechanismRank {
  std::string mechanism;
  int cells = 0;
  double utility_score = 0.0;
};

std::vector<MechanismRank> RankMechanisms(const SweepResult& result) {
  std::vector<MechanismRank> ranks;
  for (const std::string& mechanism : result.spec.mechanisms) {
    MechanismRank rank;
    rank.mechanism = mechanism;
    double score_sum = 0.0;
    for (const SweepCell& cell : result.cells) {
      if (cell.mechanism != mechanism || !cell.error.empty()) continue;
      double cell_sum = 0.0;
      int found = 0;
      for (const char* name : kUtilityScoreMetrics) {
        for (const MetricStats& metric : cell.metrics) {
          if (metric.name == name) {
            cell_sum += metric.mean;
            ++found;
            break;
          }
        }
      }
      if (found == 0) continue;
      score_sum += cell_sum / found;
      ++rank.cells;
    }
    if (rank.cells > 0) rank.utility_score = score_sum / rank.cells;
    ranks.push_back(std::move(rank));
  }
  // Best (lowest composite) first; mechanisms with no scored cells sink to
  // the bottom. Name breaks ties so the order is a pure function of the
  // result.
  std::sort(ranks.begin(), ranks.end(),
            [](const MechanismRank& a, const MechanismRank& b) {
              if ((a.cells > 0) != (b.cells > 0)) return a.cells > 0;
              if (a.utility_score != b.utility_score) {
                return a.utility_score < b.utility_score;
              }
              return a.mechanism < b.mechanism;
            });
  return ranks;
}

}  // namespace

std::string SweepResultToJson(const SweepResult& result,
                              bool include_timing) {
  util::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("agmdp.sweep.v4");
  json.Key("seed").Value(result.spec.seed);
  json.Key("repeats").Value(result.spec.repeats);
  json.Key("dataset_scale").Value(result.spec.dataset_scale);
  json.Key("sampler_threads").Value(result.spec.sampler_threads);
  json.Key("acceptance_iterations").Value(result.spec.acceptance_iterations);
  json.Key("analytics_threads").Value(result.spec.analytics_threads);
  json.Key("reuse_fit").Value(result.spec.reuse_fit);
  json.Key("datasets").BeginArray();
  for (const std::string& name : result.input_names) json.Value(name);
  json.EndArray();
  json.Key("mechanisms").BeginArray();
  for (const std::string& mechanism : result.spec.mechanisms) {
    json.Value(mechanism);
  }
  json.EndArray();
  json.Key("models").BeginArray();
  for (const std::string& model : result.spec.models) json.Value(model);
  json.EndArray();
  json.Key("epsilons").BeginArray();
  for (double eps : result.spec.epsilons) json.Value(eps);
  json.EndArray();
  if (include_timing) {
    json.Key("total_seconds").Value(result.total_seconds);
  }
  json.Key("cells").BeginArray();
  for (const SweepCell& cell : result.cells) {
    json.BeginObject();
    json.Key("dataset").Value(cell.dataset);
    json.Key("mechanism").Value(cell.mechanism);
    json.Key("model").Value(cell.model);
    json.Key("epsilon").Value(cell.epsilon);
    json.Key("repeats").Value(cell.repeats);
    if (!cell.error.empty()) {
      json.Key("error").Value(cell.error);
      json.EndObject();
      continue;
    }
    json.Key("epsilon_spent").Value(cell.epsilon_spent);
    json.Key("fits").Value(cell.fits);
    if (include_timing) {
      json.Key("seconds_mean").Value(cell.seconds_mean);
    }
    json.Key("metrics").BeginObject();
    for (const MetricStats& metric : cell.metrics) {
      json.Key(metric.name).BeginObject();
      json.Key("mean").Value(metric.mean);
      json.Key("stddev").Value(metric.stddev);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("mechanism_summary").BeginArray();
  for (const MechanismRank& rank : RankMechanisms(result)) {
    json.BeginObject();
    json.Key("mechanism").Value(rank.mechanism);
    json.Key("cells").Value(rank.cells);
    json.Key("utility_score").Value(rank.utility_score);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Finish();
}

}  // namespace agmdp::eval
