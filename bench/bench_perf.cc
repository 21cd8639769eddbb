// Appendix C.4 timing analysis, emitting machine-readable BENCH_perf.json:
// per-component costs (truncation, Q_F counting, triangle counting, the
// Ladder mechanism, degree-sequence noising, structural sampling), the
// stage timings of a full pipeline::RunPrivateRelease, and a sampler
// thread sweep (1/2/4 workers over the same seed) with its wall-clock
// speedup — the determinism contract is asserted on the way.
//
// The csr_analytics_seconds section times the immutable CsrGraph snapshot
// kernels (1/2/4 analytics threads) next to the adjacency-list kernels the
// generators use, on the same graph, asserting the determinism contract
// (results bitwise-identical at every thread count).
// hardware_concurrency is recorded so speedup numbers from 1-core
// containers are interpretable.
//
// The sampler_hotpath_seconds section measures the flat-memory generation
// hot path: FlatEdgeSet vs std::unordered_set on realistic packed-edge
// workloads, filtered vs unfiltered proposal throughput through the dense
// acceptance table, and the same filtered proposal loop driven by the
// legacy-equivalent mechanics (std::unordered_set dedup + std::function
// filter + per-proposal EncodeEdgeConfig) — both sides timed in-process,
// so the resulting sampler_hotpath_speedup gates machine-independently.
//
// The server_seconds section drives a live `agmdp serve` daemon (real TCP
// sockets, ephemeral port) with 4 concurrent clients streaming sample
// requests: sustained samples/sec, per-request p50/p99 latency, and the
// server_deterministic flag (every checksum served under concurrency must
// match a sequential in-process SampleMany oracle bit for bit).
//
//   ./bench_perf [--scale=0.2] [--trials=3] [--out=BENCH_perf.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/agm/agm_dp.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/agm/theta_f.h"
#include "src/datasets/datasets.h"
#include "src/dp/edge_truncation.h"
#include "src/dp/ladder_mechanism.h"
#include "src/dp/constrained_inference.h"
#include "src/eval/utility_report.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/graph_container.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "src/graph/triangle_count.h"
#include "src/models/chung_lu.h"
#include "src/models/edge_filter.h"
#include "src/models/tricycle.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/registry/artifact_registry.h"
#include "src/util/alias_sampler.h"
#include "src/util/flat_edge_set.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace {

using namespace agmdp;
using Clock = std::chrono::steady_clock;

// Best-of-`trials` wall-clock seconds of fn().
template <typename Fn>
double TimeBest(int trials, Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const Clock::time_point start = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

bool SameGraph(const graph::AttributedGraph& a,
               const graph::AttributedGraph& b) {
  return a.num_nodes() == b.num_nodes() &&
         a.attributes() == b.attributes() &&
         a.structure().CanonicalEdges() == b.structure().CanonicalEdges();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags = util::Flags::Parse(argc, argv);
  const int trials = static_cast<int>(flags.GetInt("trials", 3));
  const std::string out_path = flags.GetString("out", "BENCH_perf.json");

  const auto id = datasets::DatasetId::kEpinions;
  graph::AttributedGraph input = bench::LoadDataset(id, flags);
  // The fit's input form; `input` stays for the generator-side timings.
  const graph::AttributedCsrGraph input_csr =
      graph::AttributedCsrGraph::FromGraph(input);
  const std::vector<uint32_t> degrees = graph::DegreeSequence(input.structure());
  const uint64_t triangles = graph::CountTriangles(input.structure());

  util::JsonWriter json;
  json.BeginObject();
  json.Key("dataset").Value(datasets::PaperSpec(id).name);
  json.Key("scale").Value(bench::ScaleFor(id, flags));
  json.Key("n").Value(static_cast<uint64_t>(input.num_nodes()));
  json.Key("m").Value(input.num_edges());
  json.Key("hardware_concurrency")
      .Value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.Key("simd_isa").Value(util::SimdIsaName(util::ActiveSimdIsa()));
  std::printf("simd dispatch                 %10s\n",
              util::SimdIsaName(util::ActiveSimdIsa()));

  // ------------------------------------------------------------ components
  json.Key("components_seconds").BeginObject();
  auto component = [&](const std::string& name, double seconds) {
    json.Key(name).Value(seconds);
    std::printf("%-28s %10.3f ms\n", name.c_str(), 1e3 * seconds);
  };
  component("edge_truncation_k17", TimeBest(trials, [&] {
    dp::TruncateEdges(input_csr.structure, 17);
  }));
  component("connection_counts", TimeBest(trials, [&] {
    agm::ComputeConnectionCounts(input_csr);
  }));
  component("theta_f_parallel_measure", TimeBest(trials, [&] {
    agm::MeasureThetaF(input, /*threads=*/0);
  }));
  component("triangle_count", TimeBest(trials, [&] {
    graph::CountTriangles(input.structure());
  }));
  {
    util::Rng rng(1);
    component("ladder_mechanism", TimeBest(trials, [&] {
      dp::DpTriangleCount(input_csr.structure, 0.25, rng).value();
    }));
  }
  {
    util::Rng rng(2);
    component("dp_degree_sequence", TimeBest(trials, [&] {
      dp::DpDegreeSequence(degrees, 0.25, rng);
    }));
  }
  {
    util::Rng rng(3);
    component("fcl_generation", TimeBest(trials, [&] {
      models::FastChungLu(degrees, rng).value();
    }));
  }
  {
    util::Rng rng(4);
    component("tricycle_generation", TimeBest(trials, [&] {
      models::GenerateTriCycLe(degrees, triangles, rng).value();
    }));
  }
  json.EndObject();

  // ------------------------------------------- CSR snapshot analytics path
  // The immutable snapshot vs the mutable adjacency-list representation on
  // the same graph: snapshot construction, then triangle counting + local
  // clustering (the dominant eval kernels) and the full EvaluateRelease
  // metric suite. CSR kernels run at 1/2/4 analytics threads; the
  // determinism contract — bitwise-identical to the 1-thread run at every
  // thread count — is asserted on the way.
  {
    json.Key("csr_analytics_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("csr/" + name).c_str(),
                  1e3 * seconds);
    };

    graph::AttributedCsrGraph snapshot;
    entry("from_graph", TimeBest(trials, [&] {
      snapshot = graph::AttributedCsrGraph::FromGraph(input);
    }));

    const double adjacency_triangles_seconds = TimeBest(trials, [&] {
      graph::CountTriangles(input.structure());
    });
    const double adjacency_clustering_seconds = TimeBest(trials, [&] {
      graph::LocalClusteringCoefficients(input.structure());
    });
    entry("adjacency_triangles", adjacency_triangles_seconds);
    entry("adjacency_clustering", adjacency_clustering_seconds);

    bool deterministic = true;
    double csr_triangles_1t = 0.0, csr_clustering_1t = 0.0;
    uint64_t triangles_1t = 0;
    std::vector<double> clustering_1t;
    for (int threads : {1, 2, 4}) {
      uint64_t triangles_csr = 0;
      const double tri_seconds = TimeBest(trials, [&] {
        triangles_csr = graph::CountTriangles(snapshot.structure, threads);
      });
      std::vector<double> clustering_csr;
      const double cc_seconds = TimeBest(trials, [&] {
        clustering_csr =
            graph::LocalClusteringCoefficients(snapshot.structure, threads);
      });
      if (threads == 1) {
        csr_triangles_1t = tri_seconds;
        csr_clustering_1t = cc_seconds;
        triangles_1t = triangles_csr;
        clustering_1t = clustering_csr;
      }
      deterministic = deterministic && triangles_csr == triangles_1t &&
                      clustering_csr == clustering_1t;
      entry("triangles_" + std::to_string(threads) + "t", tri_seconds);
      entry("clustering_" + std::to_string(threads) + "t", cc_seconds);
    }

    // The sweep engine's per-release workload: the full metric suite, with
    // the CSR side paying for its snapshot build (the AttributedGraph
    // overload builds one internally, exactly like a sweep cell does).
    const eval::ReferenceProfile reference =
        eval::ProfileReference(snapshot, /*analytics_threads=*/1);
    eval::UtilityReport report_csr;
    entry("evaluate_csr_1t", TimeBest(trials, [&] {
      report_csr = eval::EvaluateRelease(reference, input,
                                         /*analytics_threads=*/1);
    }));
    const auto flat_1t = report_csr.Flatten();
    json.EndObject();

    const double adjacency_total =
        adjacency_triangles_seconds + adjacency_clustering_seconds;
    const double csr_total = csr_triangles_1t + csr_clustering_1t;
    json.Key("csr_triangle_clustering_speedup_1t")
        .Value(csr_total > 0.0 ? adjacency_total / csr_total : 0.0);
    json.Key("csr_deterministic_1_2_4").Value(deterministic);
    std::printf("csr tri+clustering speedup    %10.2fx (deterministic: %s)\n",
                csr_total > 0.0 ? adjacency_total / csr_total : 0.0,
                deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(deterministic,
                    "CSR analytics differ across thread counts");

    // ------------------------------------------- fused evaluation kernel
    // EvaluateRelease on the SAME prebuilt snapshot and reference profile
    // (no snapshot build timed). Both dispatch arms and 1/2/4 threads must
    // all flatten to the 1-thread report above bit for bit.
    {
      json.Key("fused_eval_seconds").BeginObject();
      auto fused_entry = [&](const std::string& name, double seconds) {
        json.Key(name).Value(seconds);
        std::printf("%-28s %10.3f ms\n", ("fused/" + name).c_str(),
                    1e3 * seconds);
      };

      bool fused_deterministic = true;
      double fused_1t = 0.0, fused_4t = 0.0;
      for (int threads : {1, 2, 4}) {
        eval::UtilityReport report_fused;
        const double seconds = TimeBest(trials, [&] {
          report_fused = eval::EvaluateRelease(reference, snapshot, threads);
        });
        fused_deterministic = fused_deterministic &&
                              report_fused.Flatten() == flat_1t;
        if (threads == 1) fused_1t = seconds;
        if (threads == 4) fused_4t = seconds;
        fused_entry("fused_" + std::to_string(threads) + "t", seconds);
      }

      // Each arm pinned explicitly (the loop above ran auto dispatch); an
      // unavailable AVX2 arm is skipped, not silently re-run as scalar.
      std::vector<util::SimdIsa> arms = {util::SimdIsa::kScalar};
      if (util::ResolveSimdIsa(util::SimdIsa::kAvx2) ==
          util::SimdIsa::kAvx2) {
        arms.push_back(util::SimdIsa::kAvx2);
      }
      for (util::SimdIsa arm : arms) {
        util::SetSimdIsaOverride(arm);
        eval::UtilityReport report_arm;
        const double seconds = TimeBest(trials, [&] {
          report_arm = eval::EvaluateRelease(reference, snapshot,
                                             /*analytics_threads=*/1);
        });
        util::SetSimdIsaOverride(util::SimdIsa::kAuto);
        fused_deterministic = fused_deterministic &&
                              report_arm.Flatten() == flat_1t;
        fused_entry(std::string("fused_") + util::SimdIsaName(arm) + "_1t",
                    seconds);
      }
      json.EndObject();

      const double parallel_speedup = fused_4t > 0.0 ? fused_1t / fused_4t : 0.0;
      json.Key("fused_eval_parallel_speedup_4t").Value(parallel_speedup);
      json.Key("fused_deterministic").Value(fused_deterministic);
      std::printf("fused eval 4t speedup         %10.2fx (deterministic: %s)\n",
                  parallel_speedup, fused_deterministic ? "yes" : "NO");
      AGMDP_CHECK_MSG(fused_deterministic,
                      "fused evaluation differs across threads or arms");
    }
  }

  // ---------------------------------------------- sampler hot-path micro
  // The mechanics the PR-4 rewrite replaced, vs their replacements, on the
  // same workload and the same runner. Edge-set ops use the input graph's
  // real packed-edge keys; the proposal loops draw endpoints from the real
  // degree-proportional alias table, so collision and acceptance rates
  // match what SampleAgmGraph actually sees.
  {
    json.Key("sampler_hotpath_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("hotpath/" + name).c_str(),
                  1e3 * seconds);
    };

    std::vector<uint64_t> keys;
    keys.reserve(input.num_edges());
    for (const graph::Edge& e : input.structure().CanonicalEdges()) {
      keys.push_back(graph::PackEdge(e.u, e.v));
    }

    // Edge-set ops: insert every edge, then four membership sweeps (hit,
    // miss, hit, miss) — the HasEdge-dominated shape of the proposal loop.
    uint64_t sink = 0;
    const double flat_set_seconds = TimeBest(trials, [&] {
      util::FlatEdgeSet set(keys.size());
      for (uint64_t k : keys) set.Insert(k);
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (uint64_t k : keys) sink += set.Contains(k) ? 1 : 0;
        for (uint64_t k : keys) sink += set.Contains(k + 1) ? 1 : 0;
      }
    });
    const double unordered_set_seconds = TimeBest(trials, [&] {
      std::unordered_set<uint64_t> set;
      set.reserve(keys.size());
      for (uint64_t k : keys) set.insert(k);
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (uint64_t k : keys) sink += set.count(k);
        for (uint64_t k : keys) sink += set.count(k + 1);
      }
    });
    entry("flat_edge_set_ops", flat_set_seconds);
    entry("unordered_set_ops", unordered_set_seconds);

    // Proposal throughput: a fixed number of FCL-style proposals (alias
    // draws + dedup + acceptance), unfiltered and through the dense
    // acceptance table; then the identical filtered workload driven by the
    // legacy-equivalent mechanics. Acceptance probabilities stay strictly
    // inside (0, 1) so both filter implementations consume identical draws.
    const std::vector<uint32_t> prop_degrees = degrees;
    std::vector<double> weights(prop_degrees.begin(), prop_degrees.end());
    auto alias = util::AliasSampler::Build(weights);
    AGMDP_CHECK_MSG(alias.ok(), alias.status().ToString().c_str());
    const int w = input.num_attributes();
    const std::vector<graph::AttrConfig>& attrs = input.attributes();
    std::vector<double> acceptance(graph::NumEdgeConfigs(w), 0.0);
    for (size_t y = 0; y < acceptance.size(); ++y) {
      acceptance[y] = (y % 2 == 0) ? 0.9 : 0.35;
    }
    const models::EdgeFilter table_filter =
        models::EdgeFilter::FromAcceptanceTable(attrs, acceptance, w);
    const uint64_t proposals = 4 * input.num_edges();

    auto run_flat = [&](const models::EdgeFilter* filter) {
      util::Rng rng(8);
      util::FlatEdgeSet seen(input.num_edges());
      uint64_t accepted = 0;
      for (uint64_t p = 0; p < proposals; ++p) {
        const auto u = static_cast<graph::NodeId>(alias.value().Sample(rng));
        const auto v = static_cast<graph::NodeId>(alias.value().Sample(rng));
        if (u == v || seen.Contains(graph::PackEdge(u, v))) continue;
        if (filter != nullptr && !filter->Accept(u, v, rng)) continue;
        seen.Insert(graph::PackEdge(u, v));
        ++accepted;
      }
      return accepted;
    };
    uint64_t accepted_flat = 0;
    entry("proposals_unfiltered", TimeBest(trials, [&] {
      accepted_flat = run_flat(nullptr);
    }));
    uint64_t accepted_filtered = 0;
    const double flat_filtered_seconds = TimeBest(trials, [&] {
      accepted_filtered = run_flat(&table_filter);
    });
    entry("proposals_filtered", flat_filtered_seconds);
    sink += accepted_flat + accepted_filtered;

    // Legacy-equivalent mechanics: hash-set dedup with per-bucket nodes and
    // a type-erased filter that re-derives the triangular config index per
    // proposal — the exact pre-rewrite inner-loop shape.
    const std::function<bool(graph::NodeId, graph::NodeId, util::Rng&)>
        legacy_filter = [&attrs, &acceptance, w](
                            graph::NodeId u, graph::NodeId v, util::Rng& r) {
          const uint32_t y =
              graph::EncodeEdgeConfig(attrs[u], attrs[v], w);
          return r.Bernoulli(acceptance[y]);
        };
    uint64_t accepted_legacy = 0;
    const double legacy_filtered_seconds = TimeBest(trials, [&] {
      util::Rng rng(8);
      std::unordered_set<uint64_t> seen;
      uint64_t accepted = 0;
      for (uint64_t p = 0; p < proposals; ++p) {
        const auto u = static_cast<graph::NodeId>(alias.value().Sample(rng));
        const auto v = static_cast<graph::NodeId>(alias.value().Sample(rng));
        if (u == v || seen.count(graph::PackEdge(u, v)) > 0) continue;
        if (!legacy_filter(u, v, rng)) continue;
        seen.insert(graph::PackEdge(u, v));
        ++accepted;
      }
      accepted_legacy = accepted;
    });
    entry("proposals_filtered_legacy_equiv", legacy_filtered_seconds);
    AGMDP_CHECK_MSG(accepted_legacy == accepted_filtered,
                    "legacy-equivalent loop diverged from the flat loop");

    // The sample stage itself, FCL model (the TriCycLe-model stage timing
    // already lands in pipeline_stages_seconds.sample below).
    {
      const agm::AgmParams params = agm::LearnAgmParams(input_csr);
      pipeline::PipelineConfig config;
      config.model = "fcl";
      config.sample.acceptance_iterations = 2;
      entry("sample_stage_fcl", TimeBest(trials, [&] {
        util::Rng rng(9);
        auto g = pipeline::SampleRelease(params, config, rng);
        AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
      }));
    }
    json.EndObject();
    if (sink == 0) std::printf(" ");  // keep the membership sweeps live

    const double edge_set_speedup = flat_set_seconds > 0.0
                                        ? unordered_set_seconds /
                                              flat_set_seconds
                                        : 0.0;
    const double hotpath_speedup = flat_filtered_seconds > 0.0
                                       ? legacy_filtered_seconds /
                                             flat_filtered_seconds
                                       : 0.0;
    json.Key("edge_set_speedup").Value(edge_set_speedup);
    json.Key("sampler_hotpath_speedup").Value(hotpath_speedup);
    std::printf("edge set speedup              %10.2fx\n", edge_set_speedup);
    std::printf("hot-path proposal speedup     %10.2fx\n", hotpath_speedup);
  }

  // ------------------------------------- pipeline end-to-end stage timings
  {
    pipeline::PipelineConfig config;
    config.epsilon = std::log(2.0);
    config.sample.acceptance_iterations = 2;
    util::Rng rng(5);
    auto release = pipeline::RunPrivateRelease(input_csr, config, rng);
    AGMDP_CHECK_MSG(release.ok(), release.status().ToString().c_str());
    json.Key("pipeline_model").Value(config.model);
    json.Key("pipeline_epsilon").Value(config.epsilon);
    json.Key("pipeline_stages_seconds").BeginObject();
    for (const auto& stage : release.value().stage_seconds) {
      json.Key(stage.stage).Value(stage.seconds);
      std::printf("pipeline stage %-13s %10.3f ms\n", stage.stage.c_str(),
                  1e3 * stage.seconds);
    }
    json.EndObject();
    json.Key("pipeline_total_seconds").Value(release.value().total_seconds);
  }

  // -------------------------------------------------- sampler thread sweep
  // Same parameters, same seed, 1/2/4 worker threads: the outputs must be
  // bitwise-identical (the sharded sampler's determinism contract) and the
  // wall-clock ratio is the parallel speedup of the hot path.
  {
    const agm::AgmParams params = agm::LearnAgmParams(input_csr);
    bool deterministic = true;
    double seconds_1t = 0.0, seconds_4t = 0.0;
    graph::AttributedGraph reference;
    json.Key("sampler_threads_seconds").BeginObject();
    for (int threads : {1, 2, 4}) {
      pipeline::PipelineConfig config;
      config.model = "fcl";
      config.sample.acceptance_iterations = 2;
      config.sample.threads = threads;
      graph::AttributedGraph sampled;
      const double seconds = TimeBest(trials, [&] {
        util::Rng rng(6);
        auto g = pipeline::SampleRelease(params, config, rng);
        AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
        sampled = std::move(g).value();
      });
      if (threads == 1) {
        seconds_1t = seconds;
        reference = sampled;
      } else {
        deterministic = deterministic && SameGraph(reference, sampled);
      }
      if (threads == 4) seconds_4t = seconds;
      json.Key(std::to_string(threads)).Value(seconds);
      std::printf("sampler threads=%d            %10.3f ms\n", threads,
                  1e3 * seconds);
    }
    json.EndObject();
    json.Key("sampler_speedup_4t")
        .Value(seconds_4t > 0.0 ? seconds_1t / seconds_4t : 0.0);
    json.Key("sampler_deterministic_1_2_4").Value(deterministic);
    std::printf("sampler 4-thread speedup      %10.2fx (deterministic: %s)\n",
                seconds_4t > 0.0 ? seconds_1t / seconds_4t : 0.0,
                deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(deterministic,
                    "sampler output differs across thread counts");
  }

  // -------------------------------------------------------------- serving
  // The fit-once / sample-many serving layer vs the pre-serving protocol
  // (one full RunPrivateRelease per synthetic graph). The baseline refits —
  // and re-converges the acceptance loop — per release; the ReleaseEngine
  // pays fit + calibration once and serves each release as one filtered
  // generation from the calibrated acceptance vector. Both sides run
  // single-threaded in this process, so serving_throughput_speedup gates
  // machine-independently; the 2t/4t SampleMany rows show the additional
  // cross-sample parallelism on multi-core hosts (bitwise-identical output,
  // asserted here).
  {
    pipeline::PipelineConfig config;
    config.epsilon = std::log(2.0);
    config.model = "fcl";
    config.sample.acceptance_iterations = 2;
    constexpr int kReleases = 8;

    json.Key("serving_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("serving/" + name).c_str(),
                  1e3 * seconds);
    };

    // Baseline: every release pays the full fit + cold sample.
    const double baseline_seconds = TimeBest(trials, [&] {
      util::Rng rng(31);
      for (int i = 0; i < kReleases; ++i) {
        auto release = pipeline::RunPrivateRelease(input_csr, config, rng);
        AGMDP_CHECK_MSG(release.ok(), release.status().ToString().c_str());
      }
    });
    entry("repeated_release_" + std::to_string(kReleases) + "x",
          baseline_seconds);

    // The artifact exchange `agmdp fit` / `agmdp sample` perform.
    util::Rng fit_rng(32);
    auto fitted = pipeline::FitReleaseArtifact(input_csr, config, fit_rng);
    AGMDP_CHECK_MSG(fitted.ok(), fitted.status().ToString().c_str());
    const std::string artifact_path = out_path + ".artifact";
    entry("artifact_write", TimeBest(trials, [&] {
      auto st = pipeline::WriteReleaseArtifact(fitted.value(), artifact_path);
      AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
    }));
    pipeline::ReleaseArtifact artifact;
    entry("artifact_load", TimeBest(trials, [&] {
      auto loaded = pipeline::ReadReleaseArtifact(artifact_path);
      AGMDP_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
      artifact = std::move(loaded).value();
    }));
    std::remove(artifact_path.c_str());

    // Engine construction, calibration sample included.
    std::unique_ptr<pipeline::ReleaseEngine> engine;
    entry("engine_create_calibrated", TimeBest(trials, [&] {
      pipeline::EngineOptions options;
      options.threads = 1;
      options.sample = config.sample;
      auto created = pipeline::ReleaseEngine::Create(artifact, options);
      AGMDP_CHECK_MSG(created.ok(), created.status().ToString().c_str());
      engine = std::move(created).value();
    }));

    // Single-request latency (the per-request cost an online server pays).
    pipeline::SampleRequest base;
    base.seed = 33;
    entry("sample_single", TimeBest(trials, [&] {
      auto g = engine->Sample(base);
      AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    }));

    // Batched serving at 1/2/4 pool workers: identical bits at every pool
    // size, and identical to a sequential Sample loop over the same
    // requests.
    std::vector<graph::AttributedGraph> sequential;
    for (int i = 0; i < kReleases; ++i) {
      pipeline::SampleRequest request = base;
      request.sequence = static_cast<uint64_t>(i);
      auto g = engine->Sample(request);
      AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
      sequential.push_back(std::move(g).value());
    }
    bool deterministic = true;
    double many_1t = 0.0;
    for (int threads : {1, 2, 4}) {
      pipeline::EngineOptions options;
      options.threads = threads;
      options.sample = config.sample;
      auto created = pipeline::ReleaseEngine::Create(artifact, options);
      AGMDP_CHECK_MSG(created.ok(), created.status().ToString().c_str());
      std::vector<graph::AttributedGraph> served;
      const double seconds = TimeBest(trials, [&] {
        auto graphs = created.value()->SampleMany(kReleases, base);
        AGMDP_CHECK_MSG(graphs.ok(), graphs.status().ToString().c_str());
        served = std::move(graphs).value();
      });
      for (int i = 0; i < kReleases; ++i) {
        deterministic = deterministic &&
                        SameGraph(sequential[static_cast<size_t>(i)],
                                  served[static_cast<size_t>(i)]);
      }
      if (threads == 1) many_1t = seconds;
      entry("sample_many_" + std::to_string(kReleases) + "x_" +
                std::to_string(threads) + "t",
            seconds);
      std::printf("serving releases/sec @%dt     %10.1f\n", threads,
                  seconds > 0.0 ? kReleases / seconds : 0.0);
    }

    json.EndObject();
    const double speedup =
        many_1t > 0.0 ? baseline_seconds / many_1t : 0.0;
    json.Key("serving_throughput_speedup").Value(speedup);
    json.Key("serving_deterministic_1_2_4").Value(deterministic);
    std::printf("serving throughput speedup    %10.2fx (deterministic: %s)\n",
                speedup, deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(deterministic,
                    "served samples differ across pool sizes or from "
                    "sequential serving");
  }

  // ----------------------------------------------------- serving daemon
  // The full `agmdp serve` request path under concurrent load: a live
  // daemon on an ephemeral TCP port, 4 client threads each streaming
  // lock-step sample requests over its own connection. Sustained
  // samples/sec and per-request p50/p99 latency measure the socket +
  // parse + queue + batch + sample + serialize path end to end; every
  // checksum served under concurrency must match a sequential in-process
  // SampleMany oracle (the batched-determinism contract on the wire).
  {
    constexpr int kClients = 4;
    constexpr int kPerClient = 8;
    constexpr uint64_t kServeSeed = 77;

    pipeline::PipelineConfig config;
    config.epsilon = std::log(2.0);
    config.model = "fcl";
    config.sample.acceptance_iterations = 2;
    util::Rng fit_rng(41);
    auto fitted = pipeline::FitReleaseArtifact(input_csr, config, fit_rng);
    AGMDP_CHECK_MSG(fitted.ok(), fitted.status().ToString().c_str());
    const std::string artifact_path = out_path + ".server_artifact";
    {
      auto st = pipeline::WriteReleaseArtifact(fitted.value(), artifact_path);
      AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
    }

    // Sequential oracle: one in-process engine, one SampleMany sweep over
    // the exact sequence range the clients will request.
    std::vector<uint64_t> oracle(kClients * kPerClient, 0);
    {
      pipeline::EngineOptions options;
      options.threads = 1;
      options.sample = config.sample;
      auto engine = pipeline::ReleaseEngine::Create(fitted.value(), options);
      AGMDP_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
      pipeline::SampleRequest base;
      base.seed = kServeSeed;
      base.sequence = 0;
      auto graphs = engine.value()->SampleMany(kClients * kPerClient, base);
      AGMDP_CHECK_MSG(graphs.ok(), graphs.status().ToString().c_str());
      for (size_t i = 0; i < graphs.value().size(); ++i) {
        oracle[i] = server::GraphChecksum(graphs.value()[i]);
      }
    }

    server::ServerOptions server_options;
    server_options.port = 0;
    server_options.worker_threads = 2;
    server_options.engine_threads = 1;
    server_options.max_queue = 256;
    server_options.default_tenant_budget = 100.0;
    auto daemon = server::Server::Start(server_options);
    AGMDP_CHECK_MSG(daemon.ok(), daemon.status().ToString().c_str());
    const int port = daemon.value()->port();

    json.Key("server_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("server/" + name).c_str(),
                  1e3 * seconds);
    };

    // Admit the engine through the wire (the cold path a tenant pays).
    {
      auto loader = server::Client::Connect("127.0.0.1", port);
      AGMDP_CHECK_MSG(loader.ok(), loader.status().ToString().c_str());
      server::Request load;
      load.op = server::RequestOp::kLoad;
      load.id = 1;
      load.tenant = "bench";
      load.name = "bench";
      load.artifact = artifact_path;
      const Clock::time_point start = Clock::now();
      auto response = loader.value().Call(load);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      AGMDP_CHECK_MSG(response.ok(), response.status().ToString().c_str());
      AGMDP_CHECK_MSG(response.value().status.ok(),
                      response.value().status.ToString().c_str());
      entry("daemon_load", seconds);
    }

    // Concurrent sustained load, best-of-trials wall clock; latencies are
    // pooled across trials for stable percentiles.
    std::vector<double> latencies;
    std::atomic<bool> deterministic{true};
    double best_wall = 1e300;
    for (int t = 0; t < trials; ++t) {
      std::vector<std::vector<double>> per_client(kClients);
      std::vector<std::thread> threads;
      const Clock::time_point start = Clock::now();
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          auto client = server::Client::Connect("127.0.0.1", port);
          AGMDP_CHECK_MSG(client.ok(), client.status().ToString().c_str());
          for (int i = 0; i < kPerClient; ++i) {
            server::Request request;
            request.op = server::RequestOp::kSample;
            request.id = static_cast<uint64_t>(c * kPerClient + i);
            request.tenant = "bench";
            request.name = "bench";
            request.seed = kServeSeed;
            request.sequence = static_cast<uint64_t>(c * kPerClient + i);
            request.count = 1;
            const Clock::time_point sent = Clock::now();
            auto response = client.value().Call(request);
            per_client[static_cast<size_t>(c)].push_back(
                std::chrono::duration<double>(Clock::now() - sent).count());
            AGMDP_CHECK_MSG(response.ok(),
                            response.status().ToString().c_str());
            AGMDP_CHECK_MSG(response.value().status.ok(),
                            response.value().status.ToString().c_str());
            if (response.value().graphs.size() != 1 ||
                response.value().graphs[0].checksum !=
                    oracle[request.sequence]) {
              deterministic = false;
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      best_wall = std::min(
          best_wall,
          std::chrono::duration<double>(Clock::now() - start).count());
      for (const std::vector<double>& lats : per_client) {
        latencies.insert(latencies.end(), lats.begin(), lats.end());
      }
    }
    std::sort(latencies.begin(), latencies.end());
    auto percentile = [&](double p) {
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(latencies.size() - 1));
      return latencies[idx];
    };
    entry("wall_4_clients", best_wall);
    entry("latency_p50", percentile(0.50));
    entry("latency_p99", percentile(0.99));
    json.EndObject();

    const double samples_per_sec =
        best_wall > 0.0 ? kClients * kPerClient / best_wall : 0.0;
    json.Key("server_samples_per_sec").Value(samples_per_sec);
    json.Key("server_deterministic").Value(deterministic.load());
    std::printf("server samples/sec @4 clients %10.1f (deterministic: %s)\n",
                samples_per_sec, deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(deterministic,
                    "daemon-served checksums differ from the sequential "
                    "oracle");

    daemon.value()->Stop();
    daemon.value()->Wait();
    std::remove(artifact_path.c_str());
  }

  // ------------------------------------------------------------- storage
  // Text loader vs the paged binary container (graph/graph_container.h):
  // convert throughput, verified/unverified mmap open latency, and the
  // headline text->binary load ratio. The mmap snapshot must evaluate
  // bitwise-identically to the in-RAM snapshot at every thread count.
  {
    const std::string text_prefix = out_path + ".storage_tmp";
    const std::string bin_path = text_prefix + ".agmbin";
    AGMDP_CHECK_MSG(graph::WriteAttributedGraph(input, text_prefix).ok(),
                    "cannot write storage bench text pair");

    json.Key("storage_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("storage %-20s %10.3f ms\n", name.c_str(), 1e3 * seconds);
    };
    // Paths resolve once, outside the timing: only the parse is timed.
    auto text_paths = graph::ResolveTextGraphPaths(text_prefix);
    AGMDP_CHECK_MSG(text_paths.ok(), "storage bench text paths missing");
    const double text_load = TimeBest(trials, [&] {
      auto g = graph::ReadAttributedGraphFiles(text_paths.value());
      AGMDP_CHECK_MSG(g.ok(), "storage bench text load failed");
    });
    entry("text_load", text_load);
    entry("convert_text_to_binary", TimeBest(trials, [&] {
            auto info = graph::ConvertTextToBinary(text_prefix, bin_path);
            AGMDP_CHECK_MSG(info.ok(), "storage bench convert failed");
          }));
    const double binary_open = TimeBest(trials, [&] {
      auto snapshot = graph::OpenBinarySnapshot(bin_path);
      AGMDP_CHECK_MSG(snapshot.ok(), "storage bench verified open failed");
    });
    entry("binary_open_verified", binary_open);
    graph::OpenOptions unverified;
    unverified.verify_checksums = false;
    unverified.validate = false;
    entry("binary_open_unverified", TimeBest(trials, [&] {
            auto snapshot = graph::OpenBinarySnapshot(bin_path, unverified);
            AGMDP_CHECK_MSG(snapshot.ok(),
                            "storage bench unverified open failed");
          }));
    json.EndObject();

    const double binary_load_speedup =
        binary_open > 0.0 ? text_load / binary_open : 0.0;
    json.Key("binary_load_speedup").Value(binary_load_speedup);

    auto mapped = graph::OpenBinarySnapshot(bin_path);
    AGMDP_CHECK_MSG(mapped.ok(), "storage bench reopen failed");
    const graph::AttributedCsrGraph ram_snapshot =
        graph::AttributedCsrGraph::FromGraph(input);
    bool storage_deterministic = true;
    for (int eval_threads : {1, 2, 4}) {
      const eval::UtilityReport ram_report = eval::EvaluateRelease(
          eval::ProfileReference(ram_snapshot, eval_threads), ram_snapshot,
          eval_threads);
      const eval::UtilityReport mmap_report = eval::EvaluateRelease(
          eval::ProfileReference(mapped.value(), eval_threads), mapped.value(),
          eval_threads);
      storage_deterministic = storage_deterministic &&
                              ram_report.Flatten() == mmap_report.Flatten();
    }
    json.Key("storage_deterministic").Value(storage_deterministic);
    std::printf("binary load speedup           %10.2fx (deterministic: %s)\n",
                binary_load_speedup, storage_deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(storage_deterministic,
                    "mmap-backed evaluation differs from the in-RAM snapshot");

    std::remove((text_prefix + ".edges").c_str());
    std::remove((text_prefix + ".attrs").c_str());
    std::remove(bin_path.c_str());
  }

  // ------------------------------------------------------------- registry
  // The durable artifact registry on its hot paths: journaled puts with
  // and without fsync (their difference isolates the durability cost per
  // release), recovery replay at Open, checkpoint compaction, and
  // in-memory resolves. registry_deterministic asserts the contract crash
  // recovery leans on: two registries fed the identical history compact to
  // byte-identical files — recovered state is a pure function of history,
  // with no timestamps or randomness in the journal.
  {
    constexpr int kRegArtifacts = 16;
    const agm::AgmParams reg_params = agm::LearnAgmParams(input_csr);
    std::vector<pipeline::ReleaseArtifact> artifacts;
    for (int i = 0; i < kRegArtifacts; ++i) {
      pipeline::PipelineConfig config;
      config.model = "fcl";
      // Distinct epsilons give distinct config fingerprints and release
      // keys, so every put is a fresh charge rather than an idempotent hit.
      config.epsilon = 0.05 + 0.01 * i;
      pipeline::ReleaseArtifact artifact =
          pipeline::MakeReleaseArtifact(reg_params, config);
      artifact.epsilon_budget = config.epsilon;
      artifact.epsilon_spent = config.epsilon;
      artifact.ledger.emplace_back("fit", config.epsilon);
      artifacts.push_back(std::move(artifact));
    }

    const std::string reg_path = out_path + ".registry_tmp";
    const std::string reg_path_b = out_path + ".registry_tmp_b";
    auto wipe = [](const std::string& path) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    };
    auto run_history = [&](const std::string& path, bool fsync) {
      registry::RegistryOptions options;
      options.fsync = fsync;
      auto reg = registry::ArtifactRegistry::Open(path, options);
      AGMDP_CHECK_MSG(reg.ok(), reg.status().ToString().c_str());
      for (int i = 0; i < kRegArtifacts; ++i) {
        auto st = reg.value()->Put("bench", "r" + std::to_string(i),
                                   artifacts[static_cast<size_t>(i)]);
        AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
        st = reg.value()->ChargeTenant(
            "tenant", static_cast<uint64_t>(i),
            artifacts[static_cast<size_t>(i)].epsilon_spent);
        AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
      }
      return std::move(reg).value();
    };
    auto read_file = [](const std::string& path) {
      FILE* f = std::fopen(path.c_str(), "rb");
      AGMDP_CHECK_MSG(f != nullptr, "cannot read registry bench file");
      std::string bytes;
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
      std::fclose(f);
      return bytes;
    };

    json.Key("registry_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("registry/" + name).c_str(),
                  1e3 * seconds);
    };

    const std::string puts_name =
        "put_charge_" + std::to_string(kRegArtifacts) + "x";
    entry(puts_name + "_fsync", TimeBest(trials, [&] {
            wipe(reg_path);
            run_history(reg_path, /*fsync=*/true);
          }));
    entry(puts_name + "_no_fsync", TimeBest(trials, [&] {
            wipe(reg_path);
            run_history(reg_path, /*fsync=*/false);
          }));

    // The file left behind holds 2 * kRegArtifacts journal records; Open
    // replays them all (recovery is the startup cost a daemon restart pays).
    entry("reopen_replay", TimeBest(trials, [&] {
      auto reg = registry::ArtifactRegistry::Open(reg_path, {});
      AGMDP_CHECK_MSG(reg.ok(), reg.status().ToString().c_str());
    }));
    {
      auto reg = registry::ArtifactRegistry::Open(reg_path, {});
      AGMDP_CHECK_MSG(reg.ok(), reg.status().ToString().c_str());
      entry("checkpoint", TimeBest(trials, [&] {
        auto st = reg.value()->Checkpoint();
        AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
      }));
      entry("resolve_" + std::to_string(kRegArtifacts) + "x",
            TimeBest(trials, [&] {
              for (int i = 0; i < kRegArtifacts; ++i) {
                auto artifact =
                    reg.value()->Resolve("bench", "r" + std::to_string(i));
                AGMDP_CHECK_MSG(artifact.ok(),
                                artifact.status().ToString().c_str());
              }
            }));
    }
    json.EndObject();

    // Identical histories, independently journaled and compacted, must be
    // byte-identical files — and replay to the same spend.
    bool registry_deterministic = true;
    wipe(reg_path);
    wipe(reg_path_b);
    for (const std::string& path : {reg_path, reg_path_b}) {
      auto reg = run_history(path, /*fsync=*/false);
      auto st = reg->Checkpoint();
      AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
    }
    registry_deterministic = read_file(reg_path) == read_file(reg_path_b);
    {
      auto reg = registry::ArtifactRegistry::Open(reg_path, {});
      AGMDP_CHECK_MSG(reg.ok(), reg.status().ToString().c_str());
      double expected = 0.0;
      for (const auto& artifact : artifacts) expected += artifact.epsilon_spent;
      registry_deterministic =
          registry_deterministic &&
          std::abs(reg.value()->Spent("bench") - expected) < 1e-9 &&
          reg.value()->Stats().recovered_records == 1;
    }
    json.Key("registry_deterministic").Value(registry_deterministic);
    std::printf("registry checkpoint           %10s (deterministic: %s)\n", "",
                registry_deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(registry_deterministic,
                    "identical registry histories produced different files "
                    "or recovered different spend");
    wipe(reg_path);
    wipe(reg_path_b);
  }

  // ------------------------------------------------------------ mechanisms
  // The non-AGM release mechanisms (PR 10) through the same fit-once /
  // sample-many contract: fit cost on the bench input, an 8-sample batch
  // through the engine, and the determinism flag — refitting from the same
  // substream must reproduce the artifact byte for byte, and a second
  // engine at a different pool size must serve bitwise-identical samples.
  {
    json.Key("mechanisms_seconds").BeginObject();
    auto entry = [&](const std::string& name, double seconds) {
      json.Key(name).Value(seconds);
      std::printf("%-28s %10.3f ms\n", ("mechanisms/" + name).c_str(),
                  1e3 * seconds);
    };
    bool mechanisms_deterministic = true;
    constexpr int kMechBatch = 8;
    for (const char* mechanism : {"community_dp", "kanon_baseline"}) {
      pipeline::PipelineConfig config;
      config.mechanism = mechanism;
      config.epsilon = 1.0;
      pipeline::ReleaseArtifact artifact;
      entry(std::string(mechanism) + "_fit", TimeBest(trials, [&] {
        util::Rng rng = util::Rng::Substream(2026, 8);
        auto fit = pipeline::FitReleaseArtifact(input_csr, config, rng);
        AGMDP_CHECK_MSG(fit.ok(), fit.status().ToString().c_str());
        artifact = std::move(fit).value();
      }));
      auto engine = pipeline::ReleaseEngine::Create(artifact);
      AGMDP_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
      pipeline::SampleRequest base;
      base.seed = 7;
      std::vector<graph::AttributedGraph> batch;
      entry(std::string(mechanism) + "_sample_many_8x",
            TimeBest(trials, [&] {
              auto graphs = engine.value()->SampleMany(kMechBatch, base);
              AGMDP_CHECK_MSG(graphs.ok(), graphs.status().ToString().c_str());
              batch = std::move(graphs).value();
            }));

      util::Rng rng = util::Rng::Substream(2026, 8);
      auto refit = pipeline::FitReleaseArtifact(input_csr, config, rng);
      AGMDP_CHECK_MSG(refit.ok(), refit.status().ToString().c_str());
      mechanisms_deterministic =
          mechanisms_deterministic &&
          pipeline::ReleaseArtifactToJson(artifact) ==
              pipeline::ReleaseArtifactToJson(refit.value());
      pipeline::EngineOptions pooled;
      pooled.threads = 2;
      auto other = pipeline::ReleaseEngine::Create(refit.value(), pooled);
      AGMDP_CHECK_MSG(other.ok(), other.status().ToString().c_str());
      for (int i = 0; i < kMechBatch; ++i) {
        pipeline::SampleRequest request = base;
        request.sequence = base.sequence + static_cast<uint64_t>(i);
        auto sample = other.value()->Sample(request);
        AGMDP_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());
        mechanisms_deterministic = mechanisms_deterministic &&
                                   SameGraph(batch[static_cast<size_t>(i)],
                                             sample.value());
      }
    }
    json.EndObject();
    json.Key("mechanisms_deterministic").Value(mechanisms_deterministic);
    std::printf("mechanisms                    %10s (deterministic: %s)\n", "",
                mechanisms_deterministic ? "yes" : "NO");
    AGMDP_CHECK_MSG(mechanisms_deterministic,
                    "a release mechanism refit or resample diverged from the "
                    "substream contract");
  }

  json.EndObject();
  FILE* f = std::fopen(out_path.c_str(), "w");
  AGMDP_CHECK_MSG(f != nullptr, "cannot open output file");
  const std::string body = json.Finish();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
