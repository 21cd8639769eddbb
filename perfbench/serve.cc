// `serve`: a closed loop of lock-step count=1 sample requests from four
// connections to an `agmdp serve` child process, all on one fcl release
// of the Epinions stand-in.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.h"
#include "src/datasets/datasets.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/server/server.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace agmdp::perfbench {
namespace {

constexpr int kConnections = 4;
/// Set-ups per run, the first kSetupsBefore before the window and the rest
/// after it: the host's speed drifts between levels some 30% apart every
/// few seconds, and set-ups on both sides of the window keep the median
/// from following one level.
constexpr int kSetupRepeats = 9;
constexpr int kSetupsBefore = 5;
constexpr int kWarmupPerConnection = 2;
/// p99 needs 1000 samples (the percentile rule), so the window runs past
/// `seconds` until this many requests were answered, up to kMaxWindow.
constexpr uint64_t kMinRequests = 1000;
constexpr double kMaxWindowSeconds = 120.0;
/// Window statistics are interquartile means over up to this many
/// sub-windows; p99 needs 1000 requests in each.
constexpr int kSubWindows = 3;
/// Sequential requests of the uncontended probe (traced runs).
constexpr int kProbeRequests = 100;
/// The served release is a fixed input: its DP noise alone moves the
/// per-sample cost by up to 3x, which would swamp every comparison across
/// seeds. The workload seed picks the request streams.
constexpr uint64_t kDatasetSeed = 7;
constexpr uint64_t kFitSeed = 1;
const char* const kTenant = "bench";
const char* const kName = "epinions";

struct Setup {
  std::unique_ptr<Daemon> daemon;
  std::string artifact_path;
  pipeline::ReleaseArtifact artifact;
  double generate_s = 0.0;
  double fit_s = 0.0;
};

/// Generate -> fit fcl -> write artifact -> spawn daemon -> load.
util::Result<Setup> SetUp(const Options& options, Tracer& tracer) {
  Setup setup;
  const double t0 = NowSeconds();
  auto g = datasets::GenerateDataset(datasets::DatasetId::kEpinions,
                                     options.tiny ? 1e-6 : 0.1, kDatasetSeed);
  if (!g.ok()) return g.status();
  const double t1 = NowSeconds();
  pipeline::PipelineConfig config;
  config.model = "fcl";
  util::Rng rng(kFitSeed);
  auto artifact = pipeline::FitReleaseArtifact(g.value(), config, rng);
  if (!artifact.ok()) return artifact.status();
  const double t2 = NowSeconds();
  setup.artifact_path = options.workdir + "/epinions.artifact.json";
  if (auto st = pipeline::WriteReleaseArtifact(artifact.value(),
                                               setup.artifact_path);
      !st.ok()) {
    return st;
  }
  setup.artifact = std::move(artifact).value();
  const double t3 = NowSeconds();
  auto daemon = Daemon::Start(
      options.cli,
      {"--workers=4", "--engine-threads=1", "--tenant-budget=1000"},
      options.workdir + "/daemon.err");
  if (!daemon.ok()) return daemon.status();
  setup.daemon = std::move(daemon).value();
  const double t4 = NowSeconds();
  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = kTenant;
  load.name = kName;
  load.artifact = setup.artifact_path;
  auto loaded = setup.daemon->Call(load);
  if (!loaded.ok()) return loaded.status();
  if (!loaded.value().status.ok()) return loaded.value().status;
  const double t5 = NowSeconds();
  const int root = tracer.Add(MakeSpan("setup", t0, t5));
  tracer.Add(MakeSpan("datasets.generate", t0, t1, root));
  tracer.Add(MakeSpan("pipeline.fit", t1, t2, root));
  tracer.Add(MakeSpan("pipeline.artifact_write", t2, t3, root));
  tracer.Add(MakeSpan("server.daemon_start", t3, t4, root));
  tracer.Add(MakeSpan("server.load", t4, t5, root));
  setup.generate_s = t1 - t0;
  setup.fit_s = t2 - t1;
  return setup;
}

}  // namespace

void RunServe(const Options& options, WorkloadResult* result) {
  Tracer& tracer = result->tracer;
  Metrics& metrics = result->metrics;

  std::vector<double> setup_times, generate_times, fit_times;
  util::Result<Setup> setup = util::Status::Internal("no setup ran");
  for (int r = 0; r < kSetupsBefore; ++r) {
    if (setup.ok()) {
      // Only the last set-up stays up; earlier daemons are shut down.
      if (auto rss = setup.value().daemon->Shutdown(); !rss.ok()) {
        result->errors.push_back("shutdown: " + rss.status().ToString());
      }
    }
    const double t0 = NowSeconds();
    setup = SetUp(options, tracer);
    if (!setup.ok()) {
      result->errors.push_back("setup: " + setup.status().ToString());
      return;
    }
    setup_times.push_back(NowSeconds() - t0);
    generate_times.push_back(setup.value().generate_s);
    fit_times.push_back(setup.value().fit_s);
  }
  const Daemon& daemon = *setup.value().daemon;
  auto stats_before = daemon.Stats();

  // Closed loop. A traced run measures half the window untraced and half
  // traced; the difference of their median round trips is the overhead.
  std::vector<std::vector<Served>> per_connection(kConnections);
  std::vector<uint64_t> next_sequence(kConnections, 0);
  auto seed_of = [&options](int c) {
    return options.seed * 1000 + static_cast<uint64_t>(c) + 1;
  };
  auto run_phase = [&](double seconds, uint64_t min_requests, bool traced,
                       bool warmup) {
    std::atomic<uint64_t> answered{0};
    const double start = NowSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        util::Result<server::Client> client = daemon.Connect();
        while (true) {
          const double elapsed = NowSeconds() - start;
          if (warmup ? next_sequence[c] >= kWarmupPerConnection
                     : (elapsed >= seconds && answered.load() >= min_requests) ||
                           elapsed >= kMaxWindowSeconds) {
            break;
          }
          const uint64_t seq = next_sequence[c]++;
          const uint64_t id = static_cast<uint64_t>(c) * 1'000'000'000 + seq;
          Served s = Exchange(daemon, &client,
                              SampleRequest(id, kTenant, kName, seed_of(c), seq));
          s.measured = !warmup;
          s.traced = traced;
          if (traced) {
            s.span = tracer.Add(MakeSpan("serve.request", s.start, s.end, -1, id));
          }
          per_connection[c].push_back(std::move(s));
          answered.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return std::pair<double, double>(start, NowSeconds() - start);
  };
  run_phase(0.0, 0, false, true);
  std::pair<double, double> window;
  if (tracer.enabled()) {
    run_phase(options.seconds / 2, 0, false, false);
    run_phase(options.seconds / 2, 0, true, false);
  } else {
    window = run_phase(options.seconds, kMinRequests, false, false);
  }
  auto stats_after = daemon.Stats();

  // Uncontended probe (traced runs): one connection, sequential requests.
  std::vector<Served> probe;
  if (tracer.enabled()) {
    util::Result<server::Client> client = daemon.Connect();
    const uint64_t seed = options.seed * 1000 + 999;
    for (int i = 0; i < kProbeRequests; ++i) {
      probe.push_back(Exchange(daemon, &client,
                               SampleRequest(9'000'000'000 + i, kTenant, kName,
                                             seed, static_cast<uint64_t>(i))));
    }
  }
  auto rss = setup.value().daemon->Shutdown();
  if (!rss.ok()) {
    result->errors.push_back("daemon shutdown: " + rss.status().ToString());
  }
  // The remaining set-ups, torn down at once (see kSetupsBefore).
  for (int r = kSetupsBefore; r < kSetupRepeats; ++r) {
    const double t0 = NowSeconds();
    auto extra = SetUp(options, tracer);
    if (!extra.ok()) {
      result->errors.push_back("setup: " + extra.status().ToString());
      break;
    }
    setup_times.push_back(NowSeconds() - t0);
    generate_times.push_back(extra.value().generate_s);
    fit_times.push_back(extra.value().fit_s);
    if (auto down = extra.value().daemon->Shutdown(); !down.ok()) {
      result->errors.push_back("shutdown: " + down.status().ToString());
    }
  }

  // Correctness, outside every timed window.
  std::vector<Served> all;
  for (const auto& list : per_connection) all.insert(all.end(), list.begin(), list.end());
  const size_t measured_end = all.size();
  all.insert(all.end(), probe.begin(), probe.end());
  std::vector<Served*> to_verify;
  for (Served& s : all) to_verify.push_back(&s);
  VerifyAgainstOracle(setup.value().artifact, to_verify,
                      util::AvailableConcurrency(), &result->errors);

  std::vector<WindowOp> window_ops;
  std::vector<double> untraced_rtt, traced_rtt, probe_rtt;
  for (size_t i = 0; i < all.size(); ++i) {
    const Served& s = all[i];
    if (i >= measured_end) {
      if (s.status.ok()) probe_rtt.push_back(s.end - s.start);
      continue;
    }
    if (!s.measured) {
      if (!s.status.ok()) result->errors.push_back("warm-up request failed");
      continue;
    }
    const Outcome outcome = Classify(s.status);
    result->ops.Add(outcome);
    window_ops.push_back({s.end, 1e3 * (s.end - s.start), outcome, 0});
    if (outcome == Outcome::kOk) {
      (s.traced ? traced_rtt : untraced_rtt).push_back(s.end - s.start);
    }
  }
  if (result->ops.missed() > 0) {
    result->errors.push_back(std::to_string(result->ops.missed()) +
                             " sample requests failed or were refused");
  }

  if (!tracer.enabled()) {
    metrics.Set("setup_s", Median(setup_times), "s");
    result->trials["setup_s"] = setup_times;
    metrics.Set("success_rate", result->ops.success_rate(), "ratio");
    metrics.Set("peak_rss_mb", rss.ok() ? rss.value() : 0.0, "MiB");
    if (auto st = SetWindowMetrics(window_ops, window.first, window.second,
                                   kSubWindows,
                                   {{"latency_p50_ms", -1, 50.0},
                                    {"latency_p99_ms", -1, 99.0}},
                                   &metrics);
        !st.ok()) {
      result->errors.push_back(st.ToString());
    }
    return;
  }

  // Per-layer costs, each measured in-process and uncontended.
  Metrics traced;
  traced.Set("datasets.generate_s", Median(generate_times), "s");
  traced.Set("pipeline.fit_s", Median(fit_times), "s");
  const pipeline::ReleaseArtifact& artifact = setup.value().artifact;
  pipeline::EngineOptions engine_options;
  engine_options.threads = 1;  // the daemon's --engine-threads
  std::unique_ptr<pipeline::ReleaseEngine> engine;
  traced.Set("pipeline.engine_create_s", MedianTime(3, [&](int) {
               auto created =
                   pipeline::ReleaseEngine::Create(artifact, engine_options);
               if (created.ok()) engine = std::move(created).value();
             }),
             "s");
  if (engine == nullptr) {
    result->errors.push_back("in-process engine failed");
    return;
  }
  const uint64_t probe_seed = options.seed * 1000 + 777;
  std::vector<graph::AttributedGraph> graphs;
  const double sample_many = MedianTime(31, [&](int i) {
    pipeline::SampleRequest base;
    base.seed = probe_seed;
    base.sequence = static_cast<uint64_t>(i);
    auto g = engine->SampleMany(1, base);
    if (g.ok()) graphs.push_back(std::move(g.value()[0]));
  });
  const double checksum = MedianTime(31, [&](int i) {
    volatile uint64_t sink = server::GraphChecksum(graphs[static_cast<size_t>(i) % graphs.size()]);
    (void)sink;
  });
  const server::Request request =
      SampleRequest(12345, kTenant, kName, probe_seed, 0);
  const std::string request_line = server::SerializeRequest(request);
  const double parse_request = MedianTime(201, [&](int) {
    auto parsed = server::ParseRequest(request_line);
    (void)parsed;
  });
  server::Response response;
  response.id = request.id;
  response.graphs.push_back({graphs[0].num_nodes(), graphs[0].num_edges(),
                             server::GraphChecksum(graphs[0]), ""});
  const double serialize_response = MedianTime(201, [&](int) {
    const std::string line = server::SerializeResponse(response);
    (void)line;
  });
  const std::string response_line = server::SerializeResponse(response);
  const double parse_response = MedianTime(201, [&](int) {
    auto parsed = server::ParseResponse(response_line);
    (void)parsed;
  });
  // Uncontended Server::Handle on an in-process daemon with the same
  // options and release.
  server::ServerOptions server_options;
  server_options.worker_threads = kConnections;
  server_options.engine_threads = 1;
  server_options.default_tenant_budget = 1000;
  double handle = 0.0;
  if (auto in_process = server::Server::Start(server_options); in_process.ok()) {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.tenant = kTenant;
    load.name = kName;
    load.artifact = setup.value().artifact_path;
    const server::Response loaded = in_process.value()->Handle(load);
    if (!loaded.status.ok()) result->errors.push_back("in-process load failed");
    handle = MedianTime(31, [&](int i) {
      in_process.value()->Handle(SampleRequest(
          static_cast<uint64_t>(i), kTenant, kName, probe_seed + 1,
          static_cast<uint64_t>(i)));
    });
    in_process.value()->Stop();
    in_process.value()->Wait();
  } else {
    result->errors.push_back("in-process server: " +
                             in_process.status().ToString());
  }
  const double rtt_uncontended = Median(probe_rtt);
  traced.Set("pipeline.sample_many_s", sample_many, "s");
  traced.Set("server.parse_request_s", parse_request, "s");
  traced.Set("server.serialize_response_s", serialize_response, "s");
  traced.Set("server.parse_response_s", parse_response, "s");
  traced.Set("server.checksum_s", checksum, "s");
  traced.Set("server.handle_s", handle, "s");
  traced.Set("server.rtt_uncontended_s", rtt_uncontended, "s");
  traced.Set("server.wait_s", Median(traced_rtt) - rtt_uncontended, "s");
  if (stats_before.ok() && stats_after.ok()) {
    auto delta = [&](const char* key) {
      return stats_after.value()[key] - stats_before.value()[key];
    };
    traced.Set("server.batched_share",
               delta("batched_requests") / std::max(1.0, delta("requests")),
               "ratio");
    traced.Set("server.rejected_queue_full", delta("rejected_queue_full"),
               "count");
    traced.Set("cache.hits", delta("cache_hits"), "count");
    traced.Set("cache.misses", delta("cache_misses"), "count");
  }

  // Attribution: each traced request's round trip splits into the
  // uncontended layer costs above, the wait it spent beyond an
  // uncontended round trip, and the unexplained transport remainder.
  const std::vector<Component> components = {
      {"server.parse_request", parse_request},
      {"server.handle", handle},
      {"pipeline.sample_many", sample_many, 1},
      {"server.checksum", checksum, 1},
      {"server.serialize_response", serialize_response},
      {"server.parse_response", parse_response},
  };
  std::vector<Span> window_spans;
  for (const Served& s : all) {
    if (!s.traced || !s.measured || !s.status.ok()) continue;
    AppendGroup(ModelRequest(s, "serve.request", "server.wait",
                             rtt_uncontended, components),
                &window_spans, &tracer, s.span);
  }
  AddLayerMetrics(window_spans, traced_rtt.size(), &traced);
  traced.Set("trace.overhead_s", Median(traced_rtt) - Median(untraced_rtt),
             "s");
  metrics = traced;
}

}  // namespace agmdp::perfbench
