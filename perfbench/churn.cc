// `churn`: registry-backed load / sample / unload cycles over 250 tiny
// releases of three mechanisms, then daemon restarts over the journal the
// run left behind.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.h"
#include "src/datasets/datasets.h"
#include "src/graph/graph_source.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/registry/artifact_registry.h"
#include "src/server/engine_cache.h"
#include "src/server/server.h"
#include "src/server/tenant_ledger.h"
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
constexpr int kSamplesPerLoad = 4;
/// Restart time is bimodal on the reference box (about 40 or 55 ms), so
/// it is reported as the interquartile mean of this many restarts.
constexpr int kRestarts = 20;
/// Load / sample x4 / unload cycles per connection per second of
/// --seconds: about that many seconds of work on the reference box.
constexpr double kCyclesPerSecond = 100.0;
constexpr double kMaxWindowSeconds = 120.0;
/// Window statistics are interquartile means over up to this many
/// sub-windows; every one holds over 1000 sample requests, enough for p99.
constexpr int kSubWindows = 8;
/// The LastFM stand-in and the 250 releases are fixed inputs: a fit's DP
/// noise moves its sampler's cost several-fold, which would swamp every
/// comparison across seeds. The workload seed picks the sample streams.
constexpr uint64_t kDatasetSeed = 7;
constexpr uint64_t kFitSeed = 1;
/// Sequential load / sample / unload cycles of the uncontended probe.
constexpr int kProbeCycles = 24;
const char* const kDataset = "lastfm";

/// The release mix: agm/fcl, community_dp and kanon_baseline in turn.
struct ReleaseSpec {
  std::string name;
  std::string mechanism;
  double epsilon = 0.0;
};

std::vector<ReleaseSpec> ReleaseMix(const Options& options) {
  const int count = options.tiny ? 12 : 250;
  const char* const mechanisms[] = {"agm", "community_dp", "kanon_baseline"};
  std::vector<ReleaseSpec> mix;
  for (int i = 0; i < count; ++i) {
    // A distinct epsilon per release, so every Put is a fresh charge.
    mix.push_back({"r" + std::to_string(i), mechanisms[i % 3],
                   0.5 + 0.001 * static_cast<double>(i)});
  }
  return mix;
}

struct Setup {
  std::unique_ptr<Daemon> daemon;
  std::string registry_path;
  std::vector<pipeline::ReleaseArtifact> artifacts;
  double generate_s = 0.0;
  double write_s = 0.0;
  std::vector<double> fit_s;
  std::vector<double> put_s;
};

std::vector<std::string> DaemonArgs(const std::string& registry_path) {
  return {"--workers=4", "--engine-threads=1", "--tenant-budget=1000000",
          "--registry=" + registry_path};
}

/// Generate -> write container -> open -> 250 fits -> Put each into a
/// fresh fsync'd registry -> spawn the daemon over it.
util::Result<Setup> SetUp(const Options& options, int repeat,
                          Tracer& tracer) {
  Setup setup;
  const double t0 = NowSeconds();
  const int root = tracer.Add(MakeSpan("setup", t0, t0));
  auto g = datasets::GenerateDataset(datasets::DatasetId::kLastFm, 1e-6,
                                     kDatasetSeed);
  if (!g.ok()) return g.status();
  const double t1 = NowSeconds();
  const std::string input = options.workdir + "/lastfm.agmbin";
  if (auto st = graph::WriteGraph(g.value(), input); !st.ok()) return st;
  const double t2 = NowSeconds();
  tracer.Add(MakeSpan("datasets.generate", t0, t1, root));
  tracer.Add(MakeSpan("graph.container_write", t1, t2, root));
  setup.generate_s = t1 - t0;
  setup.write_s = t2 - t1;
  auto source = graph::GraphSource::Open(input);
  if (!source.ok()) return source.status();
  const graph::AttributedGraph graph = source.value().Materialize();

  setup.registry_path =
      options.workdir + "/churn_" + std::to_string(repeat) + ".reg";
  std::remove(setup.registry_path.c_str());
  registry::RegistryOptions registry_options;
  registry_options.fsync = true;
  auto registry =
      registry::ArtifactRegistry::Open(setup.registry_path, registry_options);
  if (!registry.ok()) return registry.status();
  for (const ReleaseSpec& spec : ReleaseMix(options)) {
    pipeline::PipelineConfig config;
    config.mechanism = spec.mechanism;
    config.model = "fcl";
    config.epsilon = spec.epsilon;
    util::Rng rng(kFitSeed * 7919 + setup.artifacts.size());
    const double f0 = NowSeconds();
    auto artifact = pipeline::FitReleaseArtifact(graph, config, rng);
    if (!artifact.ok()) return artifact.status();
    const double f1 = NowSeconds();
    if (auto st = registry.value()->Put(kDataset, spec.name, artifact.value());
        !st.ok()) {
      return st;
    }
    const double f2 = NowSeconds();
    tracer.Add(MakeSpan(spec.mechanism == "agm" ? "pipeline.fit"
                                                : "mechanisms.fit",
                        f0, f1, root));
    tracer.Add(MakeSpan("registry.put", f1, f2, root));
    setup.fit_s.push_back(f1 - f0);
    setup.put_s.push_back(f2 - f1);
    setup.artifacts.push_back(std::move(artifact).value());
  }
  registry.value().reset();  // releases the file lock for the daemon
  const double t3 = NowSeconds();
  auto daemon = Daemon::Start(options.cli, DaemonArgs(setup.registry_path),
                              options.workdir + "/daemon.err");
  if (!daemon.ok()) return daemon.status();
  setup.daemon = std::move(daemon).value();
  const double t4 = NowSeconds();
  tracer.Add(MakeSpan("server.daemon_start", t3, t4, root));
  return setup;
}

enum class OpKind { kLoad, kSample, kUnload };

server::Request LoadRequest(uint64_t id, const std::string& tenant,
                            const std::string& name) {
  server::Request request;
  request.op = server::RequestOp::kLoad;
  request.id = id;
  request.tenant = tenant;
  request.name = name;
  request.dataset = kDataset;
  return request;
}

server::Request UnloadRequest(uint64_t id, const std::string& name) {
  server::Request request;
  request.op = server::RequestOp::kUnload;
  request.id = id;
  request.name = name;
  return request;
}

struct Op {
  OpKind kind = OpKind::kLoad;
  size_t release = 0;
  Served served;
};

/// One load / sample x4 / unload cycle on `client`. Sample sequences come
/// from `sequence` (per release), so every sample is a fresh request.
void Cycle(const Daemon& daemon, util::Result<server::Client>* client,
           const std::string& tenant, size_t release, const std::string& name,
           uint64_t seed, uint64_t* sequence, uint64_t* next_id,
           std::vector<Op>* ops) {
  ops->push_back({OpKind::kLoad, release,
                  Exchange(daemon, client, LoadRequest((*next_id)++, tenant, name))});
  for (int k = 0; k < kSamplesPerLoad; ++k) {
    ops->push_back({OpKind::kSample, release,
                    Exchange(daemon, client,
                             SampleRequest((*next_id)++, tenant, name, seed,
                                           (*sequence)++))});
  }
  ops->push_back({OpKind::kUnload, release,
                  Exchange(daemon, client, UnloadRequest((*next_id)++, name))});
}

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad:
      return "load";
    case OpKind::kSample:
      return "sample";
    case OpKind::kUnload:
      return "unload";
  }
  return "?";
}

}  // namespace

void RunChurn(const Options& options, WorkloadResult* result) {
  Tracer& tracer = result->tracer;
  Metrics& metrics = result->metrics;
  const std::vector<ReleaseSpec> mix = ReleaseMix(options);

  std::vector<double> setup_times;
  util::Result<Setup> setup = util::Status::Internal("no setup ran");
  for (int r = 0; r < kSetupsBefore; ++r) {
    if (setup.ok()) {
      if (auto rss = setup.value().daemon->Shutdown(); !rss.ok()) {
        result->errors.push_back("shutdown: " + rss.status().ToString());
      }
    }
    const double t0 = NowSeconds();
    setup = SetUp(options, r, tracer);
    if (!setup.ok()) {
      result->errors.push_back("setup: " + setup.status().ToString());
      return;
    }
    setup_times.push_back(NowSeconds() - t0);
  }
  Setup& s = setup.value();
  auto stats_before = s.daemon->Stats();

  // Closed loop: connection c cycles through releases c, c+4, c+8, ...
  // Each pass over its share uses a new tenant, so every load is a fresh,
  // journaled tenant charge. The work is fixed (kCyclesPerSecond per
  // connection per second of --seconds, about --seconds on the reference
  // box) so the journal the restarts replay has the same size on every
  // build; a faster build finishes sooner.
  std::vector<std::vector<Op>> per_connection(kConnections);
  std::vector<uint64_t> sequence(mix.size(), 0);
  std::vector<int> pass(kConnections, 0);
  std::vector<size_t> cursor(kConnections, 0);
  auto seed_of = [&options](size_t release) {
    return options.seed * 100000 + release;
  };
  auto run_phase = [&](int cycles, bool traced) {
    const double start = NowSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        util::Result<server::Client> client = s.daemon->Connect();
        uint64_t next_id = static_cast<uint64_t>(c + 1) * 1'000'000'000 +
                           per_connection[c].size();
        for (int n = 0; n < cycles; ++n) {
          if (NowSeconds() - start >= kMaxWindowSeconds) break;
          size_t release = static_cast<size_t>(c) + kConnections * cursor[c];
          if (release >= mix.size()) {
            cursor[c] = 0;
            ++pass[c];
            release = static_cast<size_t>(c);
          }
          ++cursor[c];
          const std::string tenant =
              "c" + std::to_string(c) + "p" + std::to_string(pass[c]);
          const size_t first = per_connection[c].size();
          Cycle(*s.daemon, &client, tenant, release, mix[release].name,
                seed_of(release), &sequence[release], &next_id,
                &per_connection[c]);
          for (size_t i = first; i < per_connection[c].size(); ++i) {
            Op& op = per_connection[c][i];
            op.served.measured = true;
            op.served.traced = traced;
            if (traced) {
              op.served.span = tracer.Add(
                  MakeSpan(std::string("churn.") + KindName(op.kind),
                           op.served.start, op.served.end, -1, op.served.id));
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return std::pair<double, double>(start, NowSeconds() - start);
  };
  const int cycles = std::max(
      1, static_cast<int>(std::lround(options.seconds * kCyclesPerSecond)));
  std::pair<double, double> window;
  if (tracer.enabled()) {
    run_phase(cycles / 2, false);
    run_phase(cycles - cycles / 2, true);
  } else {
    window = run_phase(cycles, false);
  }
  auto stats_after = s.daemon->Stats();
  auto rss = s.daemon->Shutdown();
  if (!rss.ok()) {
    result->errors.push_back("daemon shutdown: " + rss.status().ToString());
  }

  result->trials["window_s"] = {window.second};
  // Restarts over the journal the run left behind: spawn to first stats.
  std::vector<double> restarts;
  std::map<std::string, double> recovered;
  for (int r = 0; r < kRestarts; ++r) {
    const double t0 = NowSeconds();
    auto daemon = Daemon::Start(options.cli, DaemonArgs(s.registry_path),
                                options.workdir + "/daemon.err");
    auto stats = daemon.ok() ? daemon.value()->Stats()
                             : util::Result<std::map<std::string, double>>(
                                   daemon.status());
    const double t1 = NowSeconds();
    if (!stats.ok()) {
      result->errors.push_back("restart: " + stats.status().ToString());
      break;
    }
    restarts.push_back(t1 - t0);
    recovered = stats.value();
    if (r + 1 < kRestarts || !tracer.enabled()) {
      if (auto down = daemon.value()->Shutdown(); !down.ok()) {
        result->errors.push_back("restart shutdown: " + down.status().ToString());
      }
    } else {
      s.daemon = std::move(daemon).value();  // kept for the probe below
    }
  }

  // Uncontended probe on the restarted daemon (traced runs only).
  std::vector<Op> probe;
  if (tracer.enabled() && s.daemon != nullptr) {
    util::Result<server::Client> client = s.daemon->Connect();
    uint64_t next_id = 9'000'000'000;
    for (int i = 0; i < kProbeCycles; ++i) {
      const size_t release = static_cast<size_t>(i) % mix.size();
      Cycle(*s.daemon, &client, "probe" + std::to_string(i), release,
            mix[release].name, seed_of(release), &sequence[release], &next_id,
            &probe);
    }
    if (auto down = s.daemon->Shutdown(); !down.ok()) {
      result->errors.push_back("probe shutdown: " + down.status().ToString());
    }
  }
  // The remaining set-ups, torn down at once (see kSetupsBefore).
  for (int r = kSetupsBefore; r < kSetupRepeats; ++r) {
    const double t0 = NowSeconds();
    auto extra = SetUp(options, r, tracer);
    if (!extra.ok()) {
      result->errors.push_back("setup: " + extra.status().ToString());
      break;
    }
    setup_times.push_back(NowSeconds() - t0);
    if (auto down = extra.value().daemon->Shutdown(); !down.ok()) {
      result->errors.push_back("shutdown: " + down.status().ToString());
    }
  }

  // Correctness, outside every timed window: served samples equal the
  // oracle, and the restarted daemon recovered every charge.
  std::vector<Op*> all;
  for (auto& list : per_connection) {
    for (Op& op : list) all.push_back(&op);
  }
  for (Op& op : probe) all.push_back(&op);
  std::vector<std::vector<Served*>> samples_by_release(mix.size());
  for (Op* op : all) {
    if (op->kind == OpKind::kSample) {
      samples_by_release[op->release].push_back(&op->served);
    }
  }
  const double oracle_start = NowSeconds();
  // Releases are tiny, so the oracle parallelizes across releases.
  {
    const int workers = util::AvailableConcurrency();
    std::vector<std::vector<std::string>> errors(static_cast<size_t>(workers));
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t r = static_cast<size_t>(w); r < mix.size();
             r += static_cast<size_t>(workers)) {
          VerifyAgainstOracle(s.artifacts[r], samples_by_release[r], 1,
                              &errors[static_cast<size_t>(w)]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& list : errors) {
      result->errors.insert(result->errors.end(), list.begin(), list.end());
    }
  }
  result->trials["oracle_s"] = {NowSeconds() - oracle_start};
  uint64_t fresh_charges = 0;
  for (Op* op : all) {
    if (op->kind == OpKind::kLoad && op->served.status.ok() &&
        op->served.measured) {
      ++fresh_charges;
    }
  }
  if (recovered["registry_tenant_charges"] != static_cast<double>(fresh_charges)) {
    result->errors.push_back(
        "restart recovered " +
        std::to_string(recovered["registry_tenant_charges"]) +
        " tenant charges, the run made " + std::to_string(fresh_charges));
  }
  double expected_spend = 0.0;
  for (const pipeline::ReleaseArtifact& a : s.artifacts) {
    expected_spend += a.epsilon_spent;
  }
  const double spent = recovered[std::string("dataset_spent:") + kDataset];
  if (std::fabs(spent - expected_spend) > 1e-9 * std::max(1.0, expected_spend)) {
    result->errors.push_back("restart recovered dataset spend " +
                             std::to_string(spent) + ", expected " +
                             std::to_string(expected_spend));
  }

  std::vector<WindowOp> window_ops;
  std::map<OpKind, std::vector<double>> traced_rtt, untraced_rtt;
  // Uncontended round trips, per kind and (for loads) per mechanism.
  std::map<std::string, std::vector<double>> probe_rtt;
  auto probe_key = [&mix](const Op& op) {
    return std::string(KindName(op.kind)) +
           (op.kind == OpKind::kLoad ? "." + mix[op.release].mechanism : "");
  };
  for (Op* op : all) {
    const Served& sv = op->served;
    if (!sv.measured) {
      if (sv.status.ok()) probe_rtt[probe_key(*op)].push_back(sv.end - sv.start);
      else result->errors.push_back("probe request failed");
      continue;
    }
    const Outcome outcome = Classify(sv.status);
    result->ops.Add(outcome);
    window_ops.push_back({sv.end, 1e3 * (sv.end - sv.start), outcome,
                          static_cast<int>(op->kind)});
    if (outcome == Outcome::kOk) {
      (sv.traced ? traced_rtt : untraced_rtt)[op->kind].push_back(sv.end - sv.start);
    }
  }
  if (result->ops.missed() > 0) {
    result->errors.push_back(std::to_string(result->ops.missed()) +
                             " operations failed or were refused");
  }

  if (!tracer.enabled()) {
    metrics.Set("setup_s", Median(setup_times), "s");
    metrics.Set("success_rate", result->ops.success_rate(), "ratio");
    metrics.Set("peak_rss_mb", rss.ok() ? rss.value() : 0.0, "MiB");
    const int sample = static_cast<int>(OpKind::kSample);
    const int load = static_cast<int>(OpKind::kLoad);
    if (auto st = SetWindowMetrics(window_ops, window.first, window.second,
                                   kSubWindows,
                                   {{"latency_p50_ms", sample, 50.0},
                                    {"latency_p99_ms", sample, 99.0},
                                    {"load_latency_p50_ms", load, 50.0},
                                    {"load_latency_p95_ms", load, 95.0}},
                                   &metrics);
        !st.ok()) {
      result->errors.push_back(st.ToString());
    }
    metrics.Set("restart_s", InterquartileMean(restarts), "s");
    result->trials["restart_s"] = restarts;
    result->trials["setup_s"] = setup_times;
    return;
  }

  // Per-layer costs, measured in-process and uncontended on a copy of the
  // final journal (the daemons are down, so no lock is held).
  Metrics traced;
  traced.Set("datasets.generate_s", s.generate_s, "s");
  traced.Set("graph.container_write_s", s.write_s, "s");
  traced.Set("pipeline.fit_s", Median(s.fit_s), "s");
  traced.Set("registry.put_s", Median(s.put_s), "s");
  const std::string copy = options.workdir + "/churn_copy.reg";
  auto bytes = ReadFile(s.registry_path);
  if (!bytes.ok() || !WriteFile(copy, bytes.value()).ok()) {
    result->errors.push_back("cannot copy the registry journal");
    return;
  }
  registry::RegistryOptions registry_options;
  std::unique_ptr<registry::ArtifactRegistry> registry;
  traced.Set("registry.open_replay_s", MedianTime(3, [&](int) {
               registry.reset();
               auto opened = registry::ArtifactRegistry::Open(copy, registry_options);
               if (opened.ok()) registry = std::move(opened).value();
             }),
             "s");
  if (registry == nullptr) {
    result->errors.push_back("in-process registry open failed");
    return;
  }
  const double resolve = MedianTime(static_cast<int>(mix.size()), [&](int i) {
    auto resolved = registry->Resolve(kDataset, mix[static_cast<size_t>(i)].name);
    (void)resolved;
  });
  const double charge_tenant = MedianTime(32, [&](int i) {
    auto st = registry->ChargeTenant("layer" + std::to_string(i),
                                     static_cast<uint64_t>(i) + 1, 0.001);
    (void)st;
  });
  registry.reset();
  server::TenantLedger ledger(server::TenantLedgerOptions{1e6, {}});
  const double ledger_charge = MedianTime(201, [&](int i) {
    auto st = ledger.Charge("t" + std::to_string(i % 8),
                            static_cast<uint64_t>(i) + 1, 0.001);
    (void)st;
  });
  pipeline::EngineOptions engine_options;
  engine_options.threads = 1;  // the daemon's --engine-threads
  std::map<std::string, std::vector<double>> create_by_mechanism;
  std::vector<double> create_all;
  std::vector<std::shared_ptr<pipeline::ReleaseEngine>> engines;
  for (size_t r = 0; r < mix.size(); ++r) {
    const double t0 = NowSeconds();
    auto engine = pipeline::ReleaseEngine::Create(s.artifacts[r], engine_options);
    const double t1 = NowSeconds();
    if (!engine.ok()) continue;
    create_by_mechanism[mix[r].mechanism].push_back(t1 - t0);
    create_all.push_back(t1 - t0);
    if (engines.size() < 64) engines.push_back(std::move(engine).value());
  }
  server::EngineCache cache(256ull << 20);
  const double cache_insert = MedianTime(static_cast<int>(engines.size()), [&](int i) {
    auto st = cache.Insert("e" + std::to_string(i), engines[static_cast<size_t>(i)]);
    (void)st;
  });
  const double cache_erase = MedianTime(static_cast<int>(engines.size()), [&](int i) {
    auto st = cache.Erase("e" + std::to_string(i));
    (void)st;
  });
  std::vector<graph::AttributedGraph> graphs;
  const double sample_many = MedianTime(31, [&](int i) {
    pipeline::SampleRequest base;
    base.seed = options.seed + 77;
    base.sequence = static_cast<uint64_t>(i);
    auto g = engines[static_cast<size_t>(i) % engines.size()]->SampleMany(1, base);
    if (g.ok()) graphs.push_back(std::move(g.value()[0]));
  });
  const double checksum = MedianTime(31, [&](int i) {
    volatile uint64_t sink =
        server::GraphChecksum(graphs[static_cast<size_t>(i) % graphs.size()]);
    (void)sink;
  });
  const std::string request_line =
      server::SerializeRequest(LoadRequest(1, "tenant", mix[0].name));
  const double parse_request = MedianTime(201, [&](int) {
    auto parsed = server::ParseRequest(request_line);
    (void)parsed;
  });
  server::Response response;
  response.id = 1;
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
  // Uncontended Server::Handle of a sample, in process, over the copy.
  double handle = 0.0;
  {
    server::ServerOptions server_options;
    server_options.worker_threads = kConnections;
    server_options.engine_threads = 1;
    server_options.default_tenant_budget = 1e6;
    server_options.registry_path = copy;
    auto in_process = server::Server::Start(server_options);
    if (in_process.ok()) {
      const server::Response loaded =
          in_process.value()->Handle(LoadRequest(1, "handle", mix[0].name));
      if (!loaded.status.ok()) result->errors.push_back("in-process load failed");
      handle = MedianTime(31, [&](int i) {
        in_process.value()->Handle(SampleRequest(
            static_cast<uint64_t>(i), "handle", mix[0].name, options.seed + 99,
            static_cast<uint64_t>(i)));
      });
      in_process.value()->Stop();
      in_process.value()->Wait();
    } else {
      result->errors.push_back("in-process server: " +
                               in_process.status().ToString());
    }
  }

  traced.Set("registry.resolve_s", resolve, "s");
  traced.Set("registry.charge_tenant_s", charge_tenant, "s");
  traced.Set("server.ledger_charge_s", ledger_charge, "s");
  traced.Set("pipeline.engine_create_s", Median(create_all), "s");
  for (const auto& [mechanism, times] : create_by_mechanism) {
    traced.Set("pipeline.engine_create_s." + mechanism, Median(times), "s");
  }
  traced.Set("server.cache_insert_s", cache_insert, "s");
  traced.Set("server.cache_erase_s", cache_erase, "s");
  traced.Set("pipeline.sample_many_s", sample_many, "s");
  traced.Set("server.checksum_s", checksum, "s");
  traced.Set("server.parse_request_s", parse_request, "s");
  traced.Set("server.serialize_response_s", serialize_response, "s");
  traced.Set("server.parse_response_s", parse_response, "s");
  traced.Set("server.handle_s", handle, "s");
  std::vector<double> load_waits;
  for (Op* op : all) {
    if (op->kind == OpKind::kLoad && op->served.traced && op->served.status.ok()) {
      load_waits.push_back(op->served.end - op->served.start -
                           Median(probe_rtt[probe_key(*op)]));
    }
  }
  traced.Set("server.load_wait_s", Median(load_waits), "s");
  if (stats_before.ok() && stats_after.ok()) {
    auto delta = [&](const char* key) {
      return stats_after.value()[key] - stats_before.value()[key];
    };
    traced.Set("registry.fsyncs_per_load",
               delta("registry_appends") /
                   std::max<double>(1.0, static_cast<double>(fresh_charges)),
               "count");
    traced.Set("server.batched_share",
               delta("batched_requests") / std::max(1.0, delta("requests")),
               "ratio");
    traced.Set("server.rejected_queue_full", delta("rejected_queue_full"),
               "count");
    traced.Set("cache.hits", delta("cache_hits"), "count");
    traced.Set("cache.misses", delta("cache_misses"), "count");
  }

  // Attribution of every traced operation's round trip.
  const std::vector<Component> io = {
      {"server.parse_request", parse_request},
      {"server.serialize_response", serialize_response},
      {"server.parse_response", parse_response}};
  auto with = [&io](std::vector<Component> c) {
    c.insert(c.end(), io.begin(), io.end());
    return c;
  };
  std::vector<Span> window_spans;
  size_t traced_ops = 0;
  for (Op* op : all) {
    const Served& sv = op->served;
    if (!sv.traced || !sv.measured || !sv.status.ok()) continue;
    ++traced_ops;
    std::vector<Component> components;
    std::string wait = "server.wait";
    switch (op->kind) {
      case OpKind::kLoad:
        wait = "server.load_wait";
        components = with({{"registry.resolve", resolve},
                           {"server.ledger_charge", ledger_charge},
                           {"registry.charge_tenant", charge_tenant},
                           {"pipeline.engine_create",
                            Median(create_by_mechanism[mix[op->release].mechanism])},
                           {"server.cache_insert", cache_insert}});
        break;
      case OpKind::kSample:
        components = with({{"server.handle", handle},
                           {"pipeline.sample_many", sample_many, 0},
                           {"server.checksum", checksum, 0}});
        break;
      case OpKind::kUnload:
        components = with({{"server.cache_erase", cache_erase}});
        break;
    }
    AppendGroup(ModelRequest(sv, std::string("churn.") + KindName(op->kind),
                             wait, Median(probe_rtt[probe_key(*op)]),
                             components),
                &window_spans, &tracer, sv.span);
  }
  AddLayerMetrics(window_spans, traced_ops, &traced);
  std::vector<double> traced_all, untraced_all;
  for (auto& [kind, v] : traced_rtt) traced_all.insert(traced_all.end(), v.begin(), v.end());
  for (auto& [kind, v] : untraced_rtt) untraced_all.insert(untraced_all.end(), v.begin(), v.end());
  traced.Set("trace.overhead_s", Median(traced_all) - Median(untraced_all), "s");
  metrics = traced;
}

}  // namespace agmdp::perfbench
