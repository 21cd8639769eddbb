// agmdp — command-line front end for the library.
//
// All private-release subcommands route through pipeline::RunPrivateRelease
// and friends, so every epsilon spend is recorded in one PrivacyAccountant
// ledger (printed after each fit).
//
// Subcommands:
//   generate   --dataset=lastfm --scale=1.0 --seed=7 --out=PREFIX
//              Generate a synthetic stand-in dataset (writes PREFIX.edges /
//              PREFIX.attrs).
//   fit        --in=PREFIX --epsilon=0.69 [--mechanism=NAME] [--model=NAME]
//              [--k-anonymity=K] [--t-closeness=T] [--community-blocks=B]
//              [--artifact-out=FILE]
//              Fit a private release under the named mechanism (default
//              agm; see `agmdp models` for the registry) and write it as a
//              mechanism-tagged release artifact (JSON: parameters + budget
//              ledger + config fingerprint; see release_artifact.h). This
//              is the only step that touches the sensitive data.
//              --k-anonymity/--t-closeness tune kanon_baseline,
//              --community-blocks tunes community_dp (0 = auto).
//   sample     --artifact=FILE --out=PREFIX [--samples=N] [--seed=1]
//              [--serve-threads=T] [--refine_iters=R] [--cold]
//              Serve synthetic graphs from a stored artifact through a
//              ReleaseEngine (pure post-processing; repeatable at no extra
//              privacy cost). N > 1 writes PREFIX_0 .. PREFIX_<N-1> via
//              the engine's batched SampleMany, parallelized across
//              samples by --serve-threads; with N = 1, --threads still
//              sets the intra-sample sampler workers. --cold disables the
//              calibrated warm start (full per-sample acceptance loop).
//   synthesize --in=PREFIX --epsilon=0.69 --out=PREFIX2 [--model=NAME]
//              [--threads=T]
//              fit + sample in one step, with stage timings.
//   models     List the registered release mechanisms and structural
//              models.
//   stats      --in=PREFIX [--analytics-threads=T] [--bfs_samples=64]
//              [--seed=1]
//              Structural summary, assortativity and path statistics,
//              computed on an immutable CsrGraph snapshot.
//   evaluate   --in=PREFIX --synthetic=PREFIX2 [--analytics-threads=T]
//              The full utility metric suite (src/eval) between two graphs
//              (one CsrGraph snapshot per side, reused by every metric).
//   sweep      --datasets=lastfm,petster --models=fcl,tricycle
//              --eps=0.2,0.69,1.1 [--mechanisms=agm,community_dp,...]
//              [--repeats=3] [--scale=0.1] [--seed=1]
//              [--threads=1] [--sampler-threads=1] [--accept_iters=2]
//              [--analytics-threads=1] [--reuse-fit]
//              [--out=BENCH_sweep.json] [--no-timing]
//              Run the multi-scenario sweep engine over the dataset ×
//              mechanism × model × epsilon grid (repeats fully accounted
//              releases per cell, deterministic per-cell RNG substreams,
//              cells parallelized over --threads workers) and write
//              per-cell mean/stddev of every utility metric plus a
//              cross-mechanism utility ranking as BENCH_sweep.json
//              (schema agmdp.sweep.v4). --mechanisms ranks competing
//              publication schemes on the same grid ("agm" expands over
//              --models; other mechanisms ignore it). With a fixed seed
//              the JSON is byte-identical across runs (timing fields aside;
//              --no-timing omits them entirely).
//   serve      [--port=0] [--host=127.0.0.1] [--workers=2]
//              [--engine-threads=1] [--queue=64] [--cache-mb=256]
//              [--tenant-budget=EPS] [--budgets=alice:1.5,bob:0.7]
//              [--port-file=FILE] [--registry=FILE]
//              [--dataset-cap=EPS] [--dataset-caps=lastfm:2.0]
//              [--read-timeout-ms=30000]
//              [--idle-timeout-ms=300000] [--write-timeout-ms=30000]
//              Run the multi-tenant sampling daemon (src/server): engines
//              behind a byte-budgeted LRU cache, per-tenant epsilon
//              ledger, bounded admission queue, batched SampleMany
//              serving. --port=0 picks an ephemeral port; --port-file
//              writes the bound port for scripts. With --registry every
//              tenant charge is journaled durably before the load is
//              acknowledged and the ledger is rebuilt from the journal on
//              restart; clients can then load by --dataset/--name instead
//              of a file path. The timeout flags bound slow or idle
//              connections (slow-loris defense). Blocks until a client
//              sends the shutdown op; SIGTERM/SIGINT drain gracefully
//              (stop accepting, flush queued responses, checkpoint the
//              registry).
//   client     --port=P --op=load|sample|pin|unpin|unload|stats|shutdown
//              [--host=127.0.0.1] [--tenant=T] [--name=M] [--artifact=F]
//              [--dataset=D] [--samples=N] [--seed=1] [--sequence=0]
//              [--refine_iters=-1] [--out=PREFIX] [--timeout-ms=30000]
//              [--retries=1]
//              One request against a running daemon; prints the response
//              and exits 0 on success, 1 when the server answers an error.
//              --dataset makes `load` resolve (dataset, name) from the
//              daemon's registry instead of reading --artifact. All ops
//              are idempotent, so --retries=N>1 turns transport failures
//              (Unavailable / DeadlineExceeded) into jittered-backoff
//              reconnect attempts.
//   registry   agmdp registry <put|list|show|gc|checkpoint>
//              --registry=FILE [--artifact=F --dataset=D --name=M]
//              [--dataset-cap=EPS] [--dataset-caps=lastfm:2.0]
//              Operate on the durable artifact registry offline: `put`
//              registers a fitted artifact under (dataset, name) and
//              charges its epsilon against the dataset's lifetime cap
//              (idempotent per release key), `list` prints artifacts
//              (with their mechanism tags), per-dataset budget posture,
//              and the per-config fingerprint history — every release ever
//              bound to each (dataset, name), superseded ones included —
//              `show` prints one artifact's JSON, `gc` drops an artifact
//              (the charge remains — privacy loss is not refundable),
//              `checkpoint` compacts the journal.
//   convert    agmdp convert <text> <bin.agmbin>   (or --in= / --out=)
//              Streaming text -> binary container conversion (constant
//              heap in the edge count; see graph/graph_container.h).
//   info       agmdp info <bin.agmbin>
//              Print container header facts (version, page size/count,
//              nodes/edges/attribute width) and verify every checksum;
//              exits 1 when the file is damaged.
//   export     --in=PREFIX --out=FILE.graphml
//              GraphML export for external tools.
//   help       List every subcommand with a one-line example.
//
// Every --in/--synthetic input goes through graph::GraphSource::Open, so
// a text `PREFIX` and a binary `FILE.agmbin` are interchangeable
// everywhere; --out paths ending in ".agmbin" write binary containers.
//
// --model accepts any registry name (see `agmdp models`); --threads sets
// the sampler worker count (0 = hardware concurrency) — output is
// identical for a given seed at any thread count. An unknown subcommand
// exits non-zero with the closest-matching suggestion.
//
// Exit codes: 0 success, 1 runtime failure (a fit/sample/serve step
// returned an error), 2 usage error (unknown subcommand, a flag the
// subcommand does not accept — the message names the closest one —,
// malformed or out-of-range flag value, unreadable input named on the
// command line, or a retired flag: fit --params-out and sample --params
// were superseded by release artifacts).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/datasets/datasets.h"
#include "src/eval/sweep_engine.h"
#include "src/eval/utility_report.h"
#include "src/graph/csr.h"
#include "src/graph/graph_container.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "src/graph/paths.h"
#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/registry/artifact_registry.h"
#include "src/util/fault_injector.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/stats/joint_degree.h"
#include "src/stats/summary.h"
#include "src/util/flags.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace {

using namespace agmdp;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Usage errors — malformed flags, unreadable inputs named on the command
/// line — exit 2 (like unknown subcommands), so scripts can tell "you
/// called me wrong" from "the pipeline failed".
int FailUsage(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

/// (name, one-line example, summary, accepted flags) for help, suggestions
/// and the unknown-flag check.
struct SubcommandDoc {
  const char* name;
  const char* example;
  const char* summary;
  std::vector<std::string> flags;
};

/// `extra` plus the flags ConfigFromFlags reads.
std::vector<std::string> WithConfigFlags(std::vector<std::string> extra) {
  for (const char* name :
       {"epsilon", "mechanism", "model", "k-anonymity", "t-closeness",
        "community-blocks", "threads", "accept_iters", "truncation_k"}) {
    extra.emplace_back(name);
  }
  return extra;
}

const std::vector<SubcommandDoc>& Subcommands() {
  // The retired --params-out / --params stay accepted names, so they fail
  // with their own message instead of the unknown-flag one.
  static const std::vector<SubcommandDoc> docs = {
      {"generate", "agmdp generate --dataset=lastfm --scale=0.1 --out=data",
       "generate a synthetic stand-in dataset",
       {"dataset", "scale", "seed", "out"}},
      {"fit",
       "agmdp fit --in=data --epsilon=0.69 --model=fcl "
       "--artifact-out=release.artifact.json",
       "learn DP parameters, write a release artifact (the only step that "
       "reads the data)",
       WithConfigFlags({"in", "seed", "artifact-out", "params-out"})},
      {"sample",
       "agmdp sample --artifact=release.artifact.json --samples=4 "
       "--out=synthetic",
       "serve synthetic graphs from an artifact (free post-processing)",
       WithConfigFlags({"artifact", "samples", "serve-threads",
                        "refine_iters", "refine-iters", "seed", "cold",
                        "out", "params"})},
      {"synthesize", "agmdp synthesize --in=data --epsilon=0.69 --out=syn",
       "fit + sample in one step, with stage timings",
       WithConfigFlags({"in", "seed", "out"})},
      {"models", "agmdp models",
       "list the registered release mechanisms and structural models",
       {}},
      {"stats", "agmdp stats --in=data",
       "structural summary and assortativity/path statistics",
       {"in", "analytics-threads", "seed", "bfs_samples"}},
      {"evaluate", "agmdp evaluate --in=data --synthetic=syn",
       "the full utility metric suite between two graphs",
       {"in", "synthetic", "analytics-threads"}},
      {"sweep",
       "agmdp sweep --datasets=lastfm --mechanisms=agm,community_dp "
       "--eps=0.3,0.69 --repeats=3 [--reuse-fit]",
       "dataset x mechanism x epsilon utility grid -> BENCH_sweep.json",
       {"datasets", "scale", "mechanisms", "models", "eps", "repeats",
        "threads", "sampler-threads", "accept_iters", "analytics-threads",
        "seed", "reuse-fit", "reuse_fit", "out", "no-timing"}},
      {"serve",
       "agmdp serve --port=7411 --cache-mb=256 --tenant-budget=2.0",
       "multi-tenant sampling daemon (engine cache + epsilon ledger)",
       {"host", "port", "workers", "engine-threads", "queue", "cache-mb",
        "tenant-budget", "budgets", "registry", "dataset-cap",
        "dataset-caps", "read-timeout-ms", "idle-timeout-ms",
        "write-timeout-ms", "port-file"}},
      {"client",
       "agmdp client --port=7411 --op=sample --name=m --samples=4 "
       "--out=syn",
       "one request against a running daemon",
       {"host", "port", "op", "tenant", "name", "dataset", "artifact",
        "seed", "sequence", "samples", "refine_iters", "out", "timeout-ms",
        "retries"}},
      {"registry",
       "agmdp registry put --registry=spend.reg "
       "--artifact=release.artifact.json --dataset=lastfm --name=m",
       "inspect or mutate the durable artifact registry offline",
       {"registry", "dataset-cap", "dataset-caps", "dataset", "name",
        "artifact"}},
      {"convert", "agmdp convert data data.agmbin",
       "streaming text -> checksummed binary container conversion",
       {"in", "out", "page-size"}},
      {"info", "agmdp info data.agmbin",
       "container header summary + full checksum verification",
       {"in"}},
      {"export", "agmdp export --in=data --out=graph.graphml",
       "GraphML export for external tools", {"in", "out"}},
      {"help", "agmdp help", "this overview", {}},
  };
  return docs;
}

int CmdHelp() {
  std::printf("usage: agmdp <subcommand> [--flags]\n\n");
  for (const SubcommandDoc& doc : Subcommands()) {
    std::printf("  %-10s %s\n  %-10s   %s\n", doc.name, doc.summary, "",
                doc.example);
  }
  std::printf(
      "\nThe full flag reference lives in the header of "
      "tools/agmdp_cli.cc.\n");
  return 0;
}

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// A flag the subcommand does not read is a usage error naming the closest
/// accepted flag: a typo such as --analytics-treads would otherwise run
/// with the default silently.
util::Status CheckFlags(const SubcommandDoc& doc, const util::Flags& flags) {
  for (const std::string& name : flags.names()) {
    if (std::find(doc.flags.begin(), doc.flags.end(), name) !=
        doc.flags.end()) {
      continue;
    }
    std::string message = "unknown flag --" + name + " for '" + doc.name + "'";
    const std::string* closest = nullptr;
    size_t best = ~size_t{0};
    for (const std::string& accepted : doc.flags) {
      const size_t distance = EditDistance(name, accepted);
      if (distance < best) {
        best = distance;
        closest = &accepted;
      }
    }
    message += closest != nullptr ? " — did you mean --" + *closest + "?"
                                  : ", which takes no flags";
    return util::Status::InvalidArgument(message);
  }
  return util::Status::OK();
}

int UnknownCommand(const std::string& command) {
  const SubcommandDoc* closest = nullptr;
  size_t best = ~size_t{0};
  for (const SubcommandDoc& doc : Subcommands()) {
    const size_t distance = EditDistance(command, doc.name);
    if (distance < best) {
      best = distance;
      closest = &doc;
    }
  }
  std::fprintf(stderr, "error: unknown subcommand '%s'", command.c_str());
  if (closest != nullptr && best <= 3) {
    std::fprintf(stderr, " — did you mean '%s'?", closest->name);
  }
  std::fprintf(stderr, "\nrun 'agmdp help' for the subcommand list\n");
  return 2;
}

int Usage() {
  std::fprintf(stderr, "usage: agmdp <subcommand> [--flags]\n");
  for (const SubcommandDoc& doc : Subcommands()) {
    std::fprintf(stderr, "  %s\n", doc.example);
  }
  return 2;
}

/// Every numeric flag goes through a checked getter plus a range check: a
/// malformed or out-of-range value ("--seed=abc", "--bfs_samples=-1") is a
/// typed InvalidArgument naming the flag, never a silent 0 or a wrapped
/// unsigned value.
util::Result<int64_t> IntFlag(const util::Flags& flags,
                              const std::string& name, int64_t fallback,
                              int64_t min,
                              int64_t max = std::numeric_limits<int>::max()) {
  auto value = flags.GetCheckedInt(name, fallback);
  if (value.ok() && (value.value() < min || value.value() > max)) {
    return util::Status::InvalidArgument(
        "--" + name + "=" + std::to_string(value.value()) + " must be in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

/// Seeds are uint64 internally; negative values are rejected rather than
/// wrapped.
util::Result<int64_t> SeedFlag(const util::Flags& flags, int64_t fallback) {
  return IntFlag(flags, "seed", fallback, 0,
                 std::numeric_limits<int64_t>::max());
}

/// The raw-params sidecar was retired in favor of release artifacts; its
/// flags are rejected by name instead of being silently ignored.
int RetiredFlag(const std::string& flag, const std::string& replacement) {
  return FailUsage(util::Status::InvalidArgument(
      "--" + flag + " was removed; release artifacts replace raw params "
      "files, use --" + replacement + "=FILE"));
}

util::Result<pipeline::PipelineConfig> ConfigFromFlags(
    const util::Flags& flags) {
  pipeline::PipelineConfig config;
  // Checked getters: a present-but-malformed value ("--threads=abc") is a
  // typed InvalidArgument naming the flag, never silently 0.
  auto epsilon = flags.GetCheckedDouble("epsilon", std::log(2.0));
  if (!epsilon.ok()) return epsilon.status();
  config.epsilon = epsilon.value();
  config.mechanism = flags.GetString("mechanism", "agm");
  config.model = flags.GetString("model", "tricycle");
  auto k_anonymity = IntFlag(flags, "k-anonymity", 0, 0);
  if (!k_anonymity.ok()) return k_anonymity.status();
  config.k_anonymity = static_cast<uint32_t>(k_anonymity.value());
  auto t_closeness = flags.GetCheckedDouble("t-closeness", 0.2);
  if (!t_closeness.ok()) return t_closeness.status();
  config.t_closeness = t_closeness.value();
  auto community_blocks = IntFlag(flags, "community-blocks", 0, 0);
  if (!community_blocks.ok()) return community_blocks.status();
  config.community_blocks = static_cast<uint32_t>(community_blocks.value());
  auto threads = IntFlag(flags, "threads", 1, 0);
  if (!threads.ok()) return threads.status();
  config.threads = static_cast<int>(threads.value());
  auto accept_iters =
      IntFlag(flags, "accept_iters", 3, 0, agm::kMaxAcceptanceIterations);
  if (!accept_iters.ok()) return accept_iters.status();
  config.acceptance_iterations = static_cast<int>(accept_iters.value());
  auto truncation_k = IntFlag(flags, "truncation_k", 0, 0);
  if (!truncation_k.ok()) return truncation_k.status();
  config.truncation_k = static_cast<uint32_t>(truncation_k.value());
  return config;
}

void PrintLedger(const pipeline::BudgetLedger& ledger, double budget) {
  double spent = 0.0;
  for (const auto& [label, eps] : ledger) {
    std::printf("  %-16s eps = %.4f\n", label.c_str(), eps);
    spent += eps;
  }
  std::printf("  %-16s eps = %.4f / %.4f\n", "total", spent, budget);
}

void PrintStageTimings(const std::vector<agm::StageSeconds>& stages) {
  for (const auto& stage : stages) {
    std::printf("  %-16s %8.3f ms\n", stage.stage.c_str(),
                1e3 * stage.seconds);
  }
}

/// All graph inputs come through GraphSource: `--in=` accepts a text
/// PREFIX or a binary .agmbin container interchangeably; every subcommand
/// reads its snapshot(), so a binary input stays in the mapping.
util::Result<graph::GraphSource> LoadSource(const util::Flags& flags,
                                            const std::string& flag_name) {
  const std::string path = flags.GetString(flag_name, "");
  if (path.empty()) {
    return util::Status::InvalidArgument("missing --" + flag_name + "=PATH");
  }
  return graph::GraphSource::Open(path);
}

int CmdGenerate(const util::Flags& flags) {
  const auto id =
      datasets::DatasetByName(flags.GetString("dataset", "lastfm"));
  auto scale = flags.GetCheckedDouble("scale", 1.0);
  if (!scale.ok()) return FailUsage(scale.status());
  auto seed = SeedFlag(flags, 7);
  if (!seed.ok()) return FailUsage(seed.status());
  auto g = datasets::GenerateDataset(id, scale.value(),
                                     static_cast<uint64_t>(seed.value()));
  if (!g.ok()) return Fail(g.status());
  const std::string out = flags.GetString("out", "dataset");
  if (auto st = graph::WriteGraph(g.value(), out); !st.ok()) {
    return Fail(st);
  }
  std::printf("%s\n",
              stats::FormatSummary(
                  out, stats::Summarize(graph::CsrGraph::FromGraph(
                           g.value().structure())))
                  .c_str());
  return 0;
}

int CmdFit(const util::Flags& flags) {
  if (flags.Has("params-out")) return RetiredFlag("params-out", "artifact-out");
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) return FailUsage(parsed.status());
  const pipeline::PipelineConfig config = parsed.value();
  auto input = LoadSource(flags, "in");
  if (!input.ok()) return FailUsage(input.status());
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());
  util::Rng rng(static_cast<uint64_t>(seed.value()));

  auto artifact =
      pipeline::FitReleaseArtifact(input.value().snapshot(), config, rng);
  if (!artifact.ok()) return Fail(artifact.status());
  // The default path is the one `agmdp sample` reads flaglessly.
  const std::string out =
      flags.GetString("artifact-out", "release.artifact.json");
  if (auto st = pipeline::WriteReleaseArtifact(artifact.value(), out);
      !st.ok()) {
    return Fail(st);
  }
  std::printf("fitted eps=%.4f release artifact (mechanism=%s, model=%s, "
              "fingerprint=%llu) -> %s\n",
              config.epsilon, artifact.value().mechanism.c_str(),
              artifact.value().model.c_str(),
              static_cast<unsigned long long>(
                  artifact.value().config_fingerprint),
              out.c_str());
  PrintLedger(artifact.value().ledger, artifact.value().epsilon_budget);
  return 0;
}

int CmdSample(const util::Flags& flags) {
  if (flags.Has("params")) return RetiredFlag("params", "artifact");
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) return FailUsage(parsed.status());
  const pipeline::PipelineConfig config = parsed.value();
  auto samples_flag = IntFlag(flags, "samples", 1, 1);
  if (!samples_flag.ok()) return FailUsage(samples_flag.status());
  const int samples = static_cast<int>(samples_flag.value());
  auto serve_threads =
      IntFlag(flags, "serve-threads", config.threads, 0);
  if (!serve_threads.ok()) return FailUsage(serve_threads.status());
  // Both spellings accepted (the table harness flags use underscores).
  const std::string refine_name =
      flags.Has("refine_iters") ? "refine_iters" : "refine-iters";
  auto refine =
      IntFlag(flags, refine_name, 0, 0, agm::kMaxAcceptanceIterations);
  if (!refine.ok()) return FailUsage(refine.status());
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());

  // Default matches fit's --artifact-out, so the flagless
  // `agmdp fit` -> `agmdp sample` round trip works out of the box. A
  // nonexistent or unparseable artifact is a usage error: the caller named
  // the wrong file, the pipeline never ran.
  auto loaded = pipeline::ReadReleaseArtifact(
      flags.GetString("artifact", "release.artifact.json"));
  if (!loaded.ok()) return FailUsage(loaded.status());
  pipeline::ReleaseArtifact artifact = std::move(loaded).value();
  if (flags.Has("model")) artifact.model = config.model;
  if (flags.Has("accept_iters")) {
    artifact.acceptance_iterations = config.acceptance_iterations;
  }

  pipeline::EngineOptions options;
  options.threads = static_cast<int>(serve_threads.value());
  options.calibrate = !flags.GetBool("cold", false);
  options.default_refine_iterations = static_cast<int>(refine.value());
  auto engine = pipeline::ReleaseEngine::Create(std::move(artifact), options);
  if (!engine.ok()) return Fail(engine.status());

  pipeline::SampleRequest base;
  base.seed = static_cast<uint64_t>(seed.value());
  util::Result<std::vector<graph::AttributedGraph>> graphs =
      std::vector<graph::AttributedGraph>{};
  if (samples == 1) {
    // A single request keeps --threads as *intra-sample* sampler workers
    // (the pre-serving behavior, 0 = hardware concurrency); batches
    // parallelize across samples instead. The bits are identical either
    // way.
    pipeline::SampleRequest request = base;
    request.threads = util::ResolveThreadCount(config.threads);
    auto g = engine.value()->Sample(request);
    if (!g.ok()) return Fail(g.status());
    graphs.value().push_back(std::move(g).value());
  } else {
    graphs = engine.value()->SampleMany(samples, base);
    if (!graphs.ok()) return Fail(graphs.status());
  }

  const std::string out = flags.GetString("out", "synthetic");
  for (int i = 0; i < samples; ++i) {
    const std::string prefix =
        samples == 1 ? out
                     : graph::NumberedGraphPath(out, static_cast<uint64_t>(i));
    const graph::AttributedGraph& g = graphs.value()[static_cast<size_t>(i)];
    if (auto st = graph::WriteGraph(g, prefix); !st.ok()) {
      return Fail(st);
    }
    std::printf("%s\n",
                stats::FormatSummary(
                    prefix,
                    stats::Summarize(graph::CsrGraph::FromGraph(g.structure())))
                    .c_str());
  }
  return 0;
}

int CmdSynthesize(const util::Flags& flags) {
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) return FailUsage(parsed.status());
  const pipeline::PipelineConfig config = parsed.value();
  auto input = LoadSource(flags, "in");
  if (!input.ok()) return FailUsage(input.status());
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());
  util::Rng rng(static_cast<uint64_t>(seed.value()));
  auto result =
      pipeline::RunPrivateRelease(input.value().snapshot(), config, rng);
  if (!result.ok()) return Fail(result.status());
  const std::string out = flags.GetString("out", "synthetic");
  if (auto st = graph::WriteGraph(result.value().graph, out); !st.ok()) {
    return Fail(st);
  }
  std::printf("%s\n",
              stats::FormatSummary(
                  out, stats::Summarize(graph::CsrGraph::FromGraph(
                           result.value().graph.structure())))
                  .c_str());
  std::printf("budget ledger:\n");
  PrintLedger(result.value().ledger, result.value().epsilon_budget);
  std::printf("stage timings (total %.3f s):\n", result.value().total_seconds);
  PrintStageTimings(result.value().stage_seconds);
  return 0;
}

int CmdModels(const util::Flags&) {
  std::printf("release mechanisms (--mechanism= / --mechanisms=):\n");
  for (const std::string& name : mechanisms::MechanismNames()) {
    const mechanisms::MechanismSpec* spec = mechanisms::FindMechanism(name);
    std::printf("  %-16s [%s] %s\n", name.c_str(),
                mechanisms::PrivacyModelName(spec->privacy_model),
                spec->description.c_str());
  }
  std::printf("structural models (--model=, agm mechanism only):\n");
  for (const std::string& name : pipeline::StructuralModelNames()) {
    const pipeline::StructuralModelSpec* spec =
        pipeline::FindStructuralModel(name);
    std::printf("  %-16s %s%s\n", name.c_str(), spec->description.c_str(),
                spec->needs_triangles ? " [learns triangle target]" : "");
  }
  return 0;
}

int CmdStats(const util::Flags& flags) {
  auto analytics_threads = IntFlag(flags, "analytics-threads", 1, 0);
  if (!analytics_threads.ok()) return FailUsage(analytics_threads.status());
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());
  auto bfs_samples = IntFlag(flags, "bfs_samples", 64, 0,
                             std::numeric_limits<uint32_t>::max());
  if (!bfs_samples.ok()) return FailUsage(bfs_samples.status());
  auto input = LoadSource(flags, "in");
  if (!input.ok()) return Fail(input.status());
  const int threads = static_cast<int>(analytics_threads.value());
  // One immutable snapshot serves the summary and the structural profile
  // (for a binary container this aliases the mapping — no copy).
  const graph::AttributedCsrGraph& snapshot = input.value().snapshot();
  std::printf("%s\n",
              stats::FormatSummary(
                  flags.GetString("in", ""),
                  stats::Summarize(snapshot.structure, threads))
                  .c_str());
  util::Rng rng(static_cast<uint64_t>(seed.value()));
  const eval::StructuralProfile profile = eval::ProfileGraph(
      snapshot, static_cast<uint32_t>(bfs_samples.value()), rng, threads);
  std::printf("degree assortativity:    %+.4f\n",
              profile.degree_assortativity);
  std::printf("attribute assortativity: %+.4f\n",
              profile.attribute_assortativity);
  for (size_t a = 0; a < profile.homophily.size(); ++a) {
    std::printf("homophily attr %zu:        %.4f\n", a, profile.homophily[a]);
  }
  std::printf("avg path length (est):   %.3f\n", profile.avg_path_length);
  std::printf("effective diameter:      %.2f\n", profile.effective_diameter);
  std::printf("diameter lower bound:    %u\n", profile.diameter_lower_bound);
  return 0;
}

int CmdEvaluate(const util::Flags& flags) {
  auto threads_flag = IntFlag(flags, "analytics-threads", 1, 0);
  if (!threads_flag.ok()) return FailUsage(threads_flag.status());
  const int analytics_threads = static_cast<int>(threads_flag.value());
  auto input = LoadSource(flags, "in");
  if (!input.ok()) return Fail(input.status());
  auto synthetic = LoadSource(flags, "synthetic");
  if (!synthetic.ok()) return Fail(synthetic.status());
  // One immutable snapshot per side, reused across every metric (binary
  // inputs evaluate straight off the mapping).
  const graph::AttributedCsrGraph& original = input.value().snapshot();
  const graph::AttributedCsrGraph& released = synthetic.value().snapshot();
  const eval::UtilityReport report =
      eval::EvaluateRelease(eval::ProfileReference(original, analytics_threads),
                            released, analytics_threads);
  std::printf("dK-2 Hellinger    %.4f\n",
              stats::JointDegreeDistance(original.structure,
                                         released.structure,
                                         analytics_threads));
  for (const auto& [name, value] : report.Flatten()) {
    std::printf("%-28s %+.4f\n", name.c_str(), value);
  }
  return 0;
}

int CmdSweep(const util::Flags& flags) {
  eval::SweepSpec spec;
  spec.datasets = flags.GetStringList("datasets", {"lastfm"});
  auto scale = flags.GetCheckedDouble("scale", 0.1);
  if (!scale.ok()) return FailUsage(scale.status());
  spec.dataset_scale = scale.value();
  spec.mechanisms = flags.GetStringList("mechanisms", {"agm"});
  spec.models = flags.GetStringList("models", {"fcl", "tricycle"});
  spec.epsilons.clear();
  for (const std::string& token : flags.GetStringList("eps", {})) {
    char* end = nullptr;
    const double epsilon = std::strtod(token.c_str(), &end);
    if (*end != '\0' || !std::isfinite(epsilon) || epsilon <= 0.0) {
      return FailUsage(util::Status::InvalidArgument(
          "--eps entry '" + token + "' must be a positive number"));
    }
    spec.epsilons.push_back(epsilon);
  }
  if (spec.epsilons.empty()) {
    spec.epsilons = {0.2, std::log(2.0), std::log(3.0)};
  }
  auto repeats = IntFlag(flags, "repeats", 3, 1);
  if (!repeats.ok()) return FailUsage(repeats.status());
  spec.repeats = static_cast<int>(repeats.value());
  auto threads = IntFlag(flags, "threads", 1, 0);
  if (!threads.ok()) return FailUsage(threads.status());
  spec.threads = static_cast<int>(threads.value());
  auto sampler_threads = IntFlag(flags, "sampler-threads", 1, 0);
  if (!sampler_threads.ok()) return FailUsage(sampler_threads.status());
  spec.sampler_threads = static_cast<int>(sampler_threads.value());
  auto accept_iters =
      IntFlag(flags, "accept_iters", 2, 0, agm::kMaxAcceptanceIterations);
  if (!accept_iters.ok()) return FailUsage(accept_iters.status());
  spec.acceptance_iterations = static_cast<int>(accept_iters.value());
  auto analytics_threads = IntFlag(flags, "analytics-threads", 1, 0);
  if (!analytics_threads.ok()) return FailUsage(analytics_threads.status());
  spec.analytics_threads = static_cast<int>(analytics_threads.value());
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());
  spec.seed = static_cast<uint64_t>(seed.value());
  // Both spellings accepted (the table harness flags use underscores).
  spec.reuse_fit =
      flags.GetBool("reuse-fit", flags.GetBool("reuse_fit", false));

  auto result = eval::RunSweepOnDatasets(spec);
  if (!result.ok()) return Fail(result.status());

  std::printf("# sweep: %zu cells (%zu datasets x %zu mechanisms x "
              "%zu epsilons), %d repeats, %.2fs\n",
              result.value().cells.size(), spec.datasets.size(),
              spec.mechanisms.size(), spec.epsilons.size(), spec.repeats,
              result.value().total_seconds);
  int failed_cells = 0;
  for (const eval::SweepCell& cell : result.value().cells) {
    if (!cell.error.empty()) {
      ++failed_cells;
      std::printf("%-10s %-14s %-12s eps=%-6.3f FAILED: %s\n",
                  cell.dataset.c_str(), cell.mechanism.c_str(),
                  cell.model.c_str(), cell.epsilon, cell.error.c_str());
      continue;
    }
    std::printf("%-10s %-14s %-12s eps=%-6.3f KS_S=%.4f H_ThetaF=%.4f "
                "n_tri=%.4f homo=%+.4f\n",
                cell.dataset.c_str(), cell.mechanism.c_str(),
                cell.model.c_str(), cell.epsilon,
                eval::MetricMean(cell.metrics, "degree_ks"),
                eval::MetricMean(cell.metrics, "theta_f_hellinger"),
                eval::MetricMean(cell.metrics, "triangles_re"),
                eval::MetricMean(cell.metrics, "homophily_delta_mean_abs"));
  }

  const std::string out = flags.GetString("out", "BENCH_sweep.json");
  const bool include_timing = !flags.GetBool("no-timing", false);
  const std::string body =
      eval::SweepResultToJson(result.value(), include_timing);
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    return Fail(util::Status::IoError("cannot open for writing: " + out));
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  if (failed_cells > 0) {
    std::fprintf(stderr, "error: %d sweep cell(s) failed (see output and %s)\n",
                 failed_cells, out.c_str());
    return 1;
  }
  return 0;
}

/// Parses --<flag>=alice:1.5,bob:0.7 into (name, epsilon) pairs — used for
/// per-tenant budgets and per-dataset lifetime caps alike.
util::Result<std::vector<std::pair<std::string, double>>> ParseNamedEpsilons(
    const util::Flags& flags, const std::string& flag_name) {
  std::vector<std::pair<std::string, double>> pairs;
  for (const std::string& entry : flags.GetStringList(flag_name, {})) {
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return util::Status::InvalidArgument(
          "--" + flag_name + " entry '" + entry + "' is not NAME:EPSILON");
    }
    const std::string text = entry.substr(colon + 1);
    char* end = nullptr;
    const double epsilon = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || epsilon <= 0.0) {
      return util::Status::InvalidArgument(
          "--" + flag_name + " entry '" + entry +
          "' needs a positive epsilon");
    }
    pairs.emplace_back(entry.substr(0, colon), epsilon);
  }
  return pairs;
}

/// The registry cap flags shared by `serve --registry` and
/// `agmdp registry`: --dataset-cap (the default) and --dataset-caps
/// (per-dataset overrides).
util::Result<registry::RegistryOptions> RegistryOptionsFromFlags(
    const util::Flags& flags) {
  registry::RegistryOptions options;
  auto cap = flags.GetCheckedDouble("dataset-cap", 0.0);
  if (!cap.ok()) return cap.status();
  options.default_dataset_cap = cap.value();
  auto caps = ParseNamedEpsilons(flags, "dataset-caps");
  if (!caps.ok()) return caps.status();
  options.dataset_caps = std::move(caps).value();
  return options;
}

int CmdRegistry(const util::Flags& flags) {
  if (flags.positional().empty()) {
    return FailUsage(util::Status::InvalidArgument(
        "usage: agmdp registry <put|list|show|gc|checkpoint> "
        "--registry=FILE"));
  }
  const std::string action = flags.positional().front();
  const std::string path = flags.GetString("registry", "");
  if (path.empty()) {
    return FailUsage(
        util::Status::InvalidArgument("registry needs --registry=FILE"));
  }
  auto options = RegistryOptionsFromFlags(flags);
  if (!options.ok()) return FailUsage(options.status());
  auto opened = registry::ArtifactRegistry::Open(path, options.value());
  if (!opened.ok()) return Fail(opened.status());
  registry::ArtifactRegistry& reg = *opened.value();

  const std::string dataset = flags.GetString("dataset", "");
  const std::string name = flags.GetString("name", "");
  if (action == "put") {
    if (dataset.empty() || name.empty()) {
      return FailUsage(util::Status::InvalidArgument(
          "registry put needs --dataset=D and --name=M"));
    }
    auto artifact = pipeline::ReadReleaseArtifact(
        flags.GetString("artifact", "release.artifact.json"));
    if (!artifact.ok()) return FailUsage(artifact.status());
    if (auto st = reg.Put(dataset, name, artifact.value()); !st.ok()) {
      return Fail(st);
    }
    std::printf("registered %s/%s (eps=%.4f); dataset spent %.4f",
                dataset.c_str(), name.c_str(),
                artifact.value().epsilon_spent, reg.Spent(dataset));
    const double cap = reg.Cap(dataset);
    if (cap > 0.0) std::printf(" / cap %.4f", cap);
    std::printf("\n");
    return 0;
  }
  if (action == "list") {
    for (const registry::DatasetRow& row : reg.Datasets()) {
      std::printf("dataset %-16s spent=%.4f", row.dataset.c_str(), row.spent);
      if (row.cap > 0.0) std::printf(" cap=%.4f", row.cap);
      std::printf(" artifacts=%llu\n",
                  static_cast<unsigned long long>(row.artifacts));
    }
    for (const registry::ArtifactRow& row : reg.List()) {
      std::printf("%-16s %-16s mechanism=%-14s model=%-10s eps=%.4f "
                  "key=%llu\n",
                  row.dataset.c_str(), row.name.c_str(),
                  row.mechanism.c_str(), row.model.c_str(), row.epsilon,
                  static_cast<unsigned long long>(row.release_key));
    }
    // Per-config fingerprint history: every release ever bound, in bind
    // order, so superseded (gc'd) lineage stays visible.
    for (const registry::HistoryRow& row : reg.History()) {
      std::printf("history %-16s %-16s mechanism=%-14s fingerprint=%llu "
                  "eps=%.4f %s\n",
                  row.dataset.c_str(), row.name.c_str(),
                  row.mechanism.c_str(),
                  static_cast<unsigned long long>(row.config_fingerprint),
                  row.epsilon, row.live ? "live" : "superseded");
    }
    const registry::RegistryStats stats = reg.Stats();
    std::printf("journal: %llu bytes, %llu records replayed",
                static_cast<unsigned long long>(stats.journal_bytes),
                static_cast<unsigned long long>(stats.recovered_records));
    if (stats.discarded_tail_bytes > 0) {
      std::printf(" (%llu torn tail bytes discarded)",
                  static_cast<unsigned long long>(stats.discarded_tail_bytes));
    }
    std::printf("\n");
    return 0;
  }
  if (action == "show") {
    if (dataset.empty() || name.empty()) {
      return FailUsage(util::Status::InvalidArgument(
          "registry show needs --dataset=D and --name=M"));
    }
    auto artifact = reg.Resolve(dataset, name);
    if (!artifact.ok()) return Fail(artifact.status());
    std::printf("%s\n",
                pipeline::ReleaseArtifactToJson(artifact.value()).c_str());
    return 0;
  }
  if (action == "gc") {
    if (dataset.empty() || name.empty()) {
      return FailUsage(util::Status::InvalidArgument(
          "registry gc needs --dataset=D and --name=M"));
    }
    if (auto st = reg.Gc(dataset, name); !st.ok()) return Fail(st);
    std::printf("dropped %s/%s (its epsilon charge remains: spent %.4f)\n",
                dataset.c_str(), name.c_str(), reg.Spent(dataset));
    return 0;
  }
  if (action == "checkpoint") {
    if (auto st = reg.Checkpoint(); !st.ok()) return Fail(st);
    std::printf("checkpointed %s (%llu bytes)\n", path.c_str(),
                static_cast<unsigned long long>(reg.Stats().journal_bytes));
    return 0;
  }
  return FailUsage(util::Status::InvalidArgument(
      "registry action '" + action +
      "' is not one of put|list|show|gc|checkpoint"));
}

/// Self-pipe for the serve signal handlers: sigaction handlers may only
/// call async-signal-safe functions, so the handler writes one byte and a
/// watcher thread does the actual Drain().
int g_signal_pipe[2] = {-1, -1};

extern "C" void ServeSignalHandler(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int CmdServe(const util::Flags& flags) {
  server::ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  auto port = IntFlag(flags, "port", 0, 0, 65535);
  if (!port.ok()) return FailUsage(port.status());
  options.port = static_cast<int>(port.value());
  auto workers = IntFlag(flags, "workers", 2, 1);
  if (!workers.ok()) return FailUsage(workers.status());
  options.worker_threads = static_cast<int>(workers.value());
  auto engine_threads = IntFlag(flags, "engine-threads", 1, 0);
  if (!engine_threads.ok()) return FailUsage(engine_threads.status());
  options.engine_threads = static_cast<int>(engine_threads.value());
  auto queue = IntFlag(flags, "queue", 64, 1);
  if (!queue.ok()) return FailUsage(queue.status());
  options.max_queue = static_cast<size_t>(queue.value());
  auto cache_mb = IntFlag(flags, "cache-mb", 256, 0);  // 0 = no cap
  if (!cache_mb.ok()) return FailUsage(cache_mb.status());
  options.cache_bytes =
      static_cast<uint64_t>(cache_mb.value()) * 1024 * 1024;
  auto tenant_budget = flags.GetCheckedDouble("tenant-budget", 0.0);
  if (!tenant_budget.ok()) return FailUsage(tenant_budget.status());
  options.default_tenant_budget = tenant_budget.value();
  auto budgets = ParseNamedEpsilons(flags, "budgets");
  if (!budgets.ok()) return FailUsage(budgets.status());
  options.tenant_budgets = std::move(budgets).value();

  options.registry_path = flags.GetString("registry", "");
  auto registry_options = RegistryOptionsFromFlags(flags);
  if (!registry_options.ok()) return FailUsage(registry_options.status());
  options.default_dataset_cap = registry_options.value().default_dataset_cap;
  options.dataset_caps = std::move(registry_options.value().dataset_caps);
  auto read_timeout = IntFlag(flags, "read-timeout-ms", 30'000, 0);
  if (!read_timeout.ok()) return FailUsage(read_timeout.status());
  options.read_timeout_ms = static_cast<int>(read_timeout.value());
  auto idle_timeout = IntFlag(flags, "idle-timeout-ms", 300'000, 0);
  if (!idle_timeout.ok()) return FailUsage(idle_timeout.status());
  options.idle_timeout_ms = static_cast<int>(idle_timeout.value());
  auto write_timeout = IntFlag(flags, "write-timeout-ms", 30'000, 0);
  if (!write_timeout.ok()) return FailUsage(write_timeout.status());
  options.write_timeout_ms = static_cast<int>(write_timeout.value());

  auto started = server::Server::Start(options);
  if (!started.ok()) return Fail(started.status());
  server::Server& daemon = *started.value();
  std::printf("agmdp serve: listening on %s:%d (%d workers, queue %zu, "
              "cache %llu MiB%s%s)\n",
              options.host.c_str(), daemon.port(), options.worker_threads,
              options.max_queue,
              static_cast<unsigned long long>(options.cache_bytes >> 20),
              options.registry_path.empty() ? "" : ", registry ",
              options.registry_path.c_str());
  std::fflush(stdout);
  if (flags.Has("port-file")) {
    const std::string path = flags.GetString("port-file", "");
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Fail(util::Status::IoError("cannot write --port-file=" + path));
    }
    std::fprintf(f, "%d\n", daemon.port());
    std::fclose(f);
  }

  // SIGTERM/SIGINT -> graceful drain: finish queued work, flush responses,
  // checkpoint the registry. The handler only writes to the self-pipe; the
  // watcher thread calls Drain(). A second signal falls through to the
  // default disposition (SA_RESETHAND), so a stuck drain can still be
  // killed the normal way.
  std::atomic<bool> serving{true};
  std::thread signal_watcher;
  if (::pipe(g_signal_pipe) == 0) {
    struct sigaction action = {};
    action.sa_handler = ServeSignalHandler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESETHAND;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    signal_watcher = std::thread([&daemon, &serving] {
      char byte = 0;
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      if (serving.load()) daemon.Drain();
    });
  }

  daemon.Wait();
  serving.store(false);
  if (signal_watcher.joinable()) {
    // Unblock the watcher in case the daemon stopped via the shutdown op
    // rather than a signal.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    signal_watcher.join();
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
  }
  const server::ServerStats stats = daemon.Stats();
  const server::EngineCacheStats cache = daemon.CacheStats();
  std::printf("agmdp serve: shut down after %llu requests "
              "(%llu graphs, %llu batches, %llu queue rejections; cache "
              "%llu hits / %llu misses / %llu evictions)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.graphs_served),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.rejected_queue_full),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions));
  if (daemon.registry() != nullptr) {
    const registry::RegistryStats rstats = daemon.registry()->Stats();
    std::printf("agmdp serve: registry %s holds %llu artifacts, "
                "%llu tenant charges (%llu journal appends this run)\n",
                options.registry_path.c_str(),
                static_cast<unsigned long long>(rstats.artifacts),
                static_cast<unsigned long long>(rstats.tenant_charges),
                static_cast<unsigned long long>(rstats.appends));
  }
  return 0;
}

int CmdClient(const util::Flags& flags) {
  auto port = IntFlag(flags, "port", 0, 1, 65535);  // required
  if (!port.ok()) return FailUsage(port.status());
  const std::string op_name = flags.GetString("op", "");
  server::Request request;
  if (op_name == "load") {
    request.op = server::RequestOp::kLoad;
  } else if (op_name == "sample") {
    request.op = server::RequestOp::kSample;
  } else if (op_name == "pin") {
    request.op = server::RequestOp::kPin;
  } else if (op_name == "unpin") {
    request.op = server::RequestOp::kUnpin;
  } else if (op_name == "unload") {
    request.op = server::RequestOp::kUnload;
  } else if (op_name == "stats") {
    request.op = server::RequestOp::kStats;
  } else if (op_name == "shutdown") {
    request.op = server::RequestOp::kShutdown;
  } else {
    return FailUsage(util::Status::InvalidArgument(
        "--op='" + op_name +
        "' is not one of load|sample|pin|unpin|unload|stats|shutdown"));
  }
  request.id = 1;
  request.tenant = flags.GetString("tenant", "cli");
  request.name = flags.GetString("name", "default");
  request.dataset = flags.GetString("dataset", "");
  // With --dataset the load resolves from the daemon's registry, so the
  // artifact path must stay empty (a load wants exactly one of the two);
  // without it the default matches fit's --artifact-out.
  request.artifact =
      request.dataset.empty()
          ? flags.GetString("artifact", "release.artifact.json")
          : flags.GetString("artifact", "");
  auto seed = SeedFlag(flags, 1);
  if (!seed.ok()) return FailUsage(seed.status());
  request.seed = static_cast<uint64_t>(seed.value());
  auto sequence = IntFlag(flags, "sequence", 0, 0,
                          std::numeric_limits<int64_t>::max());
  if (!sequence.ok()) return FailUsage(sequence.status());
  request.sequence = static_cast<uint64_t>(sequence.value());
  auto samples = IntFlag(flags, "samples", 1, 1, server::kMaxSampleCount);
  if (!samples.ok()) return FailUsage(samples.status());
  request.count = static_cast<int>(samples.value());
  auto refine =
      IntFlag(flags, "refine_iters", -1, -1, agm::kMaxAcceptanceIterations);
  if (!refine.ok()) return FailUsage(refine.status());
  request.refine_iterations = static_cast<int>(refine.value());
  request.out = flags.GetString("out", "");

  auto timeout_ms = IntFlag(flags, "timeout-ms", 30'000, 0);
  if (!timeout_ms.ok()) return FailUsage(timeout_ms.status());
  auto retries = IntFlag(flags, "retries", 1, 1);
  if (!retries.ok()) return FailUsage(retries.status());
  server::ClientOptions client_options;
  client_options.io_timeout_ms = static_cast<int>(timeout_ms.value());
  server::RetryPolicy retry_policy;
  retry_policy.max_attempts = static_cast<int>(retries.value());
  auto response = server::CallWithRetry(
      flags.GetString("host", "127.0.0.1"), static_cast<int>(port.value()),
      request, client_options, retry_policy);
  if (!response.ok()) return Fail(response.status());
  if (!response.value().status.ok()) return Fail(response.value().status);
  for (const server::GraphSummary& g : response.value().graphs) {
    std::printf("graph nodes=%u edges=%llu checksum=%llu%s%s\n", g.nodes,
                static_cast<unsigned long long>(g.edges),
                static_cast<unsigned long long>(g.checksum),
                g.path.empty() ? "" : " path=", g.path.c_str());
  }
  for (const auto& [key, value] : response.value().stats) {
    std::printf("%-24s %.6g\n", key.c_str(), value);
  }
  if (request.op == server::RequestOp::kShutdown ||
      (response.value().graphs.empty() && response.value().stats.empty())) {
    std::printf("ok\n");
  }
  return 0;
}

int CmdConvert(const util::Flags& flags) {
  // Positional form `agmdp convert <text> <bin>` and the --in/--out flag
  // form are equivalent; mixing fills whichever side is missing.
  std::string in = flags.GetString("in", "");
  std::string out = flags.GetString("out", "");
  size_t next_positional = 0;
  if (in.empty() && next_positional < flags.positional().size()) {
    in = flags.positional()[next_positional++];
  }
  if (out.empty() && next_positional < flags.positional().size()) {
    out = flags.positional()[next_positional++];
  }
  if (in.empty() || out.empty()) {
    return FailUsage(util::Status::InvalidArgument(
        "usage: agmdp convert <text-prefix-or-edges> <out.agmbin>"));
  }
  graph::ConvertOptions options;
  auto page_size = IntFlag(flags, "page-size", options.binary.page_size,
                           4096, std::numeric_limits<uint32_t>::max());
  if (!page_size.ok()) return FailUsage(page_size.status());
  options.binary.page_size = static_cast<uint32_t>(page_size.value());
  auto info = graph::ConvertTextToBinary(in, out, options);
  if (!info.ok()) {
    // A missing input named on the command line is a usage error (exit
    // 2); a malformed input file is a runtime failure (exit 1).
    return info.status().code() == util::StatusCode::kNotFound
               ? FailUsage(info.status())
               : Fail(info.status());
  }
  std::printf(
      "converted %s -> %s (nodes=%llu edges=%llu attrs=%u, %llu bytes in "
      "%llu pages of %u)\n",
      in.c_str(), out.c_str(),
      static_cast<unsigned long long>(info.value().num_nodes),
      static_cast<unsigned long long>(info.value().num_edges),
      info.value().num_attributes,
      static_cast<unsigned long long>(info.value().file_bytes),
      static_cast<unsigned long long>(info.value().num_data_pages),
      info.value().page_size);
  return 0;
}

int CmdInfo(const util::Flags& flags) {
  std::string path = flags.GetString("in", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional().front();
  }
  if (path.empty()) {
    return FailUsage(
        util::Status::InvalidArgument("usage: agmdp info <file.agmbin>"));
  }
  auto info = graph::ReadBinaryGraphInfo(path);
  if (!info.ok()) {
    return info.status().code() == util::StatusCode::kIoError
               ? FailUsage(info.status())
               : Fail(info.status());
  }
  const graph::BinaryGraphInfo& i = info.value();
  std::printf("container:  %s\n", path.c_str());
  std::printf("version:    %u\n", i.format_version);
  std::printf("page size:  %u\n", i.page_size);
  std::printf("data pages: %llu\n",
              static_cast<unsigned long long>(i.num_data_pages));
  std::printf("file bytes: %llu\n",
              static_cast<unsigned long long>(i.file_bytes));
  std::printf("nodes:      %llu\n",
              static_cast<unsigned long long>(i.num_nodes));
  std::printf("edges:      %llu\n",
              static_cast<unsigned long long>(i.num_edges));
  std::printf("attr width: %u\n", i.num_attributes);
  std::printf("checksums:  %s\n", i.checksums_ok ? "OK" : "FAILED");
  if (!i.checksums_ok) {
    std::fprintf(stderr, "error: %s\n", i.checksum_error.c_str());
    return 1;
  }
  return 0;
}

int CmdExport(const util::Flags& flags) {
  auto input = LoadSource(flags, "in");
  if (!input.ok()) return Fail(input.status());
  const std::string out = flags.GetString("out", "graph.graphml");
  if (auto st = graph::WriteGraphMl(input.value().snapshot(), out);
      !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Touching the injector arms any points named in $AGMDP_FAULTS; without
  // this the disarmed fast path would never read the spec (crash smokes
  // arm "registry.*.fsync=1:exit" against a live daemon this way).
  agmdp::util::FaultInjector::Global();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  util::Flags flags = util::Flags::Parse(argc - 1, argv + 1);
  if (command == "--help" || command == "-h") return CmdHelp();
  const auto& docs = Subcommands();
  const auto doc = std::find_if(
      docs.begin(), docs.end(),
      [&](const SubcommandDoc& d) { return command == d.name; });
  if (doc == docs.end()) return UnknownCommand(command);
  if (auto st = CheckFlags(*doc, flags); !st.ok()) return FailUsage(st);
  if (command == "help") return CmdHelp();
  if (command == "generate") return CmdGenerate(flags);
  if (command == "fit") return CmdFit(flags);
  if (command == "sample") return CmdSample(flags);
  if (command == "synthesize") return CmdSynthesize(flags);
  if (command == "models") return CmdModels(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "client") return CmdClient(flags);
  if (command == "registry") return CmdRegistry(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "export") return CmdExport(flags);
  return UnknownCommand(command);  // listed but not dispatched
}
