// The three benchmark workloads (README.md says what each one does and
// why it was chosen).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace agmdp::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's inputs, registries and artifacts.
  std::string workdir;
  /// Path of this binary (re-executed for pipeline child processes) and of
  /// the shipped `agmdp` CLI (the daemon).
  std::string self;
  std::string cli;
  /// Shrinks every input to its smallest size: a smoke test, not a
  /// measurement.
  bool tiny = false;
};

struct WorkloadResult {
  explicit WorkloadResult(bool trace) : tracer(trace) {}

  Metrics metrics;
  OpCounts ops;
  /// Raw values behind the reported figures (iterations, set-ups,
  /// restarts, phase seconds), recorded in the result file.
  std::map<std::string, std::vector<double>> trials;
  /// Correctness failures; any entry fails the run.
  std::vector<std::string> errors;
  /// Records spans in traced runs only.
  Tracer tracer;
};

void RunRelease(const Options& options, WorkloadResult* result);
void RunServe(const Options& options, WorkloadResult* result);
void RunChurn(const Options& options, WorkloadResult* result);

/// The per-iteration curator process `release` spawns (`--role=pipeline`);
/// prints one JSON line of timings, checksums and spans.
int RunPipelineChild(int argc, char** argv);

}  // namespace agmdp::perfbench
