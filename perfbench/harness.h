// Shared machinery of the repository benchmark: clocks, the percentile
// rule, failure counting, spans with self-time attribution, child
// processes, and the result line run.py passes through.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace agmdp::perfbench {

/// CLOCK_MONOTONIC seconds. The clock is system-wide, so spans recorded in
/// child processes line up with the parent's.
double NowSeconds();

double Median(std::vector<double> values);

/// Median wall time of `fn` over `repeats` calls.
template <typename Fn>
double MedianTime(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = NowSeconds();
    fn(i);
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

/// Mean of the values between the first and third quartile. Steadier than
/// the median when a timing is bimodal (the median then jumps between the
/// modes), and still robust to outliers.
double InterquartileMean(std::vector<double> values);

/// True when `samples` values support percentile `p` (0 < p < 100): at
/// least ten samples lie beyond it. p99 therefore needs 1000 samples.
bool PercentileSupported(size_t samples, double p);

/// Nearest-rank percentile of `values` plus `missed` operations, which
/// count as beyond every latency limit (+infinity). FailedPrecondition
/// when the sample count does not support `p`.
util::Result<double> Percentile(std::vector<double> values, uint64_t missed,
                                double p);

/// The outcome of one operation the benchmark attempted.
enum class Outcome { kOk, kFailed, kRefused };

/// Attempted / failed / refused counts. A refusal (load shedding, budget
/// or cap exhausted) is reported apart but counts as a failure.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;

  void Add(Outcome outcome);
  uint64_t missed() const { return failed + refused; }
  /// Share of attempted operations that neither failed nor were refused.
  double success_rate() const;
};

/// Maps a protocol or pipeline status onto an outcome: OK, refused
/// (ResourceExhausted) or failed (anything else).
Outcome Classify(const util::Status& status);

/// One timed interval. Spans nest through `parent` (an index into the
/// tracer's span list, -1 for a root); `request_id` keys the spans of one
/// protocol request.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  uint64_t request_id = 0;
  int pid = 0;
  int tid = 0;
};

/// The layer of a span: its name's prefix when that is a repository module
/// ("graph.csr_build" belongs to "graph"), otherwise "unattributed".
std::string LayerOf(const std::string& span_name);

/// Per span: its duration minus the part of its interval that its direct
/// children cover (children clipped to the parent, overlaps merged).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer. `total` is the sum of root-span durations;
/// the layer seconds plus `unattributed` add up to it exactly for
/// properly nested spans.
struct LayerSummary {
  double total = 0.0;
  double unattributed = 0.0;
  std::vector<std::pair<std::string, double>> layers;
};
LayerSummary SummarizeLayers(const std::vector<Span>& spans);

/// Chrome-trace span of an interval timed without a tracer.
Span MakeSpan(const std::string& name, double start, double end,
              int parent = -1, uint64_t request_id = 0);

/// Thread-safe in-memory span recorder; written out once at the end.
/// Disabled tracers record nothing and return -1 from every call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const std::string& name, int parent = -1);
  void End(int span);
  /// Records an interval timed elsewhere (a child process, a stage timer).
  int Add(Span span);

  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Chrome trace-event JSON ("X" events, microseconds) of `spans`.
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// Named metrics in print order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string ResultLine(bool correct, const OpCounts& ops) const;
  /// The metrics named in `names`, in that order. Names that were not
  /// measured are appended to `missing`.
  Metrics Pick(const std::vector<std::string>& names,
               std::vector<std::string>* missing) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Records the layer summary of `spans`, divided by the `operations` they
/// cover, as per-layer metrics: "layer.<name>_s" for each layer,
/// "layer.unattributed_s" and their sum "layer.total_s".
void AddLayerMetrics(const std::vector<Span>& spans, size_t operations,
                     Metrics* metrics);

/// Appends `group` (whose parents index into `group`, -1 = root) to the
/// flat list `spans`, re-basing the parents. When `tracer` is given, also
/// records the group there, with the group's root standing for the
/// already-recorded tracer span `tracer_root` (or added when -1).
void AppendGroup(const std::vector<Span>& group, std::vector<Span>* spans,
                 Tracer* tracer = nullptr, int tracer_root = -1);


/// One measured operation of a closed loop.
struct WindowOp {
  double end = 0.0;
  double latency_ms = 0.0;
  Outcome outcome = Outcome::kOk;
  /// Workload-defined operation kind (e.g. load / sample / unload).
  int kind = 0;
};

/// A latency percentile over the operations of one kind (-1 = every kind).
struct PercentileSpec {
  std::string name;
  int kind = -1;
  double p = 50.0;
};

/// Sets "throughput_ops_s" (successful operations of every kind per second)
/// and each percentile in `specs` (ms), each as the interquartile mean over
/// equal sub-windows of [start, start + length): one host hiccup then moves
/// one sub-window, not the run, and a host that drifts between speed levels
/// moves the figure in proportion to the time spent at each level, instead
/// of flipping a median between them. Uses the most sub-windows, up to
/// `max_parts`, in which every percentile is supported; fails when even
/// the whole window does not support one.
util::Status SetWindowMetrics(const std::vector<WindowOp>& ops, double start,
                              double length, int max_parts,
                              const std::vector<PercentileSpec>& specs,
                              Metrics* metrics);

/// Where and how the numbers were taken: cores the process may use, the
/// active SIMD arm, build type, compiler and commit.
std::string EnvironmentJson(const std::string& commit,
                            const std::string& build_type);

util::Status WriteFile(const std::string& path, const std::string& text);
util::Result<std::string> ReadFile(const std::string& path);

/// A spawned child process. The destructor kills and reaps a child that
/// is still running, so no exit path leaves one behind.
class ChildProcess {
 public:
  /// Spawns `argv`. The child's stdout goes to a pipe read through
  /// ReadStdoutLine / ReadRemainingStdout; its stderr goes to
  /// `stderr_path`.
  static util::Result<ChildProcess> Spawn(const std::vector<std::string>& argv,
                                          const std::string& stderr_path);

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  /// Blocks for the next stdout line (without the newline); Unavailable
  /// at end of stream.
  util::Result<std::string> ReadStdoutLine();
  std::string ReadRemainingStdout();

  struct Exit {
    int code = -1;
    /// Peak resident set size of the child, in MiB (wait4 ru_maxrss).
    double peak_rss_mb = 0.0;
  };
  /// Reaps the child. Fails if it died on a signal or cannot be waited
  /// for; a non-zero exit code is reported, not an error.
  util::Result<Exit> Wait();

 private:
  ChildProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  void KillAndReap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
};

}  // namespace agmdp::perfbench
