#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/util/json.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"

extern char** environ;

namespace agmdp::perfbench {

double NowSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t lo = n / 4;
  const size_t hi = n - n / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

bool PercentileSupported(size_t samples, double p) {
  if (!(p > 0.0 && p < 100.0)) return false;
  // Beyond-count = n (1 - p/100); the epsilon absorbs 1 - 0.99 rounding.
  return static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

util::Result<double> Percentile(std::vector<double> values, uint64_t missed,
                                double p) {
  const size_t n = values.size() + missed;
  if (!PercentileSupported(n, p)) {
    return util::Status::FailedPrecondition(
        "p" + std::to_string(p) + " needs " +
        std::to_string(static_cast<uint64_t>(std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9))) +
        " samples, have " + std::to_string(n));
  }
  values.insert(values.end(), missed, HUGE_VAL);
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return values[rank - 1];
}

void OpCounts::Add(Outcome outcome) {
  ++attempted;
  if (outcome == Outcome::kFailed) ++failed;
  if (outcome == Outcome::kRefused) ++refused;
}

double OpCounts::success_rate() const {
  if (attempted == 0) return 0.0;
  return static_cast<double>(attempted - missed()) /
         static_cast<double>(attempted);
}

Outcome Classify(const util::Status& status) {
  if (status.ok()) return Outcome::kOk;
  if (status.code() == util::StatusCode::kResourceExhausted) {
    return Outcome::kRefused;
  }
  return Outcome::kFailed;
}

namespace {

const std::vector<std::string>& KnownLayers() {
  static const std::vector<std::string> layers = {
      "datasets", "graph",  "dp",         "agm",    "models",
      "pipeline", "eval",   "mechanisms", "server", "registry"};
  return layers;
}

}  // namespace

std::string LayerOf(const std::string& span_name) {
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  for (const std::string& layer : KnownLayers()) {
    if (prefix == layer) return layer;
  }
  return "unattributed";
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) children[static_cast<size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double covered_seconds = 0.0;
    double run_lo = 0.0;
    double run_hi = -HUGE_VAL;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered_seconds += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered_seconds += run_hi - run_lo;
    self[i] = (spans[i].end - spans[i].start) - covered_seconds;
  }
  return self;
}

LayerSummary SummarizeLayers(const std::vector<Span>& spans) {
  LayerSummary summary;
  for (const std::string& layer : KnownLayers()) {
    summary.layers.push_back({layer, 0.0});
  }
  const std::vector<double> self = SelfTimes(spans);
  double attributed = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) summary.total += spans[i].end - spans[i].start;
    const std::string layer = LayerOf(spans[i].name);
    for (auto& [name, seconds] : summary.layers) {
      if (name == layer) {
        seconds += self[i];
        attributed += self[i];
      }
    }
  }
  // Defined as the remainder, so layers + unattributed == total exactly.
  summary.unattributed = summary.total - attributed;
  return summary;
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const double now = NowSeconds();
  return Add(MakeSpan(name, now, now, parent));
}

void Tracer::End(int span) {
  if (span < 0) return;
  const double now = NowSeconds();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end = now;
}

int Tracer::Add(Span span) {
  if (!enabled_) return -1;
  if (span.pid == 0) span.pid = static_cast<int>(::getpid());
  if (span.tid == 0) {
    span.tid = static_cast<int>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << util::JsonEscape(s.name) << "\",\"cat\":\""
        << LayerOf(s.name) << "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start * 1e6, (s.end - s.start) * 1e6);
    out << buf << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << "}}";
  }
  out << "]}\n";
  return out.str();
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

std::string Metrics::ResultLine(bool correct, const OpCounts& ops) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ops.attempted << ", \"failed\": "
      << ops.missed() << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, value_unit] = entries_[i];
    // JSON has no infinities; a non-finite value is reported as null and
    // the run is marked incorrect by the caller.
    if (std::isfinite(value_unit.first)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value_unit.first);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out << (i > 0 ? ", " : "") << "\"" << util::JsonEscape(name)
        << "\": {\"value\": " << buf << ", \"unit\": \""
        << util::JsonEscape(value_unit.second) << "\"}";
  }
  out << "}}";
  return out.str();
}

Metrics Metrics::Pick(const std::vector<std::string>& names,
                      std::vector<std::string>* missing) const {
  Metrics picked;
  for (const std::string& name : names) {
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&name](const auto& entry) { return entry.first == name; });
    if (it == entries_.end()) {
      missing->push_back(name);
    } else {
      picked.entries_.push_back(*it);
    }
  }
  return picked;
}

Span MakeSpan(const std::string& name, double start, double end, int parent,
              uint64_t request_id) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.request_id = request_id;
  return span;
}

void AppendGroup(const std::vector<Span>& group, std::vector<Span>* spans,
                 Tracer* tracer, int tracer_root) {
  const int offset = static_cast<int>(spans->size());
  std::vector<int> ids;
  for (size_t i = 0; i < group.size(); ++i) {
    Span span = group[i];
    const int parent = span.parent;
    if (tracer != nullptr) {
      if (i == 0 && tracer_root >= 0) {
        ids.push_back(tracer_root);
      } else {
        span.parent = parent >= 0 ? ids[static_cast<size_t>(parent)] : -1;
        ids.push_back(tracer->Add(span));
      }
    }
    span.parent = parent >= 0 ? parent + offset : -1;
    spans->push_back(std::move(span));
  }
}

void AddLayerMetrics(const std::vector<Span>& spans, size_t operations,
                     Metrics* metrics) {
  const LayerSummary summary = SummarizeLayers(spans);
  const double per = operations > 0 ? 1.0 / static_cast<double>(operations)
                                    : 0.0;
  for (const auto& [layer, seconds] : summary.layers) {
    metrics->Set("layer." + layer + "_s", seconds * per, "s");
  }
  metrics->Set("layer.unattributed_s", summary.unattributed * per, "s");
  metrics->Set("layer.total_s", summary.total * per, "s");
}

util::Status SetWindowMetrics(const std::vector<WindowOp>& ops, double start,
                              double length, int max_parts,
                              const std::vector<PercentileSpec>& specs,
                              Metrics* metrics) {
  util::Status last = util::Status::OK();
  for (int parts = std::max(1, max_parts); parts >= 1; --parts) {
    const double part = length / parts;
    std::vector<double> throughput(static_cast<size_t>(parts), 0.0);
    std::vector<std::vector<std::vector<double>>> latencies(
        specs.size(), std::vector<std::vector<double>>(static_cast<size_t>(parts)));
    std::vector<std::vector<uint64_t>> missed(
        specs.size(), std::vector<uint64_t>(static_cast<size_t>(parts), 0));
    for (const WindowOp& op : ops) {
      const size_t k = static_cast<size_t>(std::clamp(
          static_cast<int>((op.end - start) / part), 0, parts - 1));
      if (op.outcome == Outcome::kOk) throughput[k] += 1.0 / part;
      for (size_t s = 0; s < specs.size(); ++s) {
        if (specs[s].kind >= 0 && specs[s].kind != op.kind) continue;
        if (op.outcome == Outcome::kOk) {
          latencies[s][k].push_back(op.latency_ms);
        } else {
          ++missed[s][k];
        }
      }
    }
    std::vector<double> values(specs.size());
    bool supported = true;
    for (size_t s = 0; s < specs.size() && supported; ++s) {
      std::vector<double> per_part;
      for (size_t k = 0; k < static_cast<size_t>(parts); ++k) {
        auto value = Percentile(latencies[s][k], missed[s][k], specs[s].p);
        if (!value.ok()) {
          last = util::Status::FailedPrecondition(specs[s].name + ": " +
                                                  value.status().message());
          supported = false;
          break;
        }
        per_part.push_back(value.value());
      }
      if (supported) values[s] = InterquartileMean(per_part);
    }
    if (!supported) continue;
    metrics->Set("throughput_ops_s", InterquartileMean(throughput), "1/s");
    for (size_t s = 0; s < specs.size(); ++s) {
      metrics->Set(specs[s].name, values[s], "ms");
    }
    return util::Status::OK();
  }
  return last;
}

std::string EnvironmentJson(const std::string& commit,
                            const std::string& build_type) {
  util::JsonWriter json;
  json.BeginObject();
  json.Key("available_concurrency").Value(util::AvailableConcurrency());
  json.Key("nproc").Value(
      static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  json.Key("hardware_concurrency")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("simd_isa").Value(util::SimdIsaName(util::ActiveSimdIsa()));
  json.Key("build_type").Value(build_type);
  json.Key("compiler").Value(std::string(__VERSION__));
  json.Key("commit").Value(commit);
  json.EndObject();
  return json.Finish();
}

util::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return util::Status::IoError("perfbench: cannot write " + path);
  return util::Status::OK();
}

util::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("perfbench: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

util::Result<ChildProcess> ChildProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& stderr_path) {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return util::Status::IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return util::Status::IoError("spawn " + argv[0] + ": " +
                                 std::strerror(rc));
  }
  return ChildProcess(pid, fds[0]);
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      pending_(std::move(other.pending_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    KillAndReap();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    pending_ = std::move(other.pending_);
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

ChildProcess::~ChildProcess() { KillAndReap(); }

void ChildProcess::KillAndReap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

util::Result<std::string> ChildProcess::ReadStdoutLine() {
  char buf[4096];
  while (true) {
    const size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    if (stdout_fd_ < 0) break;
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending_.append(buf, static_cast<size_t>(n));
  }
  return util::Status::Unavailable("perfbench: child stdout closed");
}

std::string ChildProcess::ReadRemainingStdout() {
  char buf[4096];
  while (stdout_fd_ >= 0) {
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending_.append(buf, static_cast<size_t>(n));
  }
  std::string rest = std::move(pending_);
  pending_.clear();
  return rest;
}

util::Result<ChildProcess::Exit> ChildProcess::Wait() {
  if (pid_ <= 0) return util::Status::FailedPrecondition("no child to wait for");
  int status = 0;
  rusage usage{};
  pid_t got = -1;
  while ((got = ::wait4(pid_, &status, 0, &usage)) < 0 && errno == EINTR) {
  }
  const pid_t pid = pid_;
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  if (got != pid) {
    return util::Status::IoError(std::string("wait4: ") + std::strerror(errno));
  }
  if (!WIFEXITED(status)) {
    return util::Status::Internal("child " + std::to_string(pid) +
                                  " died on signal " +
                                  std::to_string(WTERMSIG(status)));
  }
  Exit exit;
  exit.code = WEXITSTATUS(status);
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

}  // namespace agmdp::perfbench
