// agmdp_perfbench: runs one benchmark workload and prints its metrics.
//
//   agmdp_perfbench --workload=release|serve|churn --seed=N --seconds=S
//       --trace=0|1 --workdir=DIR --out-dir=DIR --cli=PATH/agmdp
//       [--commit=REV] [--report=NAME,NAME,...] [--tiny]
//
// The last stdout line is the result object (see README.md); --report
// names the metrics it holds (default: every metric measured). With
// --trace=1 the metrics are the per-layer ones, and the Chrome trace plus
// the per-layer summary are written to --out-dir. run.py builds the
// binaries and supplies every flag.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/flags.h"
#include "src/util/json.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace agmdp::perfbench {

namespace {

std::string MetricsJson(const Metrics& metrics) {
  util::JsonWriter json;
  json.BeginObject();
  for (const auto& [name, value_unit] : metrics.entries()) {
    json.Key(name).BeginObject();
    json.Key("value").ValueExact(std::isfinite(value_unit.first)
                                     ? value_unit.first
                                     : 0.0);
    json.Key("unit").Value(value_unit.second);
    json.EndObject();
  }
  json.EndObject();
  return json.Finish();
}

int Main(int argc, char** argv) {
  const util::Flags flags = util::Flags::Parse(argc, argv);
  if (flags.GetString("role", "") == "pipeline") {
    return RunPipelineChild(argc, argv);
  }
  Options options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.workdir = flags.GetString("workdir", "");
  options.self = argv[0];
  options.cli = flags.GetString("cli", "");
  options.tiny = flags.GetBool("tiny", false);
  const std::string out_dir = flags.GetString("out-dir", "");
  if (options.workdir.empty() || options.cli.empty() || out_dir.empty()) {
    std::fprintf(stderr, "perfbench: --workdir, --cli and --out-dir are "
                         "required\n");
    return 2;
  }
  ::mkdir(options.workdir.c_str(), 0755);
  ::mkdir(out_dir.c_str(), 0755);

  WorkloadResult result(options.trace);
  if (options.workload == "release") {
    RunRelease(options, &result);
  } else if (options.workload == "serve") {
    RunServe(options, &result);
  } else if (options.workload == "churn") {
    RunChurn(options, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload='%s' "
                         "(release, serve, churn)\n",
                 options.workload.c_str());
    return 2;
  }
  for (const auto& [name, value_unit] : result.metrics.entries()) {
    if (!std::isfinite(value_unit.first)) {
      result.errors.push_back("metric " + name + " is not finite");
    }
  }
  if (result.ops.attempted == 0) result.errors.push_back("no operations ran");
  // The result line holds exactly the metrics the manifest names for this
  // mode; every other figure is printed above it and kept in the record.
  Metrics reported = result.metrics;
  if (const std::string report = flags.GetString("report", ""); !report.empty()) {
    std::vector<std::string> names;
    for (size_t at = 0; at <= report.size();) {
      const size_t comma = std::min(report.find(',', at), report.size());
      names.push_back(report.substr(at, comma - at));
      at = comma + 1;
    }
    std::vector<std::string> missing;
    reported = result.metrics.Pick(names, &missing);
    for (const std::string& name : missing) {
      result.errors.push_back("metric " + name + " was not measured");
    }
  }

  const std::string env = EnvironmentJson(flags.GetString("commit", "unknown"),
                                          PERFBENCH_BUILD_TYPE);
  const std::string stem = out_dir + "/" + options.workload + "_seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "_trace" : "");
  util::JsonWriter record;
  record.BeginObject();
  record.Key("workload").Value(options.workload);
  record.Key("seed").Value(options.seed);
  record.Key("seconds").ValueExact(options.seconds);
  record.Key("trace").Value(options.trace);
  record.Key("attempted").Value(result.ops.attempted);
  record.Key("failed").Value(result.ops.failed);
  record.Key("refused").Value(result.ops.refused);
  record.Key("trials").BeginObject();
  for (const auto& [name, values] : result.trials) {
    record.Key(name).BeginArray();
    for (double v : values) record.ValueExact(v);
    record.EndArray();
  }
  record.EndObject();
  record.Key("errors").BeginArray();
  for (const std::string& e : result.errors) record.Value(e);
  record.EndArray();
  record.EndObject();
  std::string doc = record.Finish();
  // Splice the environment and metrics objects in as members.
  doc.insert(doc.rfind('}'), ",\n\"environment\": " + env +
                                 ",\n\"metrics\": " +
                                 MetricsJson(result.metrics) + "\n");
  if (auto st = WriteFile(stem + ".result.json", doc); !st.ok()) {
    result.errors.push_back(st.ToString());
  }
  if (options.trace) {
    if (auto st = WriteFile(stem + ".trace.json",
                            ChromeTraceJson(result.tracer.spans()));
        !st.ok()) {
      result.errors.push_back(st.ToString());
    }
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  std::string env_line = env;
  for (char& c : env_line) {
    if (c == '\n') c = ' ';
  }
  std::printf("environment %s\n", env_line.c_str());
  for (const auto& [name, value_unit] : result.metrics.entries()) {
    std::printf("%-34s %.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  const bool correct = result.errors.empty();
  std::printf("%s\n", reported.ResultLine(correct, result.ops).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace agmdp::perfbench

int main(int argc, char** argv) { return agmdp::perfbench::Main(argc, argv); }
