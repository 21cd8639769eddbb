#include "daemon.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "src/pipeline/release_engine.h"

namespace agmdp::perfbench {

util::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& cli, const std::vector<std::string>& args,
    const std::string& stderr_path) {
  std::vector<std::string> argv = {cli, "serve", "--port=0",
                                   "--host=127.0.0.1"};
  argv.insert(argv.end(), args.begin(), args.end());
  auto child = ChildProcess::Spawn(argv, stderr_path);
  if (!child.ok()) return child.status();
  // "agmdp serve: listening on 127.0.0.1:PORT (...)"
  auto line = child.value().ReadStdoutLine();
  if (!line.ok()) {
    return util::Status::Unavailable("agmdp serve exited before listening; see " +
                                     stderr_path);
  }
  const std::string& text = line.value();
  const size_t colon = text.find("127.0.0.1:");
  if (colon == std::string::npos) {
    return util::Status::Internal("unexpected daemon banner: " + text);
  }
  const int port = std::atoi(text.c_str() + colon + 10);
  if (port <= 0) return util::Status::Internal("bad daemon port in: " + text);
  return std::unique_ptr<Daemon>(new Daemon(std::move(child).value(), port));
}

util::Result<server::Client> Daemon::Connect() const {
  server::ClientOptions options;
  options.io_timeout_ms = 60'000;
  return server::Client::Connect("127.0.0.1", port_, options);
}

util::Result<server::Response> Daemon::Call(
    const server::Request& request) const {
  auto client = Connect();
  if (!client.ok()) return client.status();
  return client.value().Call(request);
}

util::Result<std::map<std::string, double>> Daemon::Stats() const {
  server::Request request;
  request.op = server::RequestOp::kStats;
  request.id = 1;
  auto response = Call(request);
  if (!response.ok()) return response.status();
  if (!response.value().status.ok()) return response.value().status;
  std::map<std::string, double> stats;
  for (const auto& [name, value] : response.value().stats) stats[name] = value;
  return stats;
}

util::Result<double> Daemon::Shutdown() {
  server::Request request;
  request.op = server::RequestOp::kShutdown;
  request.id = 1;
  auto response = Call(request);
  if (!response.ok()) return response.status();
  child_.ReadRemainingStdout();
  auto exit = child_.Wait();
  if (!exit.ok()) return exit.status();
  if (exit.value().code != 0) {
    return util::Status::Internal("agmdp serve exited with code " +
                                  std::to_string(exit.value().code));
  }
  return exit.value().peak_rss_mb;
}

Served Exchange(const Daemon& daemon, util::Result<server::Client>* client,
                const server::Request& request) {
  Served served;
  served.id = request.id;
  served.seed = request.seed;
  served.sequence = request.sequence;
  served.start = NowSeconds();
  util::Result<server::Response> response =
      client->ok() ? client->value().Call(request)
                   : util::Result<server::Response>(client->status());
  served.end = NowSeconds();
  if (!response.ok()) {
    served.status = response.status();
    *client = daemon.Connect();
  } else if (!response.value().status.ok()) {
    served.status = response.value().status;
  } else if (request.op == server::RequestOp::kSample &&
             response.value().graphs.size() != 1) {
    served.status = util::Status::Internal("expected one graph");
  } else if (request.op == server::RequestOp::kSample) {
    served.checksum = response.value().graphs[0].checksum;
  }
  return served;
}

void VerifyAgainstOracle(const pipeline::ReleaseArtifact& artifact,
                         const std::vector<Served*>& served, int threads,
                         std::vector<std::string>* errors) {
  pipeline::EngineOptions engine_options;
  engine_options.threads = threads;
  auto oracle = pipeline::ReleaseEngine::Create(artifact, engine_options);
  if (!oracle.ok()) {
    errors->push_back("oracle engine: " + oracle.status().ToString());
    return;
  }
  std::map<uint64_t, std::vector<Served*>> by_seed;
  for (Served* s : served) {
    if (s->status.ok()) by_seed[s->seed].push_back(s);
  }
  uint64_t mismatches = 0;
  constexpr uint64_t kChunk = 32;
  for (auto& [seed, list] : by_seed) {
    std::sort(list.begin(), list.end(), [](const Served* a, const Served* b) {
      return a->sequence < b->sequence;
    });
    for (size_t i = 0; i < list.size();) {
      // A contiguous run of sequences, at most kChunk long.
      size_t j = i + 1;
      while (j < list.size() && j - i < kChunk &&
             list[j]->sequence == list[j - 1]->sequence + 1) {
        ++j;
      }
      pipeline::SampleRequest base;
      base.seed = seed;
      base.sequence = list[i]->sequence;
      auto graphs = oracle.value()->SampleMany(static_cast<int>(j - i), base);
      for (size_t k = i; k < j; ++k) {
        const uint64_t expected =
            graphs.ok() ? server::GraphChecksum(graphs.value()[k - i]) : 0;
        if (!graphs.ok() || expected != list[k]->checksum) {
          ++mismatches;
          if (mismatches <= 3) {
            errors->push_back("served checksum mismatch at seed " +
                              std::to_string(seed) + " sequence " +
                              std::to_string(list[k]->sequence));
          }
          list[k]->status =
              util::Status::Internal("checksum differs from the oracle");
        }
      }
      i = j;
    }
  }
}

std::vector<Span> ModelRequest(const Served& served, const std::string& root,
                               const std::string& wait_name,
                               double uncontended_rtt,
                               const std::vector<Component>& components) {
  std::vector<Span> group = {
      MakeSpan(root, served.start, served.end, -1, served.id)};
  const double wait =
      std::max(0.0, (served.end - served.start) - uncontended_rtt);
  group.push_back(
      MakeSpan(wait_name, served.start, served.start + wait, 0, served.id));
  // cursor[k]: where the next child of component k starts; the last entry
  // is the request-level cursor.
  std::vector<double> cursor(components.size() + 1, 0.0);
  cursor.back() = served.start + wait;
  for (size_t k = 0; k < components.size(); ++k) {
    const Component& c = components[k];
    double& at = c.parent >= 0 ? cursor[static_cast<size_t>(c.parent)]
                               : cursor.back();
    group.push_back(MakeSpan(c.name, at, at + c.seconds,
                             c.parent >= 0 ? c.parent + 2 : 0, served.id));
    cursor[k] = at;
    at += c.seconds;
  }
  return group;
}

server::Request SampleRequest(uint64_t id, const std::string& tenant,
                              const std::string& name, uint64_t seed,
                              uint64_t sequence) {
  server::Request request;
  request.op = server::RequestOp::kSample;
  request.id = id;
  request.tenant = tenant;
  request.name = name;
  request.seed = seed;
  request.sequence = sequence;
  request.count = 1;
  return request;
}

}  // namespace agmdp::perfbench
