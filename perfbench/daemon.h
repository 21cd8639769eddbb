// The shipped `agmdp serve` daemon as a child process, driven over TCP.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/pipeline/release_artifact.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/status.h"

namespace agmdp::perfbench {

class Daemon {
 public:
  /// Spawns `<cli> serve --port=0 <args...>` and waits until it reports its
  /// listening port. stderr goes to `stderr_path`.
  static util::Result<std::unique_ptr<Daemon>> Start(
      const std::string& cli, const std::vector<std::string>& args,
      const std::string& stderr_path);

  util::Result<server::Client> Connect() const;

  /// One lock-step request on a fresh connection.
  util::Result<server::Response> Call(const server::Request& request) const;

  /// The `stats` op as a name -> value map.
  util::Result<std::map<std::string, double>> Stats() const;

  /// Sends `shutdown`, drains the child's stdout and reaps it. Returns the
  /// child's peak RSS in MiB.
  util::Result<double> Shutdown();

 private:
  Daemon(ChildProcess child, int port)
      : child_(std::move(child)), port_(port) {}

  ChildProcess child_;
  int port_ = 0;
};

/// One request of a closed loop, checked against the oracle after the
/// run.
struct Served {
  uint64_t id = 0;
  uint64_t seed = 0;
  uint64_t sequence = 0;
  double start = 0.0;
  double end = 0.0;
  util::Status status;
  /// Served graph checksum (sample requests).
  uint64_t checksum = 0;
  /// Warm-up and probe requests are verified but not measured.
  bool measured = false;
  bool traced = false;
  /// Tracer id of the request's span (traced phase only).
  int span = -1;
};

/// Sends `request` on `client` and records the exchange; a transport
/// failure reconnects so the loop can go on. A sample response must hold
/// exactly one graph.
Served Exchange(const Daemon& daemon, util::Result<server::Client>* client,
                const server::Request& request);

/// Checks every successful sample in `served` (all of one release) against
/// an in-process ReleaseEngine over the same (seed, sequence). A mismatch
/// turns the request's status into an error and is reported in `errors`.
/// The oracle engine runs `threads` pool workers.
void VerifyAgainstOracle(const pipeline::ReleaseArtifact& artifact,
                         const std::vector<Served*>& served, int threads,
                         std::vector<std::string>* errors);

/// One layer's uncontended cost inside a modeled request; `parent` is the
/// index of the enclosing component (-1 = directly under the request).
struct Component {
  std::string name;
  double seconds = 0.0;
  int parent = -1;
};

/// The spans of one measured request (`group` layout for AppendGroup):
/// the request's round trip as the root, `wait_name` for the time beyond
/// `uncontended_rtt` (queueing under contention), then `components` laid
/// out in order, nested ones inside their parent. Whatever the components
/// do not cover stays as the root's unattributed self time.
std::vector<Span> ModelRequest(const Served& served, const std::string& root,
                               const std::string& wait_name,
                               double uncontended_rtt,
                               const std::vector<Component>& components);

/// The sample request both daemon workloads send (count = 1).
server::Request SampleRequest(uint64_t id, const std::string& tenant,
                              const std::string& name, uint64_t seed,
                              uint64_t sequence);

}  // namespace agmdp::perfbench
