// The `agmdp serve` daemon: a long-lived multi-tenant sampling server over
// the fit-once / sample-many pipeline.
//
//   listener thread ──accept──▶ connection reader threads
//        │                           │  parse line (hardened JSON caps)
//        │                           ▼
//        │                 bounded admission queue ──full──▶ immediate
//        │                           │                typed rejection
//        │                           ▼
//        │                  worker threads: coalesce compatible sample
//        │                  requests into one SampleMany, execute, write
//        │                  responses (per-connection write mutex)
//        ▼
//   EngineCache (byte-budgeted LRU of ReleaseEngines, pin/lease)
//   TenantLedger (per-tenant epsilon caps, idempotent per release)
//
// Serving is pure post-processing of fitted artifacts (paper Theorem 2):
// the daemon never touches sensitive data, only release artifacts, so a
// crash or eviction can never cost privacy budget — the ledger alone
// decides what a tenant may load.
//
// Determinism contract: every served graph is
// ReleaseEngine::Sample({seed, sequence}) — a pure function of the request
// and the artifact. Batching only re-groups contiguous sequence ranges
// into SampleMany calls, which is bitwise-identical to serving each
// request alone, so concurrency, queue order and batch shape never change
// a single sampled bit.
//
// Backpressure: the admission queue is bounded; when it is full the reader
// thread answers RESOURCE_EXHAUSTED immediately instead of buffering —
// clients see load shedding, not unbounded latency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/registry/artifact_registry.h"
#include "src/server/engine_cache.h"
#include "src/server/protocol.h"
#include "src/server/tenant_ledger.h"
#include "src/util/status.h"

namespace agmdp::server {

struct ServerOptions {
  /// Listen address. The daemon is a localhost tool; binding non-loopback
  /// addresses is the operator's responsibility.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back from port()).
  int port = 0;
  /// Worker threads executing requests (>= 1).
  int worker_threads = 2;
  /// Workers of each cached engine's sampler pool (never affects bits).
  int engine_threads = 1;
  /// Admission queue capacity; a full queue rejects instead of buffering.
  size_t max_queue = 64;
  /// Engine cache byte budget (0 = unlimited).
  uint64_t cache_bytes = 256ull * 1024 * 1024;
  /// Epsilon budget for tenants without an explicit entry (<= 0 rejects
  /// unknown tenants).
  double default_tenant_budget = 0.0;
  /// Per-tenant epsilon budget overrides.
  std::vector<std::pair<std::string, double>> tenant_budgets;
  /// Path of the durable ArtifactRegistry. Empty = no registry: tenant
  /// charges are memory-only (lost on restart) and registry-resolved loads
  /// are refused. With a registry, every fresh ledger debit is journaled
  /// and fsynced BEFORE the load is acknowledged, and the ledger is
  /// rebuilt from the journal at startup — restarts are epsilon-safe.
  std::string registry_path;
  /// Lifetime per-dataset epsilon caps for the registry (see
  /// registry::RegistryOptions).
  double default_dataset_cap = 0.0;
  std::vector<std::pair<std::string, double>> dataset_caps;
  /// Once a request line has started arriving, the client has this long to
  /// finish it before the connection is reaped with DeadlineExceeded
  /// (slow-loris defense). <= 0 disables.
  int read_timeout_ms = 30'000;
  /// A connection with no bytes in flight may sit idle this long before
  /// being reaped. <= 0 disables.
  int idle_timeout_ms = 300'000;
  /// Per-send socket timeout; a client that stops draining responses for
  /// this long gets its connection shut down. <= 0 disables.
  int write_timeout_ms = 30'000;
};

/// Monotone request-path counters (cache and ledger keep their own).
struct ServerStats {
  uint64_t requests = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_parse = 0;
  uint64_t batches = 0;
  /// Sample requests that rode in a batch of >= 2.
  uint64_t batched_requests = 0;
  uint64_t graphs_served = 0;
  /// Connections reaped with no request in flight (idle_timeout_ms).
  uint64_t reaped_idle = 0;
  /// Connections reaped mid-request (read_timeout_ms, slow-loris).
  uint64_t reaped_deadline = 0;
  /// Responses abandoned because the client stopped draining the socket.
  uint64_t write_timeouts = 0;
};

/// \brief The serving daemon. Construct via Start(), drive via TCP or the
/// in-process Handle(), shut down via the shutdown op or Stop().
class Server {
 public:
  /// Binds, listens, and spawns the listener + worker threads. On success
  /// the daemon is serving; port() has the bound port.
  static util::Result<std::unique_ptr<Server>> Start(
      const ServerOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Joins everything; implies Stop().
  ~Server();

  /// The bound TCP port.
  int port() const { return port_; }

  /// Signals shutdown (idempotent, non-blocking, safe from worker
  /// threads): unblocks the listener, readers and workers. Join with
  /// Wait() or the destructor.
  void Stop();

  /// Graceful variant for SIGTERM: stops accepting and half-closes every
  /// connection for reading, but lets queued work finish and its responses
  /// flush before the sockets go down. Wait() then also checkpoints the
  /// registry. Idempotent with Stop() (first signal wins).
  void Drain();

  /// Blocks until the daemon stops, then joins all threads.
  void Wait();

  /// Executes one request synchronously on the calling thread — the same
  /// code path workers run, minus queueing/batching. Public so tests (and
  /// embedders) can drive the daemon without a socket.
  Response Handle(const Request& request);

  ServerStats Stats() const;
  EngineCacheStats CacheStats() const { return cache_.Stats(); }
  const TenantLedger& ledger() const { return ledger_; }
  /// The durable registry, or nullptr when the daemon runs without one.
  const registry::ArtifactRegistry* registry() const {
    return registry_.get();
  }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    /// Serializes response lines onto the socket (readers write
    /// rejections, workers write results).
    std::mutex write_mu;
  };

  /// One admitted request awaiting a worker.
  struct Job {
    Connection* conn = nullptr;
    Request request;
  };

  explicit Server(const ServerOptions& options);

  void StopInternal(bool drain);

  Response HandleLoad(const Request& request);
  Response HandleSample(const Request& request);
  Response HandleStats(const Request& request);

  /// Debits the in-memory ledger and, when the debit is fresh and a
  /// registry is open, journals it durably. The request fails if the
  /// journal append fails (the memory debit stays — over-counting is the
  /// safe direction); success means the spend survives a crash.
  util::Status ChargeTenant(const std::string& tenant, uint64_t release_key,
                            double epsilon);

  /// Writes out-graphs (when requested) and builds the per-graph
  /// summaries, consuming `graphs`.
  Response FinishSample(const Request& request,
                        std::vector<graph::AttributedGraph> graphs);

  void ListenLoop();
  void ConnectionLoop(Connection* conn);
  void WorkerLoop();

  /// Pops one job; when it is a sample request, also drains every queued
  /// compatible job (same name/seed/refine) into `batch`. Returns false at
  /// shutdown with the queue drained.
  bool NextBatch(std::vector<Job>* batch);
  /// Executes a batch: coalesces contiguous sequence runs into SampleMany
  /// calls and answers every job. Falls back to per-job Handle() for
  /// non-sample ops and singleton batches.
  void ExecuteBatch(std::vector<Job>& batch);

  void WriteResponse(Connection* conn, const Response& response);

  const ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  EngineCache cache_;
  TenantLedger ledger_;
  std::unique_ptr<registry::ArtifactRegistry> registry_;

  std::atomic<bool> stopping_{false};
  std::thread listener_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  /// Connections live until teardown (std::list: stable addresses for
  /// queued jobs even after the client hangs up).
  std::list<std::unique_ptr<Connection>> conns_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool joined_ = false;
};

}  // namespace agmdp::server
