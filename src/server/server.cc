#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/graph/graph_io.h"
#include "src/graph/graph_source.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/fault_injector.h"

namespace agmdp::server {

namespace {

Response ErrorResponse(uint64_t id, util::Status status) {
  Response response;
  response.id = id;
  response.status = std::move(status);
  return response;
}

/// Two sample requests coalesce when every parameter that feeds the
/// sampler besides the sequence range is identical.
bool Compatible(const Request& a, const Request& b) {
  return a.op == RequestOp::kSample && b.op == RequestOp::kSample &&
         a.name == b.name && a.seed == b.seed &&
         a.refine_iterations == b.refine_iterations;
}

}  // namespace

util::Result<std::unique_ptr<Server>> Server::Start(
    const ServerOptions& options) {
  if (options.worker_threads < 1) {
    return util::Status::InvalidArgument(
        "server: worker_threads must be >= 1");
  }
  if (options.max_queue < 1) {
    return util::Status::InvalidArgument("server: max_queue must be >= 1");
  }
  if (options.port < 0 || options.port > 65535) {
    return util::Status::InvalidArgument("server: port must be in [0,65535]");
  }
  std::unique_ptr<Server> server(new Server(options));

  if (!options.registry_path.empty()) {
    registry::RegistryOptions registry_options;
    registry_options.default_dataset_cap = options.default_dataset_cap;
    registry_options.dataset_caps = options.dataset_caps;
    auto registry = registry::ArtifactRegistry::Open(options.registry_path,
                                                     registry_options);
    if (!registry.ok()) return registry.status();
    server->registry_ = std::move(registry).value();
    // Rebuild the ledger from the journal before serving a single request:
    // epsilon acknowledged in a previous process life stays spent.
    for (const registry::TenantChargeRow& row :
         server->registry_->TenantCharges()) {
      server->ledger_.Restore(row.tenant, row.release_key, row.epsilon);
    }
  }

  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) {
    return util::Status::Internal(std::string("server: socket(): ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("server: bad listen address '" +
                                         options.host + "'");
  }
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::Internal(std::string("server: bind(") +
                                  options.host + "): " +
                                  std::strerror(errno));
  }
  if (::listen(server->listen_fd_, 64) != 0) {
    return util::Status::Internal(std::string("server: listen(): ") +
                                  std::strerror(errno));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(server->listen_fd_,
                    reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return util::Status::Internal(std::string("server: getsockname(): ") +
                                  std::strerror(errno));
  }
  server->port_ = ntohs(bound.sin_port);

  server->listener_ = std::thread([raw = server.get()] { raw->ListenLoop(); });
  for (int i = 0; i < options.worker_threads; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  return server;
}

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_bytes),
      ledger_(TenantLedgerOptions{options.default_tenant_budget,
                                  options.tenant_budgets}) {}

Server::~Server() {
  Stop();
  Wait();
}

void Server::Stop() { StopInternal(false); }

void Server::Drain() { StopInternal(true); }

void Server::StopInternal(bool drain) {
  if (stopping_.exchange(true)) return;
  {
    // conns_mu_ also guards the fd values against the Wait() teardown:
    // Stop() may run on a reader thread (shutdown op) concurrently with
    // the joining thread closing descriptors.
    const std::lock_guard<std::mutex> lock(conns_mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (const auto& conn : conns_) {
      // Drain half-closes for reading only: no new requests can arrive,
      // but responses for already-queued work still flush to the client
      // before Wait() tears the sockets down.
      if (conn->fd >= 0) ::shutdown(conn->fd, drain ? SHUT_RD : SHUT_RDWR);
    }
  }
  queue_cv_.notify_all();
  stop_cv_.notify_all();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stopping_.load(); });
  if (joined_) return;
  joined_ = true;
  lock.unlock();

  if (listener_.joinable()) listener_.join();
  for (const auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Every worker is done: compact the journal so the next process recovers
  // from one checkpoint record instead of replaying the whole history. A
  // failure here loses nothing — the journal it would have compacted is
  // still the durable truth.
  if (registry_ != nullptr) {
    if (auto st = registry_->Checkpoint(); !st.ok()) {
      std::fprintf(stderr, "server: registry checkpoint at shutdown: %s\n",
                   st.ToString().c_str());
    }
  }
  // Every thread is joined: descriptors stayed open (never reused for a
  // different client) until this single teardown point, so a queued
  // response can never have landed on a recycled descriptor — and closing
  // them now cannot race a worker's write. conns_mu_ orders the close
  // against a belated Stop() still shutting the same fds down.
  const std::lock_guard<std::mutex> conns_lock(conns_mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

void Server::ListenLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;
    }
    const std::lock_guard<std::mutex> lock(conns_mu_);
    // Stop() already swept conns_ if it ran; shut the latecomer down under
    // the same mutex so its reader cannot be missed and block Wait().
    if (stopping_.load()) ::shutdown(fd, SHUT_RDWR);
    conns_.push_back(std::make_unique<Connection>());
    Connection* conn = conns_.back().get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void Server::WriteResponse(Connection* conn, const Response& response) {
  if (util::FaultAction fault = util::PollFault("server.send"); fault.fire) {
    // Simulate a dead peer / failed send: drop the response on the floor
    // and kill the connection, exactly what the client-side retry must
    // survive.
    ::shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  const std::string line = SerializeResponse(response) + "\n";
  const std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(conn->fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // SO_SNDTIMEO expired: the client stopped draining responses.
        // Abandon the connection rather than park this worker forever.
        {
          const std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.write_timeouts;
        }
        ::shutdown(conn->fd, SHUT_RDWR);
      }
      return;  // client hung up; the request is already done
    }
    sent += static_cast<size_t>(n);
  }
}

void Server::ConnectionLoop(Connection* conn) {
  using Clock = std::chrono::steady_clock;
  // SO_RCVTIMEO gives recv() a coarse polling granularity; the actual
  // read/idle deadlines are enforced against a monotonic clock below, so
  // the precision of the socket timeout never matters.
  const bool timed =
      options_.read_timeout_ms > 0 || options_.idle_timeout_ms > 0;
  if (timed) {
    timeval poll_tv{};
    poll_tv.tv_sec = 0;
    poll_tv.tv_usec = 100 * 1000;
    ::setsockopt(conn->fd, SOL_SOCKET, SO_RCVTIMEO, &poll_tv,
                 sizeof(poll_tv));
  }
  if (options_.write_timeout_ms > 0) {
    timeval send_tv{};
    send_tv.tv_sec = options_.write_timeout_ms / 1000;
    send_tv.tv_usec = (options_.write_timeout_ms % 1000) * 1000;
    ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv,
                 sizeof(send_tv));
  }
  std::string pending;
  char buf[4096];
  Clock::time_point last_byte = Clock::now();
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      if (stopping_.load()) break;
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - last_byte)
                              .count();
      if (!pending.empty() && options_.read_timeout_ms > 0 &&
          waited >= options_.read_timeout_ms) {
        // A request line started arriving and then stalled — the
        // slow-loris shape. Tell the client why, then reap.
        {
          const std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.reaped_deadline;
        }
        WriteResponse(
            conn, ErrorResponse(
                      0, util::Status::DeadlineExceeded(
                             "server: request not completed within " +
                             std::to_string(options_.read_timeout_ms) +
                             " ms read deadline; closing connection")));
        ::shutdown(conn->fd, SHUT_RDWR);
        break;
      }
      if (pending.empty() && options_.idle_timeout_ms > 0 &&
          waited >= options_.idle_timeout_ms) {
        {
          const std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.reaped_idle;
        }
        WriteResponse(conn,
                      ErrorResponse(0, util::Status::DeadlineExceeded(
                                           "server: idle connection reaped "
                                           "after " +
                                           std::to_string(
                                               options_.idle_timeout_ms) +
                                           " ms")));
        ::shutdown(conn->fd, SHUT_RDWR);
        break;
      }
      continue;
    }
    last_byte = Clock::now();
    pending.append(buf, static_cast<size_t>(n));
    size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
      }
      auto parsed = ParseRequest(line);
      if (!parsed.ok()) {
        {
          const std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.rejected_parse;
        }
        WriteResponse(conn, ErrorResponse(0, parsed.status()));
        continue;
      }
      Request request = std::move(parsed).value();

      if (request.op == RequestOp::kShutdown) {
        // Answered inline so shutdown works even with a saturated queue;
        // the response must hit the wire before Stop() closes the socket.
        Response ok;
        ok.id = request.id;
        WriteResponse(conn, ok);
        Stop();
        continue;
      }
      if (stopping_.load()) {
        WriteResponse(conn, ErrorResponse(request.id,
                                          util::Status::Unavailable(
                                              "server: shutting down")));
        continue;
      }

      bool admitted = false;
      {
        const std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.size() < options_.max_queue) {
          queue_.push_back(Job{conn, std::move(request)});
          admitted = true;
        }
      }
      if (admitted) {
        queue_cv_.notify_one();
      } else {
        {
          const std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.rejected_queue_full;
        }
        WriteResponse(
            conn, ErrorResponse(
                      request.id,
                      util::Status::ResourceExhausted(
                          "server: admission queue is full (capacity " +
                          std::to_string(options_.max_queue) +
                          "); retry later")));
      }
    }
    if (pending.size() > kMaxRequestBytes) {
      WriteResponse(conn, ErrorResponse(0, util::Status::InvalidArgument(
                                               "server: request line exceeds " +
                                               std::to_string(
                                                   kMaxRequestBytes) +
                                               " bytes")));
      break;
    }
  }
}

bool Server::NextBatch(std::vector<Job>* batch) {
  batch->clear();
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] { return stopping_.load() || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopping, queue drained
  batch->push_back(std::move(queue_.front()));
  queue_.pop_front();
  // By value: growing `batch` below reallocates and would dangle a
  // reference into it.
  const Request head = batch->front().request;
  if (head.op == RequestOp::kSample) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (Compatible(head, it->request)) {
        batch->push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return true;
}

void Server::ExecuteBatch(std::vector<Job>& batch) {
  if (batch.size() == 1) {
    Job& job = batch.front();
    WriteResponse(job.conn, Handle(job.request));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    stats_.batched_requests += batch.size();
  }
  std::vector<const Request*> requests;
  requests.reserve(batch.size());
  for (const Job& job : batch) requests.push_back(&job.request);
  const std::vector<Response> responses = ServeSamples(requests);
  for (size_t i = 0; i < batch.size(); ++i) {
    WriteResponse(batch[i].conn, responses[i]);
  }
}

std::vector<Response> Server::ServeSamples(
    const std::vector<const Request*>& requests) {
  std::vector<Response> responses(requests.size());
  const Request& head = *requests.front();
  auto lease = cache_.Lookup(head.name);
  if (!lease.ok()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = ErrorResponse(requests[i]->id, lease.status());
    }
    return responses;
  }
  const pipeline::ReleaseEngine& engine = *lease.value().engine;
  const uint64_t release_key = lease.value().release_key;

  // Every tenant pays (idempotently) before any sampling happens; requests
  // whose tenant is out of budget drop out with a typed error while the
  // rest proceed.
  std::vector<size_t> active;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto st = ChargeTenant(requests[i]->tenant, release_key,
                           engine.artifact().epsilon_spent);
    if (st.ok()) {
      active.push_back(i);
    } else {
      responses[i] = ErrorResponse(requests[i]->id, std::move(st));
    }
  }
  std::sort(active.begin(), active.end(), [&](size_t a, size_t b) {
    return requests[a]->sequence < requests[b]->sequence;
  });

  // Coalesce contiguous sequence ranges into single SampleMany calls of at
  // most kMaxSampleCount graphs (ParseRequest caps each count, and the
  // sum stays an int).
  size_t i = 0;
  while (i < active.size()) {
    const Request& first = *requests[active[i]];
    const uint64_t run_start = first.sequence;
    uint64_t run_end = run_start + static_cast<uint64_t>(first.count);
    size_t j = i + 1;
    while (j < active.size() && requests[active[j]]->sequence == run_end &&
           run_end - run_start + static_cast<uint64_t>(
                                     requests[active[j]]->count) <=
               static_cast<uint64_t>(kMaxSampleCount)) {
      run_end += static_cast<uint64_t>(requests[active[j]]->count);
      ++j;
    }
    pipeline::SampleRequest base;
    base.seed = head.seed;
    base.sequence = run_start;
    base.refine_iterations = head.refine_iterations;
    auto graphs = engine.SampleMany(static_cast<int>(run_end - run_start),
                                    base);
    size_t offset = 0;
    for (size_t k = i; k < j; ++k) {
      const Request& request = *requests[active[k]];
      if (!graphs.ok()) {
        responses[active[k]] = ErrorResponse(request.id, graphs.status());
        continue;
      }
      std::vector<graph::AttributedGraph>& all = graphs.value();
      const size_t count = static_cast<size_t>(request.count);
      std::vector<graph::AttributedGraph> slice(
          std::make_move_iterator(all.begin() +
                                  static_cast<ptrdiff_t>(offset)),
          std::make_move_iterator(all.begin() +
                                  static_cast<ptrdiff_t>(offset + count)));
      offset += count;
      responses[active[k]] = FinishSample(request, std::move(slice));
    }
    i = j;
  }
  return responses;
}

void Server::WorkerLoop() {
  std::vector<Job> batch;
  while (NextBatch(&batch)) ExecuteBatch(batch);
}

Response Server::Handle(const Request& request) {
  switch (request.op) {
    case RequestOp::kLoad:
      return HandleLoad(request);
    case RequestOp::kSample:
      return std::move(ServeSamples({&request}).front());
    case RequestOp::kPin: {
      Response response;
      response.id = request.id;
      response.status = cache_.Pin(request.name);
      return response;
    }
    case RequestOp::kUnpin: {
      Response response;
      response.id = request.id;
      response.status = cache_.Unpin(request.name);
      return response;
    }
    case RequestOp::kUnload: {
      Response response;
      response.id = request.id;
      response.status = cache_.Erase(request.name);
      return response;
    }
    case RequestOp::kStats:
      return HandleStats(request);
    case RequestOp::kShutdown: {
      Stop();
      Response response;
      response.id = request.id;
      return response;
    }
  }
  return ErrorResponse(request.id,
                       util::Status::Internal("server: unhandled op"));
}

util::Status Server::ChargeTenant(const std::string& tenant,
                                  uint64_t release_key, double epsilon) {
  bool newly_charged = false;
  if (auto st = ledger_.Charge(tenant, release_key, epsilon, &newly_charged);
      !st.ok()) {
    return st;
  }
  if (newly_charged && registry_ != nullptr) {
    // Journal the fresh debit and fsync BEFORE the request is answered: a
    // crash after this point finds the spend on disk; a crash before it
    // finds an unacknowledged request. The in-memory debit is deliberately
    // NOT rolled back when the journal fails — over-counting is the safe
    // direction for a privacy budget.
    if (auto st = registry_->ChargeTenant(tenant, release_key, epsilon);
        !st.ok()) {
      return st;
    }
  }
  return util::Status::OK();
}

Response Server::HandleLoad(const Request& request) {
  // The release key, computed once per load and cached with the engine:
  // a registry entry already holds it, a file's artifact is hashed here.
  uint64_t release_key = 0;
  util::Result<pipeline::ReleaseArtifact> artifact =
      [&]() -> util::Result<pipeline::ReleaseArtifact> {
    if (!request.dataset.empty()) {
      if (registry_ == nullptr) {
        return util::Status::FailedPrecondition(
            "server: load by dataset/name needs a daemon started with "
            "--registry");
      }
      return registry_->Resolve(request.dataset, request.name, &release_key);
    }
    auto read = pipeline::ReadReleaseArtifact(request.artifact);
    if (read.ok()) {
      release_key = pipeline::ReleaseArtifactReleaseKey(read.value());
    }
    return read;
  }();
  if (!artifact.ok()) return ErrorResponse(request.id, artifact.status());

  // The ledger is charged before the (expensive) engine build: the debit
  // is idempotent per release key, so a later cache rejection followed by
  // a retry costs the tenant nothing extra.
  if (auto st = ChargeTenant(request.tenant, release_key,
                             artifact.value().epsilon_spent);
      !st.ok()) {
    return ErrorResponse(request.id, std::move(st));
  }

  pipeline::EngineOptions engine_options;
  engine_options.threads = options_.engine_threads;
  auto engine = pipeline::ReleaseEngine::Create(std::move(artifact).value(),
                                                engine_options);
  if (!engine.ok()) return ErrorResponse(request.id, engine.status());
  std::shared_ptr<pipeline::ReleaseEngine> shared =
      std::move(engine).value();
  const uint64_t bytes = shared->ApproxBytes();
  if (auto st = cache_.Insert(request.name, std::move(shared), release_key);
      !st.ok()) {
    return ErrorResponse(request.id, std::move(st));
  }

  Response response;
  response.id = request.id;
  response.stats.emplace_back("engine_bytes", static_cast<double>(bytes));
  response.stats.emplace_back(
      "cache_bytes_in_use", static_cast<double>(cache_.Stats().bytes_in_use));
  return response;
}

Response Server::FinishSample(const Request& request,
                              std::vector<graph::AttributedGraph> graphs) {
  Response response;
  response.id = request.id;
  response.graphs.reserve(graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) {
    GraphSummary summary;
    summary.nodes = graphs[i].num_nodes();
    summary.edges = graphs[i].num_edges();
    summary.checksum = GraphChecksum(graphs[i]);
    if (!request.out.empty()) {
      // Format routing is the client's file-name choice: an --out ending
      // in .agmbin makes every numbered sample a binary container.
      summary.path = graph::NumberedGraphPath(
          request.out, request.sequence + static_cast<uint64_t>(i));
      if (auto st = graph::WriteGraph(graphs[i], summary.path); !st.ok()) {
        return ErrorResponse(request.id, std::move(st));
      }
    }
    response.graphs.push_back(std::move(summary));
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.graphs_served += graphs.size();
  }
  return response;
}

Response Server::HandleStats(const Request& request) {
  Response response;
  response.id = request.id;
  const ServerStats stats = Stats();
  const EngineCacheStats cache = cache_.Stats();
  auto add = [&response](const char* key, double value) {
    response.stats.emplace_back(key, value);
  };
  add("requests", static_cast<double>(stats.requests));
  add("rejected_queue_full", static_cast<double>(stats.rejected_queue_full));
  add("rejected_parse", static_cast<double>(stats.rejected_parse));
  add("batches", static_cast<double>(stats.batches));
  add("batched_requests", static_cast<double>(stats.batched_requests));
  add("graphs_served", static_cast<double>(stats.graphs_served));
  add("reaped_idle", static_cast<double>(stats.reaped_idle));
  add("reaped_deadline", static_cast<double>(stats.reaped_deadline));
  add("write_timeouts", static_cast<double>(stats.write_timeouts));
  add("cache_hits", static_cast<double>(cache.hits));
  add("cache_misses", static_cast<double>(cache.misses));
  add("cache_evictions", static_cast<double>(cache.evictions));
  add("cache_insertions", static_cast<double>(cache.insertions));
  add("cache_rejections", static_cast<double>(cache.rejections));
  add("cache_bytes_in_use", static_cast<double>(cache.bytes_in_use));
  add("cache_byte_budget", static_cast<double>(cache.byte_budget));
  add("cache_entries", static_cast<double>(cache.entries));
  add("cache_pinned_entries", static_cast<double>(cache.pinned_entries));
  for (const TenantLedger::TenantRow& row : ledger_.Rows()) {
    response.stats.emplace_back("tenant_spent:" + row.tenant, row.spent);
    response.stats.emplace_back("tenant_budget:" + row.tenant, row.budget);
  }
  if (registry_ != nullptr) {
    const registry::RegistryStats reg = registry_->Stats();
    add("registry_artifacts", static_cast<double>(reg.artifacts));
    add("registry_datasets", static_cast<double>(reg.datasets));
    add("registry_tenant_charges", static_cast<double>(reg.tenant_charges));
    add("registry_recovered_records",
        static_cast<double>(reg.recovered_records));
    add("registry_discarded_tail_bytes",
        static_cast<double>(reg.discarded_tail_bytes));
    add("registry_appends", static_cast<double>(reg.appends));
    add("registry_checkpoints", static_cast<double>(reg.checkpoints));
    add("registry_journal_bytes", static_cast<double>(reg.journal_bytes));
    add("registry_wounded", reg.wounded ? 1.0 : 0.0);
    for (const registry::DatasetRow& row : registry_->Datasets()) {
      response.stats.emplace_back("dataset_spent:" + row.dataset, row.spent);
      response.stats.emplace_back("dataset_cap:" + row.dataset, row.cap);
    }
  }
  return response;
}

ServerStats Server::Stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace agmdp::server
