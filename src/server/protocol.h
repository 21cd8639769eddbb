// Wire protocol of the `agmdp serve` daemon: newline-delimited JSON over a
// plain TCP stream, one request object per line, one response object per
// line (correlated by the echoed `id`, so responses may arrive out of
// order when the server batches or reorders work).
//
// Requests (fields beyond `op`/`id` are op-specific):
//   {"op":"load","id":1,"tenant":"t","name":"m","artifact":"r.json"}
//   {"op":"load","id":1,"tenant":"t","name":"m","dataset":"lastfm"}
//     (registry-resolved: the server looks (dataset, name) up in its
//      ArtifactRegistry instead of reading an artifact file)
//   {"op":"sample","id":2,"tenant":"t","name":"m","seed":7,"sequence":0,
//    "count":2,"out":"prefix"}
//   {"op":"pin","id":3,"name":"m"}       {"op":"unpin","id":4,"name":"m"}
//   {"op":"unload","id":5,"name":"m"}
//   {"op":"stats","id":6}
//   {"op":"shutdown","id":7}
// Responses:
//   {"id":2,"ok":true,"graphs":[{"nodes":100,"edges":512,
//    "checksum":"12345","path":"prefix_0"}]}
//   {"id":1,"ok":false,"code":"ResourceExhausted","error":"..."}
//
// Everything arriving on the socket is untrusted: requests are parsed
// under hard byte/depth caps (util::JsonLimits) and every violation is a
// typed InvalidArgument response, never a crash. uint64 values (seeds,
// sequence numbers, checksums) travel as decimal strings or exact JSON
// integers; checksums always as strings (they exceed 2^53).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace agmdp::server {

/// Bump when the wire layout changes incompatibly.
inline constexpr int kProtocolVersion = 1;

/// Hard caps on one request line from the socket — far above any
/// legitimate request (the largest op is a flat object of short strings)
/// and far below anything that could pressure the parser.
inline constexpr size_t kMaxRequestBytes = 64 * 1024;
inline constexpr int kMaxRequestDepth = 8;
/// Most graphs one sample request may ask for. Every graph of a request is
/// held in memory until the response is written, so an unbounded count
/// would let one line exhaust the daemon's memory.
inline constexpr int kMaxSampleCount = 4096;

enum class RequestOp {
  kLoad,      // build + admit an engine from an artifact file
  kSample,    // serve `count` graphs from a cached engine
  kPin,       // make a cache entry non-evictable
  kUnpin,     // make it evictable again
  kUnload,    // drop an unpinned entry
  kStats,     // server / cache / ledger counters
  kShutdown,  // clean daemon shutdown
};

const char* RequestOpName(RequestOp op);

/// \brief One parsed client request.
struct Request {
  RequestOp op = RequestOp::kStats;
  /// Client correlation id, echoed verbatim in the response.
  uint64_t id = 0;
  /// Tenant whose epsilon ledger the request charges (load/sample).
  std::string tenant;
  /// Cache entry name (every op except stats/shutdown).
  std::string name;
  /// Artifact file path (load only; exclusive with `dataset`).
  std::string artifact;
  /// Registry dataset to resolve (dataset, name) from (load only;
  /// exclusive with `artifact` — needs a daemon started with a registry).
  std::string dataset;
  /// Sampling request (sample only): graphs (seed, sequence) ..
  /// (seed, sequence + count - 1), exactly ReleaseEngine::SampleMany.
  uint64_t seed = 1;
  uint64_t sequence = 0;
  int count = 1;
  /// Acceptance refinements per sample; -1 = engine default, at most
  /// agm::kMaxAcceptanceIterations.
  int refine_iterations = -1;
  /// Optional server-side output prefix; when set the server writes each
  /// sampled graph via graph::WriteAttributedGraph and returns the paths.
  std::string out;
};

/// Parses one request line under the protocol caps. Any malformed input —
/// bad JSON, adversarial nesting, oversized line, unknown op, wrong field
/// type, count outside [1, kMaxSampleCount], a sequence range that wraps
/// uint64, refine outside [-1, agm::kMaxAcceptanceIterations] — is a typed
/// InvalidArgument.
util::Result<Request> ParseRequest(const std::string& line);

/// Serializes a request as one line (no trailing newline) — the client
/// side of the protocol.
std::string SerializeRequest(const Request& request);

/// \brief Summary of one served graph.
struct GraphSummary {
  uint32_t nodes = 0;
  uint64_t edges = 0;
  /// Stable FNV-1a fingerprint of the graph (GraphChecksum below) — lets a
  /// client verify determinism without shipping the edge list.
  uint64_t checksum = 0;
  /// Server-side path prefix the graph was written to; empty when the
  /// request had no `out`.
  std::string path;
};

/// \brief One server response.
struct Response {
  uint64_t id = 0;
  util::Status status;
  /// sample: one entry per served graph, in sequence order.
  std::vector<GraphSummary> graphs;
  /// stats (and piggybacked on load): counter name -> value.
  std::vector<std::pair<std::string, double>> stats;
};

/// Serializes a response as one line (no trailing newline).
std::string SerializeResponse(const Response& response);

/// Parses a response line — the client side. Accepts any line the server
/// emits; the embedded status round-trips code and message.
util::Result<Response> ParseResponse(const std::string& line);

/// FNV-1a over the graph dimensions, canonical edge list and attribute
/// vector — a stable fingerprint of a released graph, identical across
/// processes and machines for identical graphs. (The same checksum the
/// golden-release pipeline tests use.)
uint64_t GraphChecksum(const graph::AttributedGraph& g);

}  // namespace agmdp::server
