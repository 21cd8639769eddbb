#include "src/graph/graph_source.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/graph/graph_container.h"
#include "src/graph/graph_io.h"

namespace agmdp::graph {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

util::Result<GraphSource> GraphSource::Open(const std::string& path) {
  GraphSource source;
  source.path_ = path;
  if (IsBinaryGraphFile(path)) {
    auto snapshot = OpenBinarySnapshot(path);
    if (!snapshot.ok()) return snapshot.status();
    source.format_ = Format::kBinary;
    source.snapshot_ = std::move(snapshot).value();
    return source;
  }
  auto resolved = ResolveTextGraphPaths(path);
  if (!resolved.ok()) return resolved.status();
  std::vector<uint64_t> offsets;
  std::vector<NodeId> neighbors;
  std::vector<AttrConfig> attributes;
  int num_attributes = 0;
  auto st = ReadTextGraph(
      resolved.value(),
      [&](const TextGraphShape& shape) -> util::Result<TextGraphArrays> {
        offsets.resize(uint64_t{shape.num_nodes} + 1);
        neighbors.resize(2 * shape.num_edges);
        attributes.resize(shape.num_nodes);
        num_attributes = shape.num_attributes;
        return TextGraphArrays{offsets.data(), neighbors.data(),
                               attributes.data()};
      });
  if (!st.ok()) return st;
  source.format_ = Format::kText;
  source.snapshot_ = AttributedCsrGraph::FromArrays(
      CsrGraph::FromArrays(std::move(offsets), std::move(neighbors)),
      std::move(attributes), num_attributes);
  return source;
}

AttributedGraph GraphSource::Materialize() const {
  return MaterializeSnapshot(snapshot_);
}

util::Status WriteGraph(const AttributedGraph& g, const std::string& path) {
  if (EndsWith(path, kBinaryGraphExtension)) {
    return WriteBinaryGraph(g, path);
  }
  return WriteAttributedGraph(g, path);
}

std::string NumberedGraphPath(const std::string& path, uint64_t index) {
  const std::string suffix = "_" + std::to_string(index);
  if (EndsWith(path, kBinaryGraphExtension)) {
    const size_t stem = path.size() - std::strlen(kBinaryGraphExtension);
    return path.substr(0, stem) + suffix + kBinaryGraphExtension;
  }
  return path + suffix;
}

}  // namespace agmdp::graph
