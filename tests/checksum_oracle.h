// The byte-wise form of server::GraphChecksum, kept as the reference its
// one-pass form is checked against: the canonical edge list materialised,
// then eight FNV-1a steps for every byte of every value.
#pragma once

#include <cstdint>

#include "src/graph/attributed_graph.h"

namespace agmdp::oracle {

inline uint64_t ByteWiseGraphChecksum(const graph::AttributedGraph& g) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(g.num_nodes());
  mix(static_cast<uint64_t>(g.num_attributes()));
  for (const graph::Edge& e : g.structure().CanonicalEdges()) {
    mix(e.u);
    mix(e.v);
  }
  for (graph::AttrConfig a : g.attributes()) mix(a);
  return h;
}

}  // namespace agmdp::oracle
