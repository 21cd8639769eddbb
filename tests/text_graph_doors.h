// The text-graph format has one decoder (graph::ReadTextGraph) and two
// front doors: GraphSource::Open, which reads into an owned snapshot, and
// ConvertTextToBinary, which reads into a container mapping. These helpers
// run an input through both and check that the doors agree.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/graph/csr.h"
#include "src/graph/graph_container.h"
#include "src/graph/graph_source.h"

namespace agmdp::test_support {

/// Same shape, degrees, sorted neighbor ranges and configs.
inline void ExpectSnapshotsEqual(const graph::AttributedCsrGraph& a,
                                 const graph::AttributedCsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_attributes, b.num_attributes);
  EXPECT_EQ(a.structure.MaxDegree(), b.structure.MaxDegree());
  EXPECT_EQ(a.structure.degrees(), b.structure.degrees());
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    const graph::NeighborRange ra = a.structure.Neighbors(v);
    const graph::NeighborRange rb = b.structure.Neighbors(v);
    ASSERT_EQ(ra.size(), rb.size()) << "node " << v;
    EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()))
        << "neighbor range differs at node " << v;
    EXPECT_EQ(a.attribute(v), b.attribute(v)) << "node " << v;
  }
}

/// Opens the text graph at `path` through GraphSource::Open and converts
/// it with ConvertTextToBinary. Both must fail with the same code and
/// message (position included), or both succeed with equal arrays.
/// Returns GraphSource's snapshot or error.
inline util::Result<graph::AttributedCsrGraph> ReadThroughBothDoors(
    const std::string& path) {
  const std::string bin = path + ".doors.agmbin";
  auto converted = graph::ConvertTextToBinary(path, bin);
  auto opened = converted.ok()
                    ? graph::OpenBinarySnapshot(bin)
                    : util::Result<graph::AttributedCsrGraph>(
                          converted.status());
  std::remove(bin.c_str());  // an open snapshot keeps its mapping
  auto source = graph::GraphSource::Open(path);
  if (!source.ok()) {
    EXPECT_EQ(converted.status().code(), source.status().code()) << path;
    EXPECT_EQ(converted.status().message(), source.status().message());
    return source.status();
  }
  EXPECT_TRUE(opened.ok()) << path << ": " << opened.status().ToString();
  if (opened.ok()) {
    ExpectSnapshotsEqual(source.value().snapshot(), opened.value());
  }
  return source.value().snapshot();
}

}  // namespace agmdp::test_support
