#include "src/graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <vector>

namespace agmdp::graph {

namespace {

// ------------------------------------------------ line parsing --
// Allocation-free parsers over one reused line buffer. All skip leading
// blanks, accept only non-negative decimals (a leading '-' is a parse
// failure, not a wrapped huge value) and tolerate trailing content after
// the parsed fields.

// Advances past spaces, tabs and stray '\r' (CRLF input).
void SkipBlanks(const char** p) {
  while (**p == ' ' || **p == '\t' || **p == '\r') ++(*p);
}

// Parses a non-negative decimal into *out. Leaves *p on the first
// non-digit character. Fails on no digits or uint64 overflow.
bool ParseUint(const char** p, uint64_t* out) {
  SkipBlanks(p);
  const char* s = *p;
  if (*s < '0' || *s > '9') return false;
  uint64_t value = 0;
  for (; *s >= '0' && *s <= '9'; ++s) {
    const uint64_t digit = static_cast<uint64_t>(*s - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *p = s;
  *out = value;
  return true;
}

// Matches the literal header tag `tag` followed by a blank (so "nx" does
// not match tag 'n').
bool ParseTag(const char** p, char tag) {
  SkipBlanks(p);
  if (**p != tag) return false;
  const char next = (*p)[1];
  if (next != ' ' && next != '\t') return false;
  *p += 1;
  return true;
}

// Parses "<u> <v>" from an edge or attribute body line.
bool ParseTwoUints(const std::string& line, uint64_t* a, uint64_t* b) {
  const char* p = line.c_str();
  return ParseUint(&p, a) && ParseUint(&p, b);
}

// Parses the edge-list header "n <count>".
bool ParseEdgeHeader(const std::string& line, uint64_t* n) {
  const char* p = line.c_str();
  return ParseTag(&p, 'n') && ParseUint(&p, n);
}

// Parses the attribute header "n <count> w <width>".
bool ParseAttrHeader(const std::string& line, uint64_t* n, uint64_t* w) {
  const char* p = line.c_str();
  return ParseTag(&p, 'n') && ParseUint(&p, n) && ParseTag(&p, 'w') &&
         ParseUint(&p, w);
}

// Yields the lines of a text file that carry data, skipping blank lines
// (possibly just "\r") and '#' comments, and keeps the 1-based number of
// the current line so every error can name its position.
class LineReader {
 public:
  util::Status Open(const std::string& path) {
    path_ = path;
    line_no_ = 0;
    in_.close();
    in_.open(path);
    if (!in_.is_open()) {
      return util::Status::IoError("cannot open for reading: " + path);
    }
    return util::Status::OK();
  }

  // Advances to the next data line; false at the end of the file.
  bool Next() {
    while (std::getline(in_, line_)) {
      ++line_no_;
      const char* p = line_.c_str();
      SkipBlanks(&p);
      if (*p != '\0' && *p != '#') return true;
    }
    return false;
  }

  const std::string& line() const { return line_; }

  // IoError "<what> at <path>:<line>".
  util::Status Error(const std::string& what) const {
    return util::Status::IoError(what + " at " + path_ + ":" +
                                 std::to_string(line_no_));
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::string line_;
  uint64_t line_no_ = 0;
};

// Error path of the duplicate check: rescans the edge file for the second
// occurrence of the edge {a, b}, so the report names that line.
util::Status DuplicateEdgeError(const std::string& path, uint64_t a,
                                uint64_t b) {
  LineReader lines;
  if (lines.Open(path).ok() && lines.Next()) {  // past the header
    bool seen = false;
    while (lines.Next()) {
      uint64_t u = 0, v = 0;
      if (!ParseTwoUints(lines.line(), &u, &v)) continue;
      if ((u == a && v == b) || (u == b && v == a)) {
        if (seen) return lines.Error("duplicate edge");
        seen = true;
      }
    }
  }
  // The file changed underneath: name the edge instead of a line.
  return util::Status::IoError("duplicate edge between " + std::to_string(a) +
                               " and " + std::to_string(b) + " in " + path);
}

util::Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path, std::ios::trunc);
  if (!out->is_open()) {
    return util::Status::IoError("cannot open for writing: " + path);
  }
  return util::Status::OK();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

util::Result<TextGraphPaths> ResolveTextGraphPaths(const std::string& path) {
  TextGraphPaths out;
  const std::string kExt = ".edges";
  if (path.size() > kExt.size() &&
      path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0) {
    out.edges = path;
    out.attrs = path.substr(0, path.size() - kExt.size()) + ".attrs";
  } else if (FileExists(path + kExt)) {
    out.edges = path + kExt;
    out.attrs = path + ".attrs";
  } else {
    out.edges = path;
    out.attrs = path + ".attrs";
  }
  if (!FileExists(out.edges)) {
    return util::Status::NotFound("no text graph at " + path + " (looked for " +
                                  out.edges + ")");
  }
  out.has_attrs = FileExists(out.attrs);
  return out;
}

util::Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out;
  if (auto st = OpenForWrite(path, &out); !st.ok()) return st;
  out << "n " << g.num_nodes() << "\n";
  for (const Edge& e : g.CanonicalEdges()) {
    out << e.u << " " << e.v << "\n";
  }
  out.flush();
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

util::Status WriteAttributedGraph(const AttributedGraph& g,
                                  const std::string& path_prefix) {
  if (auto st = WriteEdgeList(g.structure(), path_prefix + ".edges");
      !st.ok()) {
    return st;
  }
  std::ofstream out;
  if (auto st = OpenForWrite(path_prefix + ".attrs", &out); !st.ok()) {
    return st;
  }
  out << "n " << g.num_nodes() << " w " << g.num_attributes() << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << v << " " << g.attribute(v) << "\n";
  }
  out.flush();
  if (!out.good()) {
    return util::Status::IoError("write failed: " + path_prefix + ".attrs");
  }
  return util::Status::OK();
}

util::Status WriteGraphMl(const AttributedCsrGraph& g,
                          const std::string& path) {
  std::ofstream out;
  if (auto st = OpenForWrite(path, &out); !st.ok()) return st;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  for (int a = 0; a < g.num_attributes; ++a) {
    out << "  <key id=\"a" << a << "\" for=\"node\" attr.name=\"attr" << a
        << "\" attr.type=\"int\"/>\n";
  }
  out << "  <graph id=\"G\" edgedefault=\"undirected\">\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "    <node id=\"n" << v << "\">";
    for (int a = 0; a < g.num_attributes; ++a) {
      out << "<data key=\"a" << a << "\">" << ((g.attribute(v) >> a) & 1u)
          << "</data>";
    }
    out << "</node>\n";
  }
  uint64_t edge_id = 0;
  g.structure.ForEachEdge([&](NodeId u, NodeId v) {
    out << "    <edge id=\"e" << edge_id++ << "\" source=\"n" << u
        << "\" target=\"n" << v << "\"/>\n";
  });
  out << "  </graph>\n</graphml>\n";
  out.flush();
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

util::Status ReadTextGraph(const TextGraphPaths& paths,
                           const TextGraphPlacement& place) {
  // Pass 1: validate every edge line and count degrees, the only O(n)
  // state, so pass 2 can place endpoints straight into the arrays.
  LineReader edges;
  if (auto st = edges.Open(paths.edges); !st.ok()) return st;
  if (!edges.Next()) {
    return util::Status::IoError("missing edge-list header in " + paths.edges);
  }
  uint64_t n = 0;
  if (!ParseEdgeHeader(edges.line(), &n)) {
    return edges.Error("bad edge-list header");
  }
  if (n > std::numeric_limits<NodeId>::max()) {
    return edges.Error("node count overflows NodeId");
  }
  std::vector<uint32_t> degrees(n, 0);
  TextGraphShape shape;
  shape.num_nodes = static_cast<NodeId>(n);
  while (edges.Next()) {
    uint64_t u = 0, v = 0;
    if (!ParseTwoUints(edges.line(), &u, &v)) return edges.Error("bad edge");
    if (u == v) return edges.Error("self-loop");
    if (u >= n || v >= n) return edges.Error("edge out of range");
    if (degrees[u] == std::numeric_limits<uint32_t>::max() ||
        degrees[v] == std::numeric_limits<uint32_t>::max()) {
      return edges.Error("degree overflow");
    }
    ++degrees[u];
    ++degrees[v];
    ++shape.num_edges;
  }

  LineReader attrs;
  if (paths.has_attrs) {
    if (auto st = attrs.Open(paths.attrs); !st.ok()) return st;
    if (!attrs.Next()) {
      return util::Status::IoError("empty attribute file: " + paths.attrs);
    }
    uint64_t attr_nodes = 0, w = 0;
    if (!ParseAttrHeader(attrs.line(), &attr_nodes, &w)) {
      return attrs.Error("bad attribute header");
    }
    if (attr_nodes != n) {
      return attrs.Error("attribute/edge node count mismatch");
    }
    if (w > 20) {
      return attrs.Error("attribute count out of range [0, 20]: " +
                         std::to_string(w));
    }
    shape.num_attributes = static_cast<int>(w);
  }

  auto placed = place(shape);
  if (!placed.ok()) return placed.status();
  const TextGraphArrays& out = placed.value();
  out.offsets[0] = 0;
  for (uint64_t v = 0; v < n; ++v) {
    out.offsets[v + 1] = out.offsets[v] + degrees[v];
  }
  degrees.clear();
  degrees.shrink_to_fit();

  // Pass 2: place both endpoints of each edge through a per-node cursor.
  // Every line passed pass 1, so any surprise means the file changed.
  const std::string changed = "edge file changed between reads";
  std::vector<uint64_t> cursor(out.offsets, out.offsets + n);
  if (auto st = edges.Open(paths.edges); !st.ok()) return st;
  if (!edges.Next()) return edges.Error(changed);  // the header
  while (edges.Next()) {
    uint64_t u = 0, v = 0;
    if (!ParseTwoUints(edges.line(), &u, &v) || u >= n || v >= n || u == v ||
        cursor[u] == out.offsets[u + 1] || cursor[v] == out.offsets[v + 1]) {
      return edges.Error(changed);
    }
    out.neighbors[cursor[u]++] = static_cast<NodeId>(v);
    out.neighbors[cursor[v]++] = static_cast<NodeId>(u);
  }
  for (uint64_t v = 0; v < n; ++v) {
    if (cursor[v] != out.offsets[v + 1]) {
      return util::Status::IoError(changed + ": " + paths.edges);
    }
  }
  cursor.clear();
  cursor.shrink_to_fit();

  // Sort each range in place; a duplicate edge shows up as adjacent equal
  // endpoints.
  for (uint64_t v = 0; v < n; ++v) {
    NodeId* first = out.neighbors + out.offsets[v];
    NodeId* last = out.neighbors + out.offsets[v + 1];
    std::sort(first, last);
    const NodeId* dup = std::adjacent_find(first, last);
    if (dup != last) return DuplicateEdgeError(paths.edges, v, *dup);
  }

  if (paths.has_attrs) {
    const AttrConfig limit = NumNodeConfigs(shape.num_attributes);
    while (attrs.Next()) {
      uint64_t v = 0, config = 0;
      if (!ParseTwoUints(attrs.line(), &v, &config)) {
        return attrs.Error("bad attribute line");
      }
      if (v >= n) return attrs.Error("attribute node id out of range");
      if (config >= limit) return attrs.Error("attribute config out of range");
      out.attributes[v] = static_cast<AttrConfig>(config);
    }
  }
  return util::Status::OK();
}

}  // namespace agmdp::graph
