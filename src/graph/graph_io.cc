#include "src/graph/graph_io.h"

#include <cstdint>
#include <fstream>
#include <limits>

namespace agmdp::graph {

namespace textio {

namespace {

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

}  // namespace

bool IsSkippableLine(const std::string& line) {
  const char* p = line.c_str();
  SkipBlanks(&p);
  return *p == '\0' || *p == '#';
}

bool ParseTwoUints(const std::string& line, uint64_t* a, uint64_t* b) {
  const char* p = line.c_str();
  return ParseUint(&p, a) && ParseUint(&p, b);
}

bool ParseEdgeHeader(const std::string& line, uint64_t* n) {
  const char* p = line.c_str();
  return ParseTag(&p, 'n') && ParseUint(&p, n);
}

bool ParseAttrHeader(const std::string& line, uint64_t* n, uint64_t* w) {
  const char* p = line.c_str();
  return ParseTag(&p, 'n') && ParseUint(&p, n) && ParseTag(&p, 'w') &&
         ParseUint(&p, w);
}

}  // namespace textio

namespace {

util::Status OpenForRead(const std::string& path, std::ifstream* in) {
  in->open(path);
  if (!in->is_open()) {
    return util::Status::IoError("cannot open for reading: " + path);
  }
  return util::Status::OK();
}

util::Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path, std::ios::trunc);
  if (!out->is_open()) {
    return util::Status::IoError("cannot open for writing: " + path);
  }
  return util::Status::OK();
}

// Every parse error carries the exact input position.
std::string At(const std::string& path, uint64_t line_no) {
  return " at " + path + ":" + std::to_string(line_no);
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

util::Result<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in;
  if (auto st = OpenForRead(path, &in); !st.ok()) return st;
  // One line buffer reused across the whole file; the cursor parsers in
  // textio read it in place (no per-line stream or string allocation).
  std::string line;
  Graph g;
  bool have_header = false;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (textio::IsSkippableLine(line)) continue;
    if (!have_header) {
      uint64_t n = 0;
      if (!textio::ParseEdgeHeader(line, &n)) {
        return util::Status::IoError("bad edge-list header" + At(path, line_no));
      }
      if (n > std::numeric_limits<NodeId>::max()) {
        return util::Status::IoError("node count overflows NodeId" +
                                     At(path, line_no));
      }
      g = Graph(static_cast<NodeId>(n));
      have_header = true;
      continue;
    }
    uint64_t u = 0, v = 0;
    if (!textio::ParseTwoUints(line, &u, &v)) {
      return util::Status::IoError("bad edge" + At(path, line_no));
    }
    if (u == v) {
      return util::Status::IoError("self-loop" + At(path, line_no));
    }
    if (u >= g.num_nodes() || v >= g.num_nodes()) {
      return util::Status::IoError("edge out of range" + At(path, line_no));
    }
    if (!g.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v))) {
      return util::Status::IoError("duplicate edge" + At(path, line_no));
    }
  }
  if (!have_header) {
    return util::Status::IoError("missing edge-list header in " + path);
  }
  return g;
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

util::Status WriteGraphMl(const AttributedGraph& g, const std::string& path) {
  std::ofstream out;
  if (auto st = OpenForWrite(path, &out); !st.ok()) return st;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  for (int a = 0; a < g.num_attributes(); ++a) {
    out << "  <key id=\"a" << a << "\" for=\"node\" attr.name=\"attr" << a
        << "\" attr.type=\"int\"/>\n";
  }
  out << "  <graph id=\"G\" edgedefault=\"undirected\">\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "    <node id=\"n" << v << "\">";
    for (int a = 0; a < g.num_attributes(); ++a) {
      out << "<data key=\"a" << a << "\">" << ((g.attribute(v) >> a) & 1u)
          << "</data>";
    }
    out << "</node>\n";
  }
  uint64_t edge_id = 0;
  for (const Edge& e : g.structure().CanonicalEdges()) {
    out << "    <edge id=\"e" << edge_id++ << "\" source=\"n" << e.u
        << "\" target=\"n" << e.v << "\"/>\n";
  }
  out << "  </graph>\n</graphml>\n";
  out.flush();
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

util::Result<AttributedGraph> ReadAttributedGraphFiles(
    const TextGraphPaths& paths) {
  auto edges = ReadEdgeList(paths.edges);
  if (!edges.ok()) return edges.status();
  if (!paths.has_attrs) {
    return AttributedGraph(std::move(edges).value(), 0);
  }

  const std::string& path = paths.attrs;
  std::ifstream in;
  if (auto st = OpenForRead(path, &in); !st.ok()) return st;
  std::string line;
  uint64_t line_no = 0;
  uint64_t n = 0, w = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (textio::IsSkippableLine(line)) continue;
    if (!textio::ParseAttrHeader(line, &n, &w)) {
      return util::Status::IoError("bad attribute header" + At(path, line_no));
    }
    have_header = true;
    break;
  }
  if (!have_header) {
    return util::Status::IoError("empty attribute file: " + path);
  }
  if (n != edges.value().num_nodes()) {
    return util::Status::IoError("attribute/edge node count mismatch" +
                                 At(path, line_no));
  }
  // Validate before constructing: the AttributedGraph constructor (and
  // NumNodeConfigs below) treat an out-of-range w as a fatal invariant
  // violation, but for file input it must surface as a Status error.
  if (w > 20) {
    return util::Status::IoError("attribute count out of range [0, 20]: " +
                                 std::to_string(w) + At(path, line_no));
  }
  AttributedGraph g(std::move(edges).value(), static_cast<int>(w));
  const AttrConfig limit = NumNodeConfigs(static_cast<int>(w));
  while (std::getline(in, line)) {
    ++line_no;
    if (textio::IsSkippableLine(line)) continue;
    uint64_t v = 0, config = 0;
    if (!textio::ParseTwoUints(line, &v, &config)) {
      return util::Status::IoError("bad attribute line" + At(path, line_no));
    }
    if (v >= n) {
      return util::Status::IoError("attribute node id out of range" +
                                   At(path, line_no));
    }
    if (config >= limit) {
      return util::Status::IoError("attribute config out of range" +
                                   At(path, line_no));
    }
    g.set_attribute(static_cast<NodeId>(v), static_cast<AttrConfig>(config));
  }
  return g;
}

}  // namespace agmdp::graph
