#include "src/agm/params_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/graph/attribute_encoding.h"

namespace agmdp::agm {

namespace {
constexpr char kMagic[] = "agmdp-params";
constexpr int kVersion = 1;

util::Status BadTheta(const char* which, size_t index, double value) {
  std::ostringstream message;
  message << which << "[" << index << "] = " << value
          << " is not a finite non-negative probability mass";
  return util::Status::InvalidArgument(message.str());
}

// Reads a non-negative integer field into `out`, rejecting the wrapped
// values istream extraction would otherwise accept for "-1".
bool ReadCount(std::istream& in, uint64_t limit, uint64_t* out) {
  int64_t raw = 0;
  if (!(in >> raw) || raw < 0 || static_cast<uint64_t>(raw) > limit) {
    return false;
  }
  *out = static_cast<uint64_t>(raw);
  return true;
}

// Fills `out` with `count` stream-extracted doubles. push_back (not a
// resize) on purpose: allocation grows only as values actually arrive, so
// a corrupt count over a truncated file fails at the first missing value
// instead of reserving gigabytes up front.
bool ReadDoubles(std::istream& in, uint64_t count, std::vector<double>* out) {
  out->clear();
  for (uint64_t i = 0; i < count; ++i) {
    double value = 0.0;
    if (!(in >> value)) return false;
    out->push_back(value);
  }
  return true;
}

}  // namespace

util::Status ValidateAgmParams(const AgmParams& params) {
  // w is capped at 16: beyond that the triangular edge-config count
  // C(2^w + 1, 2) overflows NumEdgeConfigs's uint32 range, so a dimension
  // check against the truncated value would wave through short theta_f
  // vectors that the sampler then indexes out of bounds.
  if (params.w < 0 || params.w > 16) {
    return util::Status::InvalidArgument(
        "params: w must be in [0, 16], got " + std::to_string(params.w));
  }
  if (params.theta_x.size() != graph::NumNodeConfigs(params.w) ||
      params.theta_f.size() != graph::NumEdgeConfigs(params.w)) {
    return util::Status::InvalidArgument(
        "params: theta dimensions inconsistent with w=" +
        std::to_string(params.w));
  }
  for (size_t y = 0; y < params.theta_x.size(); ++y) {
    const double p = params.theta_x[y];
    if (!std::isfinite(p) || p < 0.0) return BadTheta("theta_x", y, p);
  }
  for (size_t y = 0; y < params.theta_f.size(); ++y) {
    const double p = params.theta_f[y];
    if (!std::isfinite(p) || p < 0.0) return BadTheta("theta_f", y, p);
  }
  if (params.degree_sequence.empty()) {
    return util::Status::InvalidArgument("params: empty degree sequence");
  }
  // No simple graph over n nodes has a degree above n - 1 or more than
  // C(n, 3) triangles, and the generators would chase either until their
  // budgets run out (the DP fit clamps to the same bounds). C(n, 3) is
  // taken in 128 bits: the 64-bit product overflows from n ~ 2.6M on.
  const uint64_t n = params.degree_sequence.size();
  const uint32_t max_degree = *std::max_element(params.degree_sequence.begin(),
                                                params.degree_sequence.end());
  const unsigned __int128 max_triangles =
      n < 3 ? 0 : static_cast<unsigned __int128>(n) * (n - 1) * (n - 2) / 6;
  if (max_degree > n - 1 || params.target_triangles > max_triangles) {
    return util::Status::InvalidArgument(
        "params: degree " + std::to_string(max_degree) + " or " +
        std::to_string(params.target_triangles) +
        " triangles infeasible over n = " + std::to_string(n) + " nodes");
  }
  return util::Status::OK();
}

util::Status WriteAgmParams(const AgmParams& params,
                            const std::string& path) {
  if (auto st = ValidateAgmParams(params); !st.ok()) return st;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return util::Status::IoError("cannot open for writing: " + path);
  }
  out.precision(17);
  out << kMagic << " v" << kVersion << "\n";
  out << "w " << params.w << "\n";
  out << "theta_x " << params.theta_x.size();
  for (double p : params.theta_x) out << " " << p;
  out << "\n";
  out << "theta_f " << params.theta_f.size();
  for (double p : params.theta_f) out << " " << p;
  out << "\n";
  out << "degrees " << params.degree_sequence.size();
  for (uint32_t d : params.degree_sequence) out << " " << d;
  out << "\n";
  out << "triangles " << params.target_triangles << "\n";
  out.flush();
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

util::Result<AgmParams> ReadAgmParams(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return util::Status::IoError("cannot open for reading: " + path);
  }
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic || version != "v1") {
    return util::Status::IoError("bad params header in " + path);
  }
  AgmParams params;
  std::string tag;
  uint64_t count = 0;

  if (!(in >> tag >> params.w) || tag != "w" || params.w < 0 ||
      params.w > 16) {
    return util::Status::IoError("bad w field in " + path);
  }

  // Counts are bounded by what *this* w's parameter set can hold (w was
  // just parsed, so the exact dimensions are known), and the vectors grow
  // only as values actually arrive — a corrupted length cannot drive a
  // huge allocation. Values are validated below before the params escape
  // this function.
  constexpr uint64_t kMaxDegreeCount = uint64_t{1} << 31;

  if (!(in >> tag) || tag != "theta_x" ||
      !ReadCount(in, graph::NumNodeConfigs(params.w), &count) ||
      !ReadDoubles(in, count, &params.theta_x)) {
    return util::Status::IoError("bad or truncated theta_x in " + path);
  }

  if (!(in >> tag) || tag != "theta_f" ||
      !ReadCount(in, graph::NumEdgeConfigs(params.w), &count) ||
      !ReadDoubles(in, count, &params.theta_f)) {
    return util::Status::IoError("bad or truncated theta_f in " + path);
  }

  if (!(in >> tag) || tag != "degrees" ||
      !ReadCount(in, kMaxDegreeCount, &count)) {
    return util::Status::IoError("bad degrees field in " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t degree = 0;
    if (!ReadCount(in, 0xffffffffu, &degree)) {
      return util::Status::IoError("bad or truncated degrees in " + path);
    }
    params.degree_sequence.push_back(static_cast<uint32_t>(degree));
  }

  if (!(in >> tag) || tag != "triangles" ||
      !ReadCount(in, ~uint64_t{0} >> 1, &params.target_triangles)) {
    return util::Status::IoError("bad triangles field in " + path);
  }

  if (auto st = ValidateAgmParams(params); !st.ok()) return st;
  return params;
}

}  // namespace agmdp::agm
