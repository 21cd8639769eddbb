// Regression tests for stored AGM parameters: agm::ValidateAgmParams and
// the release-artifact reader/writer that persists them. NaN, negative and
// wrapped-negative values, truncated files, mismatched dimensions and
// overflowing counts must come back as util::Status errors — never as
// garbage AgmParams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "src/agm/agm_sampler.h"
#include "src/pipeline/release_artifact.h"

namespace agmdp::agm {
namespace {

AgmParams ValidParams() {
  AgmParams params;
  params.w = 2;
  params.theta_x = {0.4, 0.3, 0.2, 0.1};
  params.theta_f.assign(10, 0.1);
  params.degree_sequence = {1, 2, 2, 3, 4};
  params.target_triangles = 9;
  return params;
}

std::string WriteFile(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

pipeline::ReleaseArtifact ArtifactOf(const AgmParams& params) {
  pipeline::PipelineConfig config;
  config.model = "fcl";
  return pipeline::MakeReleaseArtifact(params, config);
}

// The artifact document of ValidParams(), with the first value after
// `"key": [` (or `"key": `) replaced by `value` — the serializer writes
// whatever the struct holds, so this reaches values no struct can carry.
std::string JsonWithValue(const std::string& key, const std::string& value) {
  std::string json = pipeline::ReleaseArtifactToJson(ArtifactOf(ValidParams()));
  size_t begin = json.find("\"" + key + "\"");
  EXPECT_NE(begin, std::string::npos) << key;
  begin = json.find_first_of("-0123456789\"", json.find(':', begin) + 1);
  if (json[begin] == '"') {
    json.replace(begin, json.find('"', begin + 1) + 1 - begin, value);
  } else {
    json.replace(begin, json.find_first_of(",\n]", begin) - begin, value);
  }
  return json;
}

// Writes `json` to a file and reads it back through ReadReleaseArtifact.
bool ReadsBack(const std::string& name, const std::string& json) {
  const std::string path = WriteFile(name, json);
  const bool ok = pipeline::ReadReleaseArtifact(path).ok();
  std::remove(path.c_str());
  return ok;
}

TEST(ParamsValidationTest, AcceptsValidParams) {
  EXPECT_TRUE(ValidateAgmParams(ValidParams()).ok());
}

TEST(ParamsValidationTest, RejectsNanNegativeAndMismatchedParams) {
  AgmParams params = ValidParams();
  params.theta_x[1] = std::nan("");
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.theta_f[3] = -0.5;
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.theta_x[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.w = 21;
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  // Regression: at w = 17 the true edge-config count (8,590,000,128)
  // overflows NumEdgeConfigs's uint32 range and truncates to 65,536. A
  // crafted parameter set sized to the *truncated* dimensions used to pass
  // validation and drive out-of-bounds theta_f reads in the sampler; the
  // w <= 16 cap must reject it outright.
  params = ValidParams();
  params.w = 17;
  params.theta_x.assign(131072, 1.0 / 131072);  // NumNodeConfigs(17)
  params.theta_f.assign(65536, 1.0 / 65536);    // truncated NumEdgeConfigs
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.degree_sequence.clear();
  EXPECT_FALSE(ValidateAgmParams(params).ok());
}

// No simple graph over n nodes has a degree above n - 1 or more than
// C(n, 3) triangles; both bounds are inclusive.
TEST(ParamsValidationTest, RejectsInfeasibleDegreesAndTriangles) {
  AgmParams params = ValidParams();  // n = 5: degree <= 4, C(5, 3) = 10
  params.degree_sequence[4] = 5;
  EXPECT_EQ(ValidateAgmParams(params).code(),
            util::StatusCode::kInvalidArgument);

  params = ValidParams();
  params.target_triangles = 10;
  EXPECT_TRUE(ValidateAgmParams(params).ok());
  params.target_triangles = 11;
  EXPECT_EQ(ValidateAgmParams(params).code(),
            util::StatusCode::kInvalidArgument);

  // n = 2^22: C(n, 3) is exact although n^3 overflows 64 bits.
  params = ValidParams();
  params.degree_sequence.assign(uint64_t{1} << 22, 1);
  params.target_triangles = 12297820586381410304ULL;
  EXPECT_TRUE(ValidateAgmParams(params).ok());
  params.target_triangles += 1;
  EXPECT_FALSE(ValidateAgmParams(params).ok());
}

TEST(ParamsIoHardeningTest, WriteRejectsGarbageParams) {
  AgmParams params = ValidParams();
  params.theta_x[0] = std::nan("");
  const std::string path = testing::TempDir() + "/params_nan_write.json";
  auto status = pipeline::WriteReleaseArtifact(ArtifactOf(params), path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(ParamsIoHardeningTest, ReadRejectsNanTheta) {
  // NaN serializes as null; an overflowing literal parses to infinity.
  AgmParams params = ValidParams();
  params.theta_x[1] = std::nan("");
  EXPECT_FALSE(ReadsBack("params_nan.json", pipeline::ReleaseArtifactToJson(
                                                ArtifactOf(params))));
  EXPECT_FALSE(ReadsBack("params_inf.json", JsonWithValue("theta_x", "1e999")));
}

TEST(ParamsIoHardeningTest, ReadRejectsNegativeTheta) {
  ASSERT_TRUE(ReadsBack("params_ctl.json", JsonWithValue("theta_x", "0.4")));
  EXPECT_FALSE(ReadsBack("params_neg.json", JsonWithValue("theta_x", "-0.5")));
  EXPECT_FALSE(ReadsBack("params_negf.json", JsonWithValue("theta_f", "-0.5")));
}

TEST(ParamsIoHardeningTest, ReadRejectsNegativeDegreesInsteadOfWrapping) {
  // "-3" must be rejected, not stored as a four-billion degree; so must
  // fractional and beyond-uint32 degrees.
  ASSERT_TRUE(ReadsBack("params_ctl.json",
                        JsonWithValue("degree_sequence", "2")));
  for (const char* degree : {"-3", "1.5", "4294967296"}) {
    EXPECT_FALSE(ReadsBack("params_negdeg.json",
                           JsonWithValue("degree_sequence", degree)))
        << degree;
  }
}

TEST(ParamsIoHardeningTest, ReadRejectsTruncatedFiles) {
  const std::string json =
      pipeline::ReleaseArtifactToJson(ArtifactOf(ValidParams()));
  ASSERT_TRUE(ReadsBack("params_full.json", json));
  for (size_t cut : {size_t{0}, json.size() / 4, json.size() / 2,
                     json.find("\"degree_sequence\""), json.size() - 2}) {
    EXPECT_FALSE(ReadsBack("params_trunc.json", json.substr(0, cut))) << cut;
  }
  EXPECT_FALSE(pipeline::ReadReleaseArtifact("/nonexistent/params").ok());
}

TEST(ParamsIoHardeningTest, ReadRejectsMismatchedDimensionsAndOverflowingCounts) {
  // Theta vectors too short or too long for w, and w beyond the cap.
  AgmParams params = ValidParams();
  params.theta_f.resize(3);
  EXPECT_FALSE(ReadsBack("params_dim.json", pipeline::ReleaseArtifactToJson(
                                                ArtifactOf(params))));
  params = ValidParams();
  params.theta_x.push_back(0.0);
  EXPECT_FALSE(ReadsBack("params_dimx.json", pipeline::ReleaseArtifactToJson(
                                                 ArtifactOf(params))));
  ASSERT_TRUE(ReadsBack("params_ctl.json", JsonWithValue("w", "2")));
  EXPECT_FALSE(ReadsBack("params_w.json", JsonWithValue("w", "99999999999")));
  // A triangle target beyond uint64 must not wrap.
  ASSERT_TRUE(ReadsBack("params_ctl.json",
                        JsonWithValue("target_triangles", "\"9\"")));
  EXPECT_FALSE(ReadsBack("params_tri.json",
                         JsonWithValue("target_triangles",
                                       "\"99999999999999999999999\"")));
}

TEST(ParamsIoHardeningTest, ValidRoundTripStillWorks) {
  const AgmParams params = ValidParams();
  const std::string path = testing::TempDir() + "/params_ok.json";
  ASSERT_TRUE(pipeline::WriteReleaseArtifact(ArtifactOf(params), path).ok());
  auto back = pipeline::ReadReleaseArtifact(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().params.w, params.w);
  EXPECT_EQ(back.value().params.theta_x, params.theta_x);
  EXPECT_EQ(back.value().params.theta_f, params.theta_f);
  EXPECT_EQ(back.value().params.degree_sequence, params.degree_sequence);
  EXPECT_EQ(back.value().params.target_triangles, params.target_triangles);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace agmdp::agm
