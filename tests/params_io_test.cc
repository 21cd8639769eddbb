// Regression tests for the hardened params reader/writer: NaN, negative
// and wrapped-negative values, truncated files, and absurd length fields
// must come back as util::Status errors — never as garbage AgmParams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "src/agm/params_io.h"

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
  const std::string path = testing::TempDir() + "/params_nan_write.txt";
  auto status = WriteAgmParams(params, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(ParamsIoHardeningTest, ReadRejectsNanTheta) {
  // istream extraction happily parses "nan" into a double; the validator
  // must catch it.
  const std::string path = WriteFile(
      "params_nan.txt",
      "agmdp-params v1\nw 1\ntheta_x 2 nan 0.5\ntheta_f 3 0.3 0.3 0.4\n"
      "degrees 2 1 1\ntriangles 0\n");
  auto result = ReadAgmParams(path);
  ASSERT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(ParamsIoHardeningTest, ReadRejectsNegativeTheta) {
  const std::string path = WriteFile(
      "params_neg.txt",
      "agmdp-params v1\nw 1\ntheta_x 2 -0.5 1.5\ntheta_f 3 0.3 0.3 0.4\n"
      "degrees 2 1 1\ntriangles 0\n");
  EXPECT_FALSE(ReadAgmParams(path).ok());
  std::remove(path.c_str());
}

TEST(ParamsIoHardeningTest, ReadRejectsNegativeDegreesInsteadOfWrapping) {
  // "-3" read into uint32_t wraps to 4294967293 on most stdlibs; the
  // reader must reject it, not store a four-billion degree.
  const std::string path = WriteFile(
      "params_negdeg.txt",
      "agmdp-params v1\nw 1\ntheta_x 2 0.5 0.5\ntheta_f 3 0.3 0.3 0.4\n"
      "degrees 2 -3 1\ntriangles 0\n");
  EXPECT_FALSE(ReadAgmParams(path).ok());
  std::remove(path.c_str());
}

TEST(ParamsIoHardeningTest, ReadRejectsTruncatedFiles) {
  const char* bodies[] = {
      // Cut mid-theta.
      "agmdp-params v1\nw 1\ntheta_x 2 0.5\n",
      // Cut before degrees.
      "agmdp-params v1\nw 1\ntheta_x 2 0.5 0.5\ntheta_f 3 0.3 0.3 0.4\n",
      // Cut mid-degrees.
      "agmdp-params v1\nw 1\ntheta_x 2 0.5 0.5\ntheta_f 3 0.3 0.3 0.4\n"
      "degrees 5 1 2\n",
      // Missing the triangles value.
      "agmdp-params v1\nw 1\ntheta_x 2 0.5 0.5\ntheta_f 3 0.3 0.3 0.4\n"
      "degrees 2 1 1\ntriangles\n",
      // Empty file.
      "",
  };
  int index = 0;
  for (const char* body : bodies) {
    const std::string path =
        WriteFile("params_trunc_" + std::to_string(index++) + ".txt", body);
    EXPECT_FALSE(ReadAgmParams(path).ok()) << body;
    std::remove(path.c_str());
  }
}

TEST(ParamsIoHardeningTest, ReadRejectsAbsurdLengthFieldsWithoutAllocating) {
  // A corrupted count must fail fast instead of resize()-ing to petabytes.
  const std::string path = WriteFile(
      "params_hugecount.txt",
      "agmdp-params v1\nw 1\ntheta_x 99999999999999 0.5 0.5\n");
  EXPECT_FALSE(ReadAgmParams(path).ok());
  std::remove(path.c_str());

  const std::string negative_count = WriteFile(
      "params_negcount.txt",
      "agmdp-params v1\nw 1\ntheta_x -2 0.5 0.5\n");
  EXPECT_FALSE(ReadAgmParams(negative_count).ok());
  std::remove(negative_count.c_str());
}

TEST(ParamsIoHardeningTest, ValidRoundTripStillWorks) {
  const AgmParams params = ValidParams();
  const std::string path = testing::TempDir() + "/params_ok.txt";
  ASSERT_TRUE(WriteAgmParams(params, path).ok());
  auto back = ReadAgmParams(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().theta_x, params.theta_x);
  EXPECT_EQ(back.value().theta_f, params.theta_f);
  EXPECT_EQ(back.value().degree_sequence, params.degree_sequence);
  EXPECT_EQ(back.value().target_triangles, params.target_triangles);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace agmdp::agm
