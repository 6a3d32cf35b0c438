/// The big safety net: every circuit of the benchmark registry through the
/// HYDE flow, formally verified (BDD comparison where tractable), and the
/// whole suite's written networks pinned byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baseline/flows.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/verify.hpp"

namespace hyde {
namespace {

class SuiteSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteSweep, HydeFlowVerifies) {
  const auto input = mcnc::make_circuit(GetParam());
  const auto result =
      baseline::run_system(input, baseline::System::kHyde, 5, /*verify=*/0);
  EXPECT_TRUE(result.network.is_k_feasible(5));
  net::EquivalenceOptions options;
  options.random_vectors = 256;
  const auto eq = net::check_equivalence(input, result.network, options);
  EXPECT_TRUE(eq.equivalent) << GetParam() << " failing output "
                             << eq.failing_output;
  EXPECT_GT(result.luts, 0);
  EXPECT_GT(result.clbs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, SuiteSweep,
                         ::testing::ValuesIn(mcnc::all_circuits()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SuitePin, HydeOutputsByteIdentical) {
  // HYDE (k = 5, no NPN cache) over the whole registry: the LUT, CLB and
  // depth totals and an FNV-1a digest of every written BLIF, in registry
  // order. A refactor that must not change results has to keep all four;
  // a deliberate change of results updates them here.
  int luts = 0;
  int clbs = 0;
  int depth = 0;
  std::uint64_t digest = 1469598103934665603ULL;
  for (const std::string& name : mcnc::all_circuits()) {
    const auto result = baseline::run_system(
        mcnc::make_circuit(name), baseline::System::kHyde, 5,
        /*verify_vectors=*/0);
    luts += result.luts;
    clbs += result.clbs;
    depth += result.depth;
    for (const char c : net::write_blif_string(result.network) + '\0') {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(mcnc::all_circuits().size(), 25U);
  EXPECT_EQ(luts, 1821);
  EXPECT_EQ(clbs, 1367);
  EXPECT_EQ(depth, 267);
  EXPECT_EQ(digest, 0xf10333edf18dbf88ULL);
}

}  // namespace
}  // namespace hyde
