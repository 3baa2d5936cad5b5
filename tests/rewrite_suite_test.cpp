// Integration sweep: every functional-hashing variant on every (width-reduced)
// arithmetic benchmark, through the full paper pipeline
// (generate -> algebraic depth optimization -> rewrite), with equivalence
// checked by random word simulation plus a budgeted SAT proof.

#include <gtest/gtest.h>

#include "cec/cec.hpp"
#include "exact/database.hpp"
#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "opt/oracle.hpp"
#include "opt/rewrite.hpp"

namespace mighty {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

struct Case {
  const char* name;
  mig::Mig (*make)();
};

mig::Mig small_adder() { return gen::make_adder_n(12); }
mig::Mig small_divisor() { return gen::make_divisor_n(6); }
mig::Mig small_log2() { return gen::make_log2_n(3); }
mig::Mig small_max() { return gen::make_max_n(8); }
mig::Mig small_multiplier() { return gen::make_multiplier_n(6); }
mig::Mig small_sine() { return gen::make_sine_n(6); }
mig::Mig small_sqrt() { return gen::make_sqrt_n(5); }
mig::Mig small_square() { return gen::make_square_n(8); }

const Case kCases[] = {
    {"Adder", small_adder},         {"Divisor", small_divisor},
    {"Log2", small_log2},           {"Max", small_max},
    {"Multiplier", small_multiplier}, {"Sine", small_sine},
    {"Sqrt", small_sqrt},           {"Square", small_square},
};

class SuiteVariantTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(SuiteVariantTest, PipelinePreservesFunction) {
  const auto& benchmark = kCases[std::get<0>(GetParam())];
  const auto& variant = std::get<1>(GetParam());

  const auto original = benchmark.make();
  const auto baseline = algebra::depth_optimize(original);
  opt::ReplacementOracle oracle(db());
  opt::RewriteStats stats;
  const auto optimized =
      opt::functional_hashing(baseline, oracle, opt::variant_params(variant), &stats);

  // Strong random filter first (cheap), then a budgeted SAT proof; the
  // budget is generous for these widths except multiplier-like miters, where
  // unknown is acceptable as long as simulation found no difference.
  ASSERT_TRUE(cec::random_simulation_equal(original, optimized, 64, 2025))
      << benchmark.name << " " << variant;
  cec::CecOptions options;
  options.conflict_limit = 50000;
  const auto r = cec::check_equivalence(original, optimized, options);
  EXPECT_NE(r.status, cec::CecStatus::not_equivalent)
      << benchmark.name << " " << variant;

  // Size must not explode; the global bottom-up variant gets extra slack
  // because its tree-style candidate accounting ignores sharing and can
  // duplicate logic across fanout boundaries -- the very effect that
  // motivates the paper's fanout-free-region partitioning (Sec. IV-C), and
  // the reason Table III evaluates BF rather than B.
  const uint32_t slack =
      variant == "B" ? stats.size_before / 4 : stats.size_before / 10;
  EXPECT_LE(stats.size_after, stats.size_before + slack)
      << benchmark.name << " " << variant;
  if (variant.find('D') != std::string::npos) {
    EXPECT_LE(stats.depth_after, stats.depth_before)
        << benchmark.name << " " << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteVariantTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values("TF", "T", "TFD", "TD", "BF", "B")),
    [](const ::testing::TestParamInfo<SuiteVariantTest::ParamType>& info) {
      return std::string(kCases[std::get<0>(info.param)].name) + "_" +
             std::get<1>(info.param);
    });

TEST(SuitePipelineTest, DepthOptimizationNeverIncreasesDepth) {
  for (const auto& benchmark : kCases) {
    const auto original = benchmark.make();
    const auto optimized = algebra::depth_optimize(original);
    EXPECT_LE(optimized.depth(), original.depth()) << benchmark.name;
  }
}

TEST(SuitePipelineTest, RewritingAfterRewritingConverges) {
  // A second pass must not undo the first one's gains.
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  opt::ReplacementOracle oracle(db());
  opt::RewriteStats first, second;
  const auto once =
      opt::functional_hashing(baseline, oracle, opt::variant_params("TF"), &first);
  const auto twice =
      opt::functional_hashing(once, oracle, opt::variant_params("TF"), &second);
  EXPECT_LE(second.size_after, first.size_after);
  EXPECT_TRUE(cec::random_simulation_equal(baseline, twice, 32, 5));
}

}  // namespace
}  // namespace mighty
