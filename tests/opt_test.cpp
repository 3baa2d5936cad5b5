#include "opt/rewrite.hpp"

#include <gtest/gtest.h>

#include <random>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "opt/oracle.hpp"
#include "test_util.hpp"

namespace mighty::opt {
namespace {

const exact::Database& db() {
  static const exact::Database instance = [] {
    auto loaded = exact::Database::load(exact::default_database_path());
    if (!loaded) {
      // First run on a fresh checkout: build and cache (a few minutes).
      return exact::Database::load_or_build(exact::default_database_path());
    }
    return std::move(*loaded);
  }();
  return instance;
}

TEST(DatabaseTest, HistogramMatchesPaperTable1) {
  const auto histogram = db().size_histogram();
  const std::vector<uint32_t> expected{2, 2, 5, 18, 42, 117, 35, 1};
  EXPECT_EQ(histogram, expected);
}

TEST(DatabaseTest, EveryEntrySimulatesToItsRepresentative) {
  for (const auto& entry : db().entries()) {
    EXPECT_EQ(entry.chain.simulate(), entry.representative);
  }
}

TEST(DatabaseTest, LookupFindsEveryFunction) {
  std::mt19937 rng(1);
  for (int i = 0; i < 300; ++i) {
    const tt::TruthTable f(4, rng());
    const auto result = db().lookup(f);
    EXPECT_EQ(npn::apply(f, result.transform), result.entry->representative);
  }
}

TEST(DatabaseTest, InstantiateReconstructsFunction) {
  std::mt19937 rng(2);
  for (int i = 0; i < 300; ++i) {
    const tt::TruthTable f(4, rng());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
}

TEST(DatabaseTest, InstantiateHandlesSmallSupport) {
  std::mt19937 rng(3);
  for (int i = 0; i < 100; ++i) {
    const tt::TruthTable f2(2, rng() & 0xf);
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f2.extend(4), m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f2.extend(4));
  }
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/mighty_db_roundtrip.db";
  db().save(path);
  const auto loaded = exact::Database::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_entries(), db().num_entries());
  EXPECT_EQ(loaded->size_histogram(), db().size_histogram());
}

TEST(RewriteUtilTest, CutConeCountsInternalNodes) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(g1, c, d);
  m.create_po(g2);
  const auto cone =
      cut_cone(m, g2.index(), {a.index(), b.index(), c.index(), d.index()});
  EXPECT_EQ(cone.size(), 2u);
}

TEST(RewriteUtilTest, ConeReplaceabilityDetectsExternalFanout) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, a);
  const auto g3 = m.create_or(g1, b);  // external fanout of g1
  m.create_po(g2);
  m.create_po(g3);
  const auto fanout = m.compute_fanout_counts();
  const auto cone = cut_cone(m, g2.index(), {a.index(), b.index(), c.index()});
  EXPECT_FALSE(cone_is_replaceable(m, cone, g2.index(), fanout));
  const auto cone2 = cut_cone(m, g2.index(), {g1.index(), a.index()});
  EXPECT_TRUE(cone_is_replaceable(m, cone2, g2.index(), fanout));
}

TEST(RewriteUtilTest, ChainInputDepths) {
  // carry = <x1 x2 x3>, sum = <!carry <x1 x2 !x3> x3>: x3 reaches the output
  // directly (depth 1 via mid) and through two levels.
  exact::MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{exact::make_ref_lit(1, false), exact::make_ref_lit(2, false),
                          exact::make_ref_lit(3, false)}});
  chain.steps.push_back({{exact::make_ref_lit(1, false), exact::make_ref_lit(2, false),
                          exact::make_ref_lit(3, true)}});
  chain.steps.push_back({{exact::make_ref_lit(4, true), exact::make_ref_lit(5, false),
                          exact::make_ref_lit(3, false)}});
  chain.output = exact::make_ref_lit(6, false);
  const auto depths = chain_input_depths(chain);
  EXPECT_EQ(depths, (std::vector<int>{2, 2, 2}));
}

TEST(RewriteUtilTest, VariantParamsParse) {
  EXPECT_EQ(variant_params("T").direction, Direction::top_down);
  EXPECT_EQ(variant_params("BF").direction, Direction::bottom_up);
  EXPECT_TRUE(variant_params("BF").ffr_partition);
  EXPECT_TRUE(variant_params("TFD").depth_preserving);
  EXPECT_TRUE(variant_params("TFD").ffr_partition);
  EXPECT_FALSE(variant_params("TD").ffr_partition);
  EXPECT_THROW(variant_params("X"), std::invalid_argument);
  EXPECT_THROW(variant_params("FD"), std::invalid_argument);
  EXPECT_EQ(all_variants().size(), 8u);
}

TEST(RewriteTest, ReducesRedundantParityToOptimum) {
  // 4-input parity built from three 3-gate XORs (9 gates); one 4-cut
  // replacement must reach the database optimum for the whole function.
  ReplacementOracle oracle(db());
  mig::Mig m;
  const auto pis = m.create_pis(4);
  const auto x01 = m.create_xor(pis[0], pis[1]);
  const auto x23 = m.create_xor(pis[2], pis[3]);
  m.create_po(m.create_xor(x01, x23));
  ASSERT_EQ(m.count_live_gates(), 9u);

  const auto parity = mig::output_truth_tables(m)[0];
  const uint32_t optimum = db().lookup(parity).entry->chain.size();

  RewriteStats stats;
  const auto optimized = functional_hashing(m, oracle, variant_params("T"), &stats);
  EXPECT_EQ(optimized.count_live_gates(), optimum);
  EXPECT_EQ(mig::output_truth_tables(optimized)[0], parity);
  EXPECT_GE(stats.replacements, 1u);
  EXPECT_EQ(stats.size_before, 9u);
  EXPECT_EQ(stats.size_after, optimum);
}

class VariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VariantTest, PreservesFunctionOnRandomNetworks) {
  ReplacementOracle oracle(db());
  const auto params = variant_params(GetParam());
  for (uint32_t seed = 0; seed < 6; ++seed) {
    const auto m = testutil::random_mig(6, 60, 5, 42 + seed);
    RewriteStats stats;
    const auto optimized = functional_hashing(m, oracle, params, &stats);
    const auto r = cec::check_equivalence(m, optimized);
    EXPECT_EQ(r.status, cec::CecStatus::equivalent)
        << GetParam() << " seed " << seed;
    if (params.direction == Direction::top_down) {
      EXPECT_LE(stats.size_after, stats.size_before) << GetParam();
    }
  }
}

TEST_P(VariantTest, PreservesFunctionOnArithmetic) {
  ReplacementOracle oracle(db());
  const auto params = variant_params(GetParam());
  const auto m = gen::make_multiplier_n(6);
  RewriteStats stats;
  const auto optimized = functional_hashing(m, oracle, params, &stats);
  const auto r = cec::check_equivalence(m, optimized);
  EXPECT_EQ(r.status, cec::CecStatus::equivalent) << GetParam();
  EXPECT_GT(stats.size_before, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTest,
                         ::testing::Values("T", "TD", "TF", "TFD", "B", "BD", "BF",
                                           "BFD"));

TEST(RewriteTest, TopDownReducesDepthOptimizedMultiplier) {
  // Paper pipeline: the functional-hashing input is a depth-optimized MIG
  // (Sec. V-C: "Most of the best results were obtained using the depth
  // reduction proposed in [3] and [4]").
  ReplacementOracle oracle(db());
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  const auto optimized = functional_hashing(baseline, oracle, variant_params("TF"), &stats);
  EXPECT_LT(stats.size_after, stats.size_before);
}

TEST(RewriteTest, BottomUpReducesDepthOptimizedMultiplier) {
  ReplacementOracle oracle(db());
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  functional_hashing(baseline, oracle, variant_params("B"), &stats);
  EXPECT_LT(stats.size_after, stats.size_before);
}

TEST(RewriteTest, PipelineEquivalenceOnAdder) {
  // End-to-end: generate -> algebraic depth optimization -> functional
  // hashing, then prove equivalence against the original generator output
  // with the SAT miter (adder miters are easy).
  ReplacementOracle oracle(db());
  const auto m = gen::make_adder_n(16);
  const auto baseline = algebra::depth_optimize(m);
  for (const auto& variant : {"TF", "BF"}) {
    const auto optimized = functional_hashing(baseline, oracle, variant_params(variant));
    EXPECT_EQ(cec::check_equivalence(m, optimized).status, cec::CecStatus::equivalent)
        << variant;
  }
}

TEST(RewriteTest, DepthPreservingVariantKeepsDepthOnMultiplier) {
  ReplacementOracle oracle(db());
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  functional_hashing(baseline, oracle, variant_params("TD"), &stats);
  EXPECT_EQ(stats.depth_after, stats.depth_before);
  EXPECT_LE(stats.size_after, stats.size_before);
}

TEST(RewriteTest, DepthPreservingVariantLimitsDepthGrowth) {
  ReplacementOracle oracle(db());
  const auto m = gen::make_adder_n(16);
  RewriteStats t_stats, td_stats;
  functional_hashing(m, oracle, variant_params("T"), &t_stats);
  functional_hashing(m, oracle, variant_params("TD"), &td_stats);
  // The depth-preserving heuristic must never be worse in depth than the
  // unconstrained variant on this structured input.
  EXPECT_LE(td_stats.depth_after, t_stats.depth_after + 1);
}

TEST(RewriteTest, IdempotentOnDatabaseOptimum) {
  // A network that is already a database optimum cannot shrink further.
  ReplacementOracle oracle(db());
  std::mt19937 rng(11);
  for (int i = 0; i < 20; ++i) {
    const tt::TruthTable f(4, rng());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f, m, pis));
    const uint32_t before = m.count_live_gates();
    const auto optimized = functional_hashing(m, oracle, variant_params("T"));
    EXPECT_EQ(optimized.count_live_gates(), before) << "f=0x" << f.to_hex();
  }
}

}  // namespace
}  // namespace mighty::opt
