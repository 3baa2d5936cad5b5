#include "opt/rewrite.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>
#include <sstream>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
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

// Exact rewrite output of every variant, including the 5-input extension,
// on depth-optimized generator networks.  Each run uses a fresh oracle, so a
// row depends only on its driver: any change to plan order, candidate order,
// cut order or oracle query order moves a hash or a counter.
TEST(RewritePinTest, OutputsMatchRecordedValues) {
  // size, depth, cuts_evaluated, replacements; the oracle's queries,
  // answered, cache5_hits, synthesized, failures and conflicts; and the
  // FNV-1a hash of the write_blif bytes.
  using Values = std::array<uint64_t, 11>;
  const std::map<std::string, Values> pins = {
      {"adder8 TF", {91, 9, 137, 5, 132, 132, 0, 0, 0, 0, 6033854174896651477ull}},
      {"adder8 T", {91, 10, 125, 5, 120, 120, 0, 0, 0, 0, 15686415705002978597ull}},
      {"adder8 TFD", {94, 8, 155, 2, 153, 153, 0, 0, 0, 0, 14308356237650075127ull}},
      {"adder8 TD", {94, 8, 152, 2, 150, 150, 0, 0, 0, 0, 14308356237650075127ull}},
      {"adder8 B", {92, 8, 651, 3228, 651, 651, 0, 0, 0, 0, 15002197531059232600ull}},
      {"adder8 BF", {91, 9, 167, 210, 167, 167, 0, 0, 0, 0, 12693590724022952228ull}},
      {"adder8 BD", {95, 8, 651, 898, 651, 651, 0, 0, 0, 0, 14070568766545575256ull}},
      {"adder8 BFD", {94, 8, 167, 133, 167, 167, 0, 0, 0, 0, 13151592082685397916ull}},
      {"adder8 T5", {89, 10, 133, 6, 125, 107, 6, 3, 0, 0, 5554637636926980645ull}},
      {"adder8 TF5", {90, 9, 136, 6, 130, 122, 1, 1, 0, 0, 11430494189143716564ull}},
      {"multiplier4 TF", {124, 13, 187, 1, 184, 184, 0, 0, 0, 0, 6511280037447402090ull}},
      {"multiplier4 T", {123, 15, 177, 1, 174, 174, 0, 0, 0, 0, 8596201536367883243ull}},
      {"multiplier4 TFD", {124, 13, 187, 1, 184, 184, 0, 0, 0, 0, 6511280037447402090ull}},
      {"multiplier4 TD", {124, 13, 178, 1, 175, 175, 0, 0, 0, 0, 6511280037447402090ull}},
      {"multiplier4 B", {95, 11, 821, 5766, 821, 821, 0, 0, 0, 0, 1321038317738113077ull}},
      {"multiplier4 BF", {124, 15, 199, 235, 199, 199, 0, 0, 0, 0, 7292288956288513874ull}},
      {"multiplier4 BD", {95, 11, 821, 4504, 821, 821, 0, 0, 0, 0, 1321038317738113077ull}},
      {"multiplier4 BFD", {124, 13, 199, 178, 199, 199, 0, 0, 0, 0, 7583627907058274943ull}},
      {"multiplier4 T5", {123, 15, 202, 1, 194, 174, 0, 0, 0, 0, 8596201536367883243ull}},
      {"multiplier4 TF5", {119, 13, 213, 3, 203, 176, 2, 2, 0, 0, 11513190277039508679ull}},
      {"sine4 TF", {191, 24, 310, 15, 288, 288, 0, 0, 0, 0, 14213371379983887034ull}},
      {"sine4 T", {177, 26, 294, 15, 267, 267, 0, 0, 0, 0, 5935254922793787889ull}},
      {"sine4 TFD", {213, 21, 358, 3, 352, 352, 0, 0, 0, 0, 15583960120735264879ull}},
      {"sine4 TD", {200, 21, 342, 3, 333, 333, 0, 0, 0, 0, 3541192298935463750ull}},
      {"sine4 B", {12, 3, 1760, 15160, 1760, 1760, 0, 0, 0, 0, 12938151633766094514ull}},
      {"sine4 BF", {191, 28, 374, 480, 374, 374, 0, 0, 0, 0, 16494202232420059763ull}},
      {"sine4 BD", {12, 3, 1760, 14094, 1760, 1760, 0, 0, 0, 0, 12938151633766094514ull}},
      {"sine4 BFD", {212, 21, 374, 337, 374, 374, 0, 0, 0, 0, 7119282933898986482ull}},
      {"sine4 T5", {168, 25, 304, 15, 270, 242, 9, 6, 0, 26048, 1549561702387767831ull}},
      {"sine4 TF5", {189, 24, 344, 16, 313, 266, 10, 4, 0, 0, 10691772396755152050ull}},
  };
  struct Network {
    const char* name;
    mig::Mig (*make)(uint32_t);
    uint32_t width;
  };
  for (const auto& net : {Network{"adder", gen::make_adder_n, 8},
                          Network{"multiplier", gen::make_multiplier_n, 4},
                          Network{"sine", gen::make_sine_n, 4}}) {
    const auto baseline = algebra::depth_optimize(net.make(net.width));
    for (const std::string variant :
         {"TF", "T", "TFD", "TD", "B", "BF", "BD", "BFD", "T5", "TF5"}) {
      const bool five = variant.back() == '5';
      auto params = variant_params(five ? variant.substr(0, variant.size() - 1) : variant);
      params.five_input_cuts = five;
      ReplacementOracle oracle(db(), {.enable_five_input = five});
      RewriteStats stats;
      const auto optimized = functional_hashing(baseline, oracle, params, &stats);
      std::ostringstream blif;
      io::write_blif(blif, optimized);
      testutil::Fnv1a h;
      h.add(blif.str());
      const Values got{stats.size_after,         stats.depth_after,
                       stats.cuts_evaluated,     stats.replacements,
                       stats.oracle_queries,     stats.oracle_answered,
                       stats.oracle_cache5_hits, stats.oracle_synthesized,
                       stats.oracle_failures,    stats.oracle_conflicts,
                       h.value};
      const std::string key = net.name + std::to_string(net.width) + " " + variant;
      std::ostringstream row;
      row << "{\"" << key << "\", {";
      for (size_t i = 0; i < got.size(); ++i) row << (i ? ", " : "") << got[i];
      row << "ull}},";
      const auto pin = pins.find(key);
      if (pin == pins.end()) {
        ADD_FAILURE() << "no recorded row; actual: " << row.str();
      } else {
        EXPECT_EQ(got, pin->second) << "actual: " << row.str();
      }
    }
  }
}

}  // namespace
}  // namespace mighty::opt
