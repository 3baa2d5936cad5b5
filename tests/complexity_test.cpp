#include "exact/complexity.hpp"

#include <gtest/gtest.h>

#include <random>

#include "exact/bounds.hpp"
#include "exact/exact_synthesis.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::exact {
namespace {

const Database& db() {
  static const Database instance =
      Database::load_or_build(default_database_path());
  return instance;
}

TEST(ComplexityTest, SizeDistributionMatchesPaperTable1) {
  const auto rows = size_distribution(db());
  ASSERT_EQ(rows.size(), 8u);
  // Classes column of Table I.
  const uint32_t classes[] = {2, 2, 5, 18, 42, 117, 35, 1};
  // Functions column of Table I.
  const uint64_t functions[] = {10, 80, 640, 3300, 10352, 40064, 11058, 32};
  uint64_t total_functions = 0;
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rows[i].classes, classes[i]) << "size " << i;
    EXPECT_EQ(rows[i].functions, functions[i]) << "size " << i;
    total_functions += rows[i].functions;
  }
  EXPECT_EQ(total_functions, 65536u);
}

TEST(ComplexityTest, FormulaLengthsThreeVariables) {
  const auto lengths = compute_formula_lengths(3);
  ASSERT_EQ(lengths.size(), 256u);
  // Everything is realizable.
  for (const uint8_t l : lengths) EXPECT_NE(l, 0xff);
  // Trivial functions have length 0.
  EXPECT_EQ(lengths[0x00], 0);
  EXPECT_EQ(lengths[0xff], 0);
  EXPECT_EQ(lengths[0xaa], 0);  // x0
  EXPECT_EQ(lengths[0x55], 0);  // !x0
  // Single majority / AND / OR have length 1.
  EXPECT_EQ(lengths[0xe8], 1);  // <x0 x1 x2>
  EXPECT_EQ(lengths[0x88], 1);  // x0 & x1
  EXPECT_EQ(lengths[0xee], 1);  // x0 | x1
  // XOR2 has length 3.
  EXPECT_EQ(lengths[0x66], 3);
}

TEST(ComplexityTest, FormulaLengthAtLeastCircuitSize) {
  // L(f) >= C(f): a formula is a circuit without sharing.
  const auto lengths = compute_formula_lengths(4);
  for (const auto& entry : db().entries()) {
    EXPECT_GE(lengths[entry.representative.bits()], entry.chain.size())
        << "0x" << entry.representative.to_hex();
  }
}

TEST(ComplexityTest, FormulaLengthDistributionMatchesPaperTable2) {
  const auto lengths = compute_formula_lengths(4);
  const auto rows = length_distribution(lengths);
  // L(f) columns of Table II: lengths 0..9.
  const uint32_t classes[] = {2, 2, 5, 18, 37, 84, 63, 7, 2, 2};
  const uint64_t functions[] = {10, 80, 640, 3300, 9312, 28680, 22568, 832, 80, 34};
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[i].classes, classes[i]) << "length " << i;
    EXPECT_EQ(rows[i].functions, functions[i]) << "length " << i;
  }
}

TEST(BoundsTest, Theorem2Values) {
  EXPECT_EQ(theorem2_bound(4), 7u);
  EXPECT_EQ(theorem2_bound(5), 17u);
  EXPECT_EQ(theorem2_bound(6), 37u);
  EXPECT_EQ(theorem2_bound(7), 77u);
}

TEST(BoundsTest, ShannonConstructionIsCorrect) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 20; ++i) {
    const tt::TruthTable f(5, (static_cast<uint64_t>(rng()) << 32) | rng());
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(build_shannon(db(), f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f);
    // The chain is the network's live cone, gate for gate.
    const auto chain = shannon_chain(db(), f);
    EXPECT_EQ(chain.simulate(), f);
    EXPECT_EQ(chain.size(), m.count_live_gates());
    EXPECT_EQ(chain.depth(), m.depth());
  }
}

TEST(BoundsTest, ShannonSizesRespectTheorem2) {
  std::mt19937_64 rng(4);
  for (int i = 0; i < 20; ++i) {
    const tt::TruthTable f5(5, (static_cast<uint64_t>(rng()) << 32) | rng());
    EXPECT_LE(shannon_size(db(), f5), theorem2_bound(5));
  }
  for (int i = 0; i < 10; ++i) {
    const tt::TruthTable f6(6, (static_cast<uint64_t>(rng()) << 32) | rng());
    EXPECT_LE(shannon_size(db(), f6), theorem2_bound(6));
  }
}

TEST(BoundsTest, FourVariableBaseCase) {
  // For 4-variable functions the construction degenerates to the database
  // entry, whose worst case is exactly 7 gates.
  uint32_t worst = 0;
  std::mt19937 rng(5);
  for (int i = 0; i < 200; ++i) {
    const tt::TruthTable f(4, rng());
    worst = std::max(worst, shannon_size(db(), f));
  }
  EXPECT_LE(worst, 7u);
}

TEST(BoundsTest, SizeBoundIsAtMostTheOptimum) {
  // Minimum sizes from exact synthesis; fee8e880 is maj5, 80000000 the
  // 5-input AND.
  const struct {
    const char* function;
    uint32_t optimum;
  } known[] = {{"fee8e880", 4}, {"0000ffe0", 4}, {"80000000", 4},
               {"96696996", 6}, {"1ee1e11e", 7}, {"6996c33c", 7}};
  for (const auto& k : known) {
    const auto f = tt::TruthTable::from_hex(5, k.function);
    EXPECT_LE(size_lower_bound(db(), f), k.optimum) << k.function;
  }
  // Random small networks: the bound never exceeds a network's live size.
  for (uint32_t seed = 0; seed < 300; ++seed) {
    const auto m = testutil::random_mig(5, 1 + seed % 7, 1, seed);
    const auto f = mig::output_truth_tables(m)[0];
    EXPECT_LE(size_lower_bound(db(), f), m.count_live_gates()) << f.to_hex();
  }
}

TEST(BoundsTest, SizeBoundOfSmallSupportIsItsDatabaseSize) {
  for (uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const tt::TruthTable f(4, bits);
    const uint32_t size = db().lookup(f).entry->chain.size();
    ASSERT_EQ(size_lower_bound(db(), f.extend(5)), size) << f.to_hex();
  }
}

TEST(BoundsTest, StructuralBoundNeverExceedsTheDatabaseOnFourVariables) {
  // Over four variables every cofactor and identification has at most three,
  // so the bound never reads f's own entry: each full-support function checks
  // the restriction and first-gate elimination arguments against its exact
  // minimum.
  uint32_t functions = 0;
  uint32_t exact = 0;
  for (uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const tt::TruthTable f(4, bits);
    if (f.support_size() != 4) continue;
    const uint32_t size = db().lookup(f).entry->chain.size();
    const uint32_t bound = size_lower_bound(db(), f);
    ASSERT_LE(bound, size) << f.to_hex();
    ++functions;
    if (bound == size) ++exact;
  }
  EXPECT_EQ(functions, 64594u);
  // Exact on 59% of them; cofactors alone reach 13%, with identifications 19%.
  EXPECT_EQ(exact, 38272u);
}

TEST(BoundsTest, SizeBoundOfFiveInputClasses) {
  // Optima from exact synthesis.  Every cofactor and identification a
  // first gate of 0007f0ff could turn into a wire costs at least four gates,
  // so first-gate elimination proves the minimum that cofactors alone put at
  // 4; 0000ffe0 bounds at its minimum too.  30115150's bound stays one below
  // its minimum: its k = 4 decision problem is still solved.
  const struct {
    const char* function;
    uint32_t bound, optimum;
  } known[] = {{"0007f0ff", 5, 5}, {"000001bf", 4, 4}, {"0000ffe0", 4, 4}, {"30115150", 4, 5}};
  for (const auto& k : known) {
    const auto f = tt::TruthTable::from_hex(5, k.function);
    EXPECT_EQ(size_lower_bound(db(), f), k.bound) << k.function;
    const auto result = synthesize_minimum_mig(f, {});
    ASSERT_EQ(result.status, SynthesisStatus::success) << k.function;
    EXPECT_EQ(result.chain.size(), k.optimum) << k.function;
  }
}

TEST(BoundsTest, ShannonChainMeetingTheBoundIsAMinimum) {
  // Where the Theorem-2 chain has exactly size_lower_bound gates, unbounded
  // exact synthesis (from one gate up) finds no smaller chain.
  for (const char* hex : {"000007ff", "0000ffe0", "80000000", "000001bf"}) {
    const auto f = tt::TruthTable::from_hex(5, hex);
    const uint32_t bound = size_lower_bound(db(), f);
    ASSERT_EQ(shannon_size(db(), f), bound) << hex;
    const auto result = synthesize_minimum_mig(f, {});
    ASSERT_EQ(result.status, SynthesisStatus::success) << hex;
    EXPECT_EQ(result.chain.size(), bound) << hex;
  }
}

}  // namespace
}  // namespace mighty::exact
