// Soundness of the exact-synthesis symmetry breaking: none of the search-
// space reductions (operand ordering, all-gates-used, step ordering, polarity
// normalization, support usage) may change the computed minimum -- they must
// only prune redundant parts of the space.  Each option combination is
// checked against the all-options-off reference on a set of 3-variable
// functions (where the unpruned search is still fast).

#include <gtest/gtest.h>

#include "exact/exact_synthesis.hpp"
#include "npn/npn.hpp"

namespace mighty::exact {
namespace {

struct OptionCombo {
  bool operand_ordering;
  bool all_gates_used;
  bool step_ordering;
  bool polarity_normalization;
  bool support_usage;
};

class EncodingOptionsTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodingOptionsTest, OptionsPreserveMinimum) {
  const int mask = GetParam();
  const OptionCombo combo{(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0,
                          (mask & 8) != 0, (mask & 16) != 0};

  // Reference: completely unpruned encoding; computed once and shared across
  // all option combinations.
  static const std::vector<uint32_t> reference_sizes = [] {
    SynthesisOptions reference;
    reference.encode.operand_ordering = false;
    reference.encode.all_gates_used = false;
    reference.encode.step_ordering = false;
    reference.encode.polarity_normalization = false;
    reference.encode.support_usage = false;
    std::vector<uint32_t> sizes;
    for (const auto& f : npn::enumerate_classes(3)) {
      const auto r = synthesize_minimum_mig(f, reference);
      EXPECT_EQ(r.status, SynthesisStatus::success);
      sizes.push_back(r.chain.size());
    }
    return sizes;
  }();

  SynthesisOptions tested;
  tested.encode.operand_ordering = combo.operand_ordering;
  tested.encode.all_gates_used = combo.all_gates_used;
  tested.encode.step_ordering = combo.step_ordering;
  tested.encode.polarity_normalization = combo.polarity_normalization;
  tested.encode.support_usage = combo.support_usage;

  const auto classes = npn::enumerate_classes(3);
  for (size_t i = 0; i < classes.size(); ++i) {
    const auto& f = classes[i];
    const auto r_test = synthesize_minimum_mig(f, tested);
    ASSERT_EQ(r_test.status, SynthesisStatus::success);
    EXPECT_EQ(r_test.chain.size(), reference_sizes[i])
        << "f=0x" << f.to_hex() << " combo mask " << mask;
    EXPECT_EQ(r_test.chain.simulate(), f);
  }
}

// Each pruning alone, none, all together (the database build's default),
// and the 5-input oracle's configuration: every pruning but the support
// clause.  The pairwise interactions are covered by the database histogram
// check against the paper's Table I.
INSTANTIATE_TEST_SUITE_P(KeyCombos, EncodingOptionsTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 31, 15));

TEST(EncodingOptionsTest, FourVariableSpotCheckWithFullPruning) {
  // The paper's hardest class S_{0,2} must still come out at 7 gates with
  // every pruning enabled (cross-validated against Table I).
  tt::TruthTable s02(4);
  for (uint32_t m = 0; m < 16; ++m) {
    const int w = __builtin_popcount(m);
    s02.set_bit(m, w == 0 || w == 2);
  }
  const auto r = synthesize_minimum_mig(s02);
  ASSERT_EQ(r.status, SynthesisStatus::success);
  EXPECT_EQ(r.chain.size(), 7u);
}

}  // namespace
}  // namespace mighty::exact
