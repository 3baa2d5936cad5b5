#include "exact/depth_table.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "npn/npn.hpp"

namespace mighty::exact {
namespace {

const DepthTable& table() { return DepthTable::instance(); }

TEST(DepthTableTest, HistogramMatchesPaperTable2) {
  // D(f) function counts of Table II: 10, 80, 10260, 55184, 2.
  const auto histogram = table().function_histogram();
  ASSERT_EQ(histogram.size(), 5u);
  EXPECT_EQ(histogram[0], 10u);
  EXPECT_EQ(histogram[1], 80u);
  EXPECT_EQ(histogram[2], 10260u);
  EXPECT_EQ(histogram[3], 55184u);
  EXPECT_EQ(histogram[4], 2u);
}

TEST(DepthTableTest, OnlyParityHasDepthFour) {
  EXPECT_EQ(table().depth(tt::TruthTable(4, 0x6996)), 4u);
  EXPECT_EQ(table().depth(tt::TruthTable(4, 0x9669)), 4u);
}

TEST(DepthTableTest, RejectsMoreThanFourVariables) {
  const auto xor5 = tt::TruthTable::projection(5, 0) ^ tt::TruthTable::projection(5, 1) ^
                    tt::TruthTable::projection(5, 2) ^ tt::TruthTable::projection(5, 3) ^
                    tt::TruthTable::projection(5, 4);
  EXPECT_THROW(table().depth(xor5), std::invalid_argument);
  EXPECT_THROW(table().witness(xor5), std::invalid_argument);
}

TEST(DepthTableTest, TrivialAndSingleGateDepths) {
  EXPECT_EQ(table().depth(tt::TruthTable::constant(4, false)), 0u);
  EXPECT_EQ(table().depth(tt::TruthTable::projection(4, 2)), 0u);
  const auto maj = tt::TruthTable::maj(tt::TruthTable::projection(4, 0),
                                       tt::TruthTable::projection(4, 1),
                                       tt::TruthTable::projection(4, 2));
  EXPECT_EQ(table().depth(maj), 1u);
  const auto and2 = tt::TruthTable::projection(4, 0) & tt::TruthTable::projection(4, 1);
  EXPECT_EQ(table().depth(and2), 1u);
  const auto xor2 = tt::TruthTable::projection(4, 0) ^ tt::TruthTable::projection(4, 1);
  EXPECT_EQ(table().depth(xor2), 2u);
}

TEST(DepthTableTest, WitnessRealizesFunctionAtTabulatedDepth) {
  std::mt19937 rng(17);
  std::vector<tt::TruthTable> functions = {tt::TruthTable(4, 0x6996)};
  for (int i = 0; i < 200; ++i) functions.emplace_back(4, rng());
  for (const auto& f : functions) {
    const auto chain = table().witness(f);
    EXPECT_EQ(chain.simulate(), f);
    EXPECT_EQ(chain.depth(), table().depth(f)) << "f=0x" << f.to_hex();
  }
}

TEST(DepthTableTest, DepthIsNpnInvariant) {
  std::mt19937 rng(18);
  const auto perms = npn::all_permutations(4);
  for (int i = 0; i < 100; ++i) {
    const tt::TruthTable f(4, rng());
    npn::Transform t;
    t.num_vars = 4;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0xf);
    t.output_negation = (rng() & 1) != 0;
    EXPECT_EQ(table().depth(f), table().depth(npn::apply(f, t)));
  }
}

TEST(DepthTableTest, DepthNeverExceedsFour) {
  std::mt19937 rng(19);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(table().depth(tt::TruthTable(4, rng())), 4u);
  }
}

TEST(DepthTableTest, SmallerFunctionsExtendTransparently) {
  const auto xor3 = tt::TruthTable::projection(3, 0) ^ tt::TruthTable::projection(3, 1) ^
                    tt::TruthTable::projection(3, 2);
  EXPECT_EQ(table().depth(xor3), 2u);  // Fig. 1 sum structure
  const auto and2 = tt::TruthTable::projection(2, 0) & tt::TruthTable::projection(2, 1);
  EXPECT_EQ(table().depth(and2), 1u);
  const auto xor2 = tt::TruthTable::projection(2, 0) ^ tt::TruthTable::projection(2, 1);
  EXPECT_EQ(table().depth(xor2), 2u);
}

TEST(DepthTableTest, DepthLowerBoundedBySupport) {
  // A function depending on more than 3 variables cannot have depth 1.
  std::mt19937 rng(20);
  for (int i = 0; i < 200; ++i) {
    const tt::TruthTable f(4, rng());
    if (f.support_size() == 4) {
      EXPECT_GE(table().depth(f), 2u) << "f=0x" << f.to_hex();
    }
  }
}

}  // namespace
}  // namespace mighty::exact
