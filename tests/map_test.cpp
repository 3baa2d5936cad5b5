#include "map/lut_mapper.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::map {
namespace {

TEST(MapTest, SingleGateIsOneLut) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(m.create_maj(a, b, c));
  const auto result = map_luts(m);
  EXPECT_EQ(result.num_luts, 1u);
  EXPECT_EQ(result.depth, 1u);
}

TEST(MapTest, FullAdderFitsInTwoLuts) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(m.create_xor3(a, b, c));
  m.create_po(m.create_maj(a, b, c));
  const auto result = map_luts(m);
  EXPECT_EQ(result.num_luts, 2u);
  EXPECT_EQ(result.depth, 1u);
}

TEST(MapTest, SixInputConeIsOneLut) {
  // Any single-output cone over six PIs fits one 6-LUT.
  mig::Mig m;
  const auto pis = m.create_pis(6);
  auto acc = pis[0];
  for (int i = 1; i < 6; ++i) acc = m.create_and(acc, pis[static_cast<size_t>(i)]);
  m.create_po(acc);
  const auto result = map_luts(m);
  EXPECT_EQ(result.num_luts, 1u);
  EXPECT_EQ(result.depth, 1u);
}

TEST(MapTest, SevenInputConeNeedsTwoLuts) {
  mig::Mig m;
  const auto pis = m.create_pis(7);
  auto acc = pis[0];
  for (int i = 1; i < 7; ++i) acc = m.create_and(acc, pis[static_cast<size_t>(i)]);
  m.create_po(acc);
  const auto result = map_luts(m);
  EXPECT_EQ(result.num_luts, 2u);
  EXPECT_EQ(result.depth, 2u);
}

TEST(MapTest, CoverIsAValidMapping) {
  // Re-evaluate the mapping as a LUT network and compare with the original
  // MIG on random patterns.
  for (uint32_t seed = 0; seed < 5; ++seed) {
    const auto m = testutil::random_mig(8, 80, 5, 31 + seed);
    const auto result = map_luts(m);

    std::mt19937_64 rng(seed);
    std::vector<uint64_t> pi_words(m.num_pis());
    for (auto& w : pi_words) w = rng();
    const auto words = mig::simulate_words(m, pi_words);

    // Evaluate each LUT from its cut function over leaf values; mapped roots
    // must reproduce the MIG node values.
    for (const auto& [root, leaves] : result.cover) {
      const auto local = mig::simulate_cut(m, root, leaves);
      uint64_t expected = words[root];
      uint64_t computed = 0;
      for (uint32_t bit = 0; bit < 64; ++bit) {
        uint32_t assignment = 0;
        for (size_t i = 0; i < leaves.size(); ++i) {
          if ((words[leaves[i]] >> bit) & 1) assignment |= 1u << i;
        }
        if (local.get_bit(assignment)) computed |= uint64_t{1} << bit;
      }
      EXPECT_EQ(computed, expected) << "seed " << seed << " root " << root;
    }
  }
}

TEST(MapTest, MapsAdderReasonably) {
  const auto m = gen::make_adder_n(32);
  const auto result = map_luts(m);
  // 33 outputs cannot fit fewer than ~ceil(33/...) LUTs; sanity bounds.
  EXPECT_GE(result.num_luts, 10u);
  EXPECT_LT(result.num_luts, m.count_live_gates());
  EXPECT_LE(result.depth, m.depth());
  EXPECT_GE(result.depth, 2u);
}

TEST(MapTest, AreaRecoveryDoesNotHurtDepth) {
  const auto m = gen::make_multiplier_n(8);
  MapParams no_recovery;
  no_recovery.area_rounds = 0;
  MapParams with_recovery;
  with_recovery.area_rounds = 2;
  const auto r0 = map_luts(m, no_recovery);
  const auto r2 = map_luts(m, with_recovery);
  EXPECT_LE(r2.depth, r0.depth + 1);
  EXPECT_LE(r2.num_luts, r0.num_luts + 2);
}

TEST(MapTest, LutSizeFourWorks) {
  const auto m = gen::make_adder_n(16);
  MapParams params;
  params.lut_size = 4;
  const auto r4 = map_luts(m, params);
  const auto r6 = map_luts(m);
  EXPECT_GE(r4.num_luts, r6.num_luts);  // smaller LUTs need at least as many
}

TEST(MapTest, RejectsParamsOutsideTheCutStore) {
  const auto m = gen::make_adder_n(4);
  MapParams params;
  params.lut_size = cuts::Cut::max_size + 1;  // would overrun Cut::leaves
  EXPECT_THROW(map_luts(m, params), std::invalid_argument);
  params.lut_size = 2;  // a three-fanin gate has no 2-feasible cut
  EXPECT_THROW(map_luts(m, params), std::invalid_argument);
  params.lut_size = 6;
  params.cut_limit = 0;
  EXPECT_THROW(map_luts(m, params), std::invalid_argument);
  params.cut_limit = 1;
  EXPECT_GT(map_luts(m, params).num_luts, 0u);
}

TEST(MapTest, ConstantOutputNeedsNoLut) {
  mig::Mig m;
  m.create_pis(2);
  m.create_po(m.get_constant(true));
  const auto result = map_luts(m);
  EXPECT_EQ(result.num_luts, 0u);
  EXPECT_EQ(result.depth, 0u);
}

uint64_t cover_hash(const MappingResult& result) {
  testutil::Fnv1a h;
  for (const auto& [root, leaves] : result.cover) {
    h.add(root);
    h.add(static_cast<uint32_t>(leaves.size()));
    for (const uint32_t leaf : leaves) h.add(leaf);
  }
  return h.value;
}

// Exact covers on the benchmark's starting points (generator output,
// depth-optimized).  Any change to merge order, dedup or the ranking sort
// moves the hash, and with it the covers the benchmark reports.
TEST(MapPinTest, CoversMatchRecordedValues) {
  struct Pin {
    const char* name;
    mig::Mig (*make)(uint32_t);
    uint32_t width;
    uint32_t num_luts;
    uint32_t depth;
    uint64_t cover_hash;
  };
  const Pin pins[] = {
      {"adder", gen::make_adder_n, 8, 30, 3, 4703266880294012133ull},
      {"multiplier", gen::make_multiplier_n, 4, 26, 4, 1360713514406363449ull},
      {"max", gen::make_max_n, 8, 143, 7, 13737460930428779643ull},
      {"sine", gen::make_sine_n, 4, 5, 1, 9834148797702377004ull},
      {"multiplier", gen::make_multiplier_n, 8, 249, 8, 4873931720319707555ull},
  };
  for (const auto& pin : pins) {
    const auto m = algebra::depth_optimize(pin.make(pin.width));
    const auto result = map_luts(m);
    EXPECT_EQ(result.num_luts, pin.num_luts) << pin.name << pin.width;
    EXPECT_EQ(result.depth, pin.depth) << pin.name << pin.width;
    EXPECT_EQ(cover_hash(result), pin.cover_hash) << pin.name << pin.width;
  }
}

}  // namespace
}  // namespace mighty::map
