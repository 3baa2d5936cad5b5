#include "exact/exact_synthesis.hpp"

#include <gtest/gtest.h>

#include <random>

#include "exact/depth_table.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"

namespace mighty::exact {
namespace {

using tt::TruthTable;

TEST(ChainTest, TrivialChains) {
  const auto c0 = trivial_chain(TruthTable::constant(3, false));
  ASSERT_TRUE(c0.has_value());
  EXPECT_EQ(c0->size(), 0u);
  EXPECT_EQ(c0->simulate(), TruthTable::constant(3, false));

  const auto c1 = trivial_chain(TruthTable::constant(3, true));
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->simulate(), TruthTable::constant(3, true));

  const auto px = trivial_chain(TruthTable::projection(4, 2));
  ASSERT_TRUE(px.has_value());
  EXPECT_EQ(px->simulate(), TruthTable::projection(4, 2));

  const auto pnx = trivial_chain(~TruthTable::projection(4, 1));
  ASSERT_TRUE(pnx.has_value());
  EXPECT_EQ(pnx->simulate(), ~TruthTable::projection(4, 1));

  EXPECT_FALSE(trivial_chain(TruthTable(2, 0x8)).has_value());
}

TEST(ChainTest, SerializationRoundTrip) {
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, true), make_ref_lit(3, false)}});
  chain.steps.push_back({{make_ref_lit(0, false), make_ref_lit(4, false), make_ref_lit(2, false)}});
  chain.output = make_ref_lit(5, true);
  const auto back = MigChain::from_string(chain.to_string());
  EXPECT_EQ(back, chain);
}

TEST(ChainTest, InstantiateMatchesSimulation) {
  // Chain for <x1 !x2 x3>.
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, true), make_ref_lit(3, false)}});
  chain.output = make_ref_lit(4, false);

  mig::Mig m;
  const auto pis = m.create_pis(3);
  m.create_po(chain.instantiate(m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], chain.simulate());
}

TEST(ChainTest, DepthOfFullAdderSumChain) {
  // carry = <abc>; mid = <ab!c>; sum = <!carry mid c> -- depth 2 (Fig. 1).
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, false), make_ref_lit(3, false)}});
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, false), make_ref_lit(3, true)}});
  chain.steps.push_back({{make_ref_lit(4, true), make_ref_lit(5, false), make_ref_lit(3, false)}});
  chain.output = make_ref_lit(6, false);
  EXPECT_EQ(chain.depth(), 2u);
  EXPECT_EQ(chain.simulate(), TruthTable::projection(3, 0) ^ TruthTable::projection(3, 1) ^
                                  TruthTable::projection(3, 2));
}

TEST(ExactSynthesisTest, SingleGateFunctions) {
  // AND needs one gate.
  const auto and2 = TruthTable::projection(2, 0) & TruthTable::projection(2, 1);
  const auto r = synthesize_minimum_mig(and2);
  ASSERT_EQ(r.status, SynthesisStatus::success);
  EXPECT_EQ(r.chain.size(), 1u);

  // MAJ needs one gate.
  const auto maj3 = TruthTable::maj(TruthTable::projection(3, 0), TruthTable::projection(3, 1),
                                    TruthTable::projection(3, 2));
  const auto rm = synthesize_minimum_mig(maj3);
  ASSERT_EQ(rm.status, SynthesisStatus::success);
  EXPECT_EQ(rm.chain.size(), 1u);
}

TEST(ExactSynthesisTest, XorSizes) {
  // The optimal MIG for x1 ^ x2 has 3 gates; for x1 ^ x2 ^ x3 also 3 (the
  // full-adder sum structure of Fig. 1).
  const auto xor2 = TruthTable::projection(2, 0) ^ TruthTable::projection(2, 1);
  const auto r2 = synthesize_minimum_mig(xor2);
  ASSERT_EQ(r2.status, SynthesisStatus::success);
  EXPECT_EQ(r2.chain.size(), 3u);

  const auto xor3 = TruthTable::projection(3, 0) ^ TruthTable::projection(3, 1) ^
                    TruthTable::projection(3, 2);
  const auto r3 = synthesize_minimum_mig(xor3);
  ASSERT_EQ(r3.status, SynthesisStatus::success);
  EXPECT_EQ(r3.chain.size(), 3u);
}

TEST(ExactSynthesisTest, OutputComplementDoesNotChangeSize) {
  std::mt19937 rng(3);
  for (int i = 0; i < 5; ++i) {
    const TruthTable f(3, rng() & 0xff);
    if (trivial_chain(f)) continue;
    const auto r = synthesize_minimum_mig(f);
    const auto rc = synthesize_minimum_mig(~f);
    ASSERT_EQ(r.status, SynthesisStatus::success);
    ASSERT_EQ(rc.status, SynthesisStatus::success);
    EXPECT_EQ(r.chain.size(), rc.chain.size());
  }
}

TEST(ExactSynthesisTest, NpnEquivalentFunctionsHaveSameSize) {
  std::mt19937 rng(4);
  const auto perms = npn::all_permutations(3);
  for (int i = 0; i < 3; ++i) {
    const TruthTable f(3, rng() & 0xff);
    if (trivial_chain(f)) continue;
    npn::Transform t;
    t.num_vars = 3;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 7);
    t.output_negation = (rng() & 1) != 0;
    const auto g = npn::apply(f, t);
    const auto rf = synthesize_minimum_mig(f);
    const auto rg = synthesize_minimum_mig(g);
    ASSERT_EQ(rf.status, SynthesisStatus::success);
    ASSERT_EQ(rg.status, SynthesisStatus::success);
    EXPECT_EQ(rf.chain.size(), rg.chain.size());
  }
}

TEST(ExactSynthesisTest, TimeoutIsReported) {
  // The 4-input parity with a conflict budget of 1 cannot complete.
  const auto parity = TruthTable(4, 0x6996);
  SynthesisOptions options;
  options.conflict_limit = 1;
  const auto r = synthesize_minimum_mig(parity, options);
  EXPECT_EQ(r.status, SynthesisStatus::timeout);
}

TEST(DepthSynthesisTest, DepthNeverExceedsSizeOptimalDepth) {
  const auto& table = DepthTable::instance();
  std::mt19937 rng(9);
  for (int i = 0; i < 4; ++i) {
    const TruthTable f(3, rng() & 0xff);
    const auto rs = synthesize_minimum_mig(f);
    ASSERT_EQ(rs.status, SynthesisStatus::success);
    EXPECT_LE(table.depth(f), rs.chain.depth());
    // Witnesses are built over four variables.
    EXPECT_EQ(table.witness(f).simulate(), f.extend(4));
  }
}

}  // namespace
}  // namespace mighty::exact
