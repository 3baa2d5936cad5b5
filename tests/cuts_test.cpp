#include "mig/cuts.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gen/arith.hpp"
#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::cuts {
namespace {

TEST(CutsTest, MergeWithinLimit) {
  Cut a;
  a.size = 2;
  a.leaves = {1, 3};
  a.signature = Cut::hash_leaf(1) | Cut::hash_leaf(3);
  Cut b;
  b.size = 2;
  b.leaves = {2, 3};
  b.signature = Cut::hash_leaf(2) | Cut::hash_leaf(3);
  Cut out;
  ASSERT_TRUE(merge_cuts(a, b, 4, out));
  EXPECT_EQ(out.size, 3);
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[1], 2u);
  EXPECT_EQ(out.leaves[2], 3u);
}

TEST(CutsTest, MergeOverflows) {
  Cut a;
  a.size = 3;
  a.leaves = {1, 2, 3};
  Cut b;
  b.size = 3;
  b.leaves = {4, 5, 6};
  Cut out;
  EXPECT_FALSE(merge_cuts(a, b, 4, out));
}

TEST(CutsTest, SubsetDetection) {
  Cut a;
  a.size = 2;
  a.leaves = {1, 3};
  a.signature = Cut::hash_leaf(1) | Cut::hash_leaf(3);
  Cut b;
  b.size = 3;
  b.leaves = {1, 2, 3};
  b.signature = Cut::hash_leaf(1) | Cut::hash_leaf(2) | Cut::hash_leaf(3);
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
}

TEST(CutsTest, SingleGateCuts) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g = m.create_maj(a, b, c);
  m.create_po(g);

  const auto sets = enumerate_cuts(m);
  const auto& gc = sets[g.index()];
  // Expected cuts of g: {a,b,c} and the trivial {g}.
  ASSERT_EQ(gc.size(), 2u);
  std::set<std::vector<uint32_t>> leaves;
  for (const auto& cut : gc) leaves.insert(cut.leaf_vector());
  EXPECT_TRUE(leaves.count({a.index(), b.index(), c.index()}));
  EXPECT_TRUE(leaves.count({g.index()}));
}

TEST(CutsTest, ConstantFaninExemptFromLeaves) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto g = m.create_and(a, b);  // <0ab>
  m.create_po(g);
  const auto sets = enumerate_cuts(m);
  for (const auto& cut : sets[g.index()]) {
    for (uint8_t i = 0; i < cut.size; ++i) {
      EXPECT_NE(cut.leaves[i], mig::Mig::constant_node);
    }
  }
}

TEST(CutsTest, TwoLevelNetworkCutSet) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto e = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(g1, d, e);
  m.create_po(g2);

  const auto sets = enumerate_cuts(m, {.cut_size = 4});
  std::set<std::vector<uint32_t>> leaves;
  for (const auto& cut : sets[g2.index()]) leaves.insert(cut.leaf_vector());
  // {d,e,g1}, {g2} are 4-feasible; {a,b,c,d,e} is not (5 leaves).
  EXPECT_TRUE(leaves.count({d.index(), e.index(), g1.index()}));
  EXPECT_TRUE(leaves.count({g2.index()}));
  EXPECT_EQ(leaves.size(), 2u);

  const auto sets5 = enumerate_cuts(m, {.cut_size = 5});
  std::set<std::vector<uint32_t>> leaves5;
  for (const auto& cut : sets5[g2.index()]) leaves5.insert(cut.leaf_vector());
  EXPECT_TRUE(
      leaves5.count({a.index(), b.index(), c.index(), d.index(), e.index()}));
}

TEST(CutsTest, EveryCutFunctionIsConsistent) {
  // For random networks, the function computed over any cut's leaves must
  // reproduce the node's global function when composed with the leaves'
  // global functions.
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(5, 25, 3, 1000 + seed);
    const auto node_tts = mig::simulate_truth_tables(m);
    const auto sets = enumerate_cuts(m);
    for (uint32_t n = 0; n < m.num_nodes(); ++n) {
      if (!m.is_gate(n)) continue;
      for (const auto& cut : sets[n]) {
        if (cut.size == 1 && cut.leaves[0] == n) continue;  // trivial
        const auto local = mig::simulate_cut(m, n, cut.leaf_vector());
        // Compose: evaluate local over the leaves' global tables.
        tt::TruthTable composed(m.num_pis());
        for (uint32_t a = 0; a < composed.num_bits(); ++a) {
          uint32_t leaf_assignment = 0;
          for (uint8_t l = 0; l < cut.size; ++l) {
            if (node_tts[cut.leaves[l]].get_bit(a)) leaf_assignment |= 1u << l;
          }
          composed.set_bit(a, local.get_bit(leaf_assignment));
        }
        EXPECT_EQ(composed, node_tts[n]) << "seed " << seed << " node " << n;
      }
    }
  }
}

TEST(CutsTest, CutFunctionsMatchSimulation) {
  // Random networks draw fanins from the constant and from complemented
  // signals; the adder adds real arithmetic structure.
  std::vector<mig::Mig> nets;
  for (uint32_t seed = 0; seed < 6; ++seed) {
    nets.push_back(testutil::random_mig(7, 60, 4, 2000 + seed));
  }
  nets.push_back(gen::make_adder_n(4));
  uint64_t checked = 0;
  uint64_t constant_fanins = 0;
  uint64_t complemented_fanins = 0;
  for (const auto& m : nets) {
    for (uint32_t n = 0; n < m.num_nodes(); ++n) {
      if (!m.is_gate(n)) continue;
      for (const mig::Signal f : m.fanins(n)) {
        constant_fanins += m.is_constant(f.index()) ? 1 : 0;
        complemented_fanins += f.is_complemented() ? 1 : 0;
      }
    }
    const auto boundary = ffr::ffr_boundary(ffr::compute_ffrs(m));
    for (const uint32_t k : {4u, 5u, 6u}) {
      for (const std::vector<bool>* mask : {static_cast<const std::vector<bool>*>(nullptr),
                                            &boundary}) {
        const auto sets = enumerate_cuts(m, {.cut_size = k, .boundary = mask});
        for (uint32_t n = 0; n < m.num_nodes(); ++n) {
          for (const auto& cut : sets[n]) {
            const tt::TruthTable f(cut.size, cut.function);
            ASSERT_EQ(f, mig::simulate_cut(m, n, cut.leaf_vector()))
                << "k " << k << " node " << n << (mask ? " ffr" : " global");
            // Variables past the leaves are irrelevant in the stored word.
            ASSERT_EQ(tt::TruthTable(tt::TruthTable::max_vars, cut.function),
                      f.extend(tt::TruthTable::max_vars));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(constant_fanins, 0u);
  EXPECT_GT(complemented_fanins, 0u);
  EXPECT_GT(checked, 10000u);
}

TEST(CutsTest, ScopedCutsAndFunctionsMatchGlobalOnes) {
  const auto m = gen::make_adder_n(6);
  const auto partition = ffr::compute_ffrs(m);
  const auto boundary = ffr::ffr_boundary(partition);
  const CutEnumerationParams params{.cut_size = 5, .boundary = &boundary};
  const auto global = enumerate_cuts(m, params);
  std::vector<std::vector<Cut>> scoped(m.num_nodes());
  for (const auto& shard : shard::plan_ffr_shards(m, partition, 3).shards) {
    enumerate_cuts_scoped(m, params, shard.nodes, scoped);
  }
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (scoped[n].empty()) continue;  // not in any shard (PIs, dead gates)
    ASSERT_EQ(scoped[n].size(), global[n].size()) << n;
    for (size_t i = 0; i < scoped[n].size(); ++i) {
      EXPECT_EQ(scoped[n][i], global[n][i]) << n;
      EXPECT_EQ(scoped[n][i].function, global[n][i].function) << n;
    }
  }
}

TEST(CutsTest, MaxCutsCapIsRespected) {
  const auto m = testutil::random_mig(6, 60, 3, 7);
  const auto sets = enumerate_cuts(m, {.cut_size = 4, .max_cuts = 5});
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (!m.is_gate(n)) continue;
    EXPECT_LE(sets[n].size(), 6u);  // cap + trivial cut
  }
}

TEST(CutsTest, NoDominatedCutsStored) {
  const auto m = testutil::random_mig(6, 40, 3, 8);
  const auto sets = enumerate_cuts(m);
  for (const auto& set : sets) {
    for (size_t i = 0; i < set.size(); ++i) {
      for (size_t j = 0; j < set.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(set[i].subset_of(set[j]) && set[j].subset_of(set[i]));
        if (i < j) {
          EXPECT_FALSE(set[i] == set[j]);
        }
      }
    }
  }
}

TEST(FfrTest, ChainIsSingleRegion) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, c);
  const auto g3 = m.create_or(g2, a);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  EXPECT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0], g3.index());
  EXPECT_EQ(p.region_root[g1.index()], g3.index());
  EXPECT_EQ(p.region_root[g2.index()], g3.index());
}

TEST(FfrTest, MultiFanoutSplitsRegions) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto shared = m.create_maj(a, b, c);
  const auto g2 = m.create_and(shared, a);
  const auto g3 = m.create_or(shared, b);
  m.create_po(g2);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  EXPECT_TRUE(p.is_root[shared.index()]);
  EXPECT_TRUE(p.is_root[g2.index()]);
  EXPECT_TRUE(p.is_root[g3.index()]);
  EXPECT_EQ(p.region_root[shared.index()], shared.index());
  EXPECT_EQ(p.roots.size(), 3u);
}

TEST(FfrTest, EveryGateBelongsToExactlyOneRegion) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(6, 50, 4, 2000 + seed);
    const auto p = ffr::compute_ffrs(m);
    for (uint32_t n = 0; n < m.num_nodes(); ++n) {
      if (!m.is_gate(n)) continue;
      const uint32_t root = p.region_root[n];
      EXPECT_TRUE(p.is_root[root]);
      // The region root must be reachable by following unique fanouts.
      EXPECT_EQ(p.region_root[root], root);
    }
  }
}

TEST(FfrTest, BoundaryRestrictsCuts) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto shared = m.create_maj(a, b, c);
  const auto g2 = m.create_and(shared, a);
  const auto g3 = m.create_or(shared, b);
  m.create_po(g2);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  const auto boundary = ffr::ffr_boundary(p);
  const auto sets = enumerate_cuts(m, {.cut_size = 4, .boundary = &boundary});
  // Cuts of g2 must treat `shared` as a leaf: no cut may expand beyond it.
  for (const auto& cut : sets[g2.index()]) {
    for (uint8_t i = 0; i < cut.size; ++i) {
      EXPECT_TRUE(cut.leaves[i] == shared.index() || cut.leaves[i] == a.index() ||
                  cut.leaves[i] == g2.index());
    }
  }
}

}  // namespace
}  // namespace mighty::cuts
