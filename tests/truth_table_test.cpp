#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <vector>

namespace mighty::tt {
namespace {

TEST(TruthTableTest, ConstantsHaveExpectedBits) {
  EXPECT_EQ(TruthTable::constant(4, false).bits(), 0u);
  EXPECT_EQ(TruthTable::constant(4, true).bits(), 0xffffu);
  EXPECT_EQ(TruthTable::constant(6, true).bits(), ~uint64_t{0});
  EXPECT_TRUE(TruthTable::constant(3, false).is_const0());
  EXPECT_TRUE(TruthTable::constant(3, true).is_const1());
}

TEST(TruthTableTest, ProjectionsMatchDefinition) {
  for (uint32_t n = 1; n <= 6; ++n) {
    for (uint32_t v = 0; v < n; ++v) {
      const auto p = TruthTable::projection(n, v);
      for (uint32_t m = 0; m < p.num_bits(); ++m) {
        EXPECT_EQ(p.get_bit(m), ((m >> v) & 1) != 0);
      }
    }
  }
}

TEST(TruthTableTest, ComplementedProjection) {
  const auto p = TruthTable::projection(3, 1, /*complemented=*/true);
  for (uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(p.get_bit(m), ((m >> 1) & 1) == 0);
  }
}

TEST(TruthTableTest, MajorityOfProjectionsIsMajorityFunction) {
  const auto a = TruthTable::projection(3, 0);
  const auto b = TruthTable::projection(3, 1);
  const auto c = TruthTable::projection(3, 2);
  const auto m = TruthTable::maj(a, b, c);
  // <abc> = 0xe8 for three variables.
  EXPECT_EQ(m.bits(), 0xe8u);
}

TEST(TruthTableTest, MajoritySpecialCases) {
  const auto a = TruthTable::projection(3, 0);
  const auto b = TruthTable::projection(3, 1);
  const auto c0 = TruthTable::constant(3, false);
  const auto c1 = TruthTable::constant(3, true);
  EXPECT_EQ(TruthTable::maj(c0, a, b), a & b);
  EXPECT_EQ(TruthTable::maj(c1, a, b), a | b);
  EXPECT_EQ(TruthTable::maj(a, a, b), a);
  EXPECT_EQ(TruthTable::maj(a, ~a, b), b);
}

TEST(TruthTableTest, MajorityIsSelfDual) {
  std::mt19937 rng(42);
  for (int i = 0; i < 100; ++i) {
    const TruthTable a(4, rng());
    const TruthTable b(4, rng());
    const TruthTable c(4, rng());
    EXPECT_EQ(TruthTable::maj(~a, ~b, ~c), ~TruthTable::maj(a, b, c));
  }
}

TEST(TruthTableTest, BitAccessRoundTrip) {
  TruthTable t(4);
  t.set_bit(5, true);
  t.set_bit(12, true);
  EXPECT_TRUE(t.get_bit(5));
  EXPECT_TRUE(t.get_bit(12));
  EXPECT_FALSE(t.get_bit(4));
  t.set_bit(5, false);
  EXPECT_FALSE(t.get_bit(5));
  EXPECT_EQ(t.count_ones(), 1u);
}

TEST(TruthTableTest, CofactorFixesVariable) {
  std::mt19937 rng(7);
  for (int i = 0; i < 50; ++i) {
    const TruthTable f(4, rng());
    for (uint32_t v = 0; v < 4; ++v) {
      const auto f0 = f.cofactor(v, false);
      const auto f1 = f.cofactor(v, true);
      for (uint32_t m = 0; m < 16; ++m) {
        const bool bit_v = (m >> v) & 1;
        EXPECT_EQ(f0.get_bit(m), f.get_bit(m & ~(1u << v)));
        EXPECT_EQ(f1.get_bit(m), f.get_bit(m | (1u << v)));
        (void)bit_v;
      }
      EXPECT_FALSE(f0.depends_on(v));
      EXPECT_FALSE(f1.depends_on(v));
    }
  }
}

TEST(TruthTableTest, SupportDetection) {
  // f = x0 xor x2 over four variables: support is {x0, x2}.
  const auto f = TruthTable::projection(4, 0) ^ TruthTable::projection(4, 2);
  EXPECT_EQ(f.support_mask(), 0b0101u);
  EXPECT_EQ(f.support_size(), 2u);
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
}

TEST(TruthTableTest, FlipIsInvolution) {
  std::mt19937 rng(11);
  for (int i = 0; i < 50; ++i) {
    const TruthTable f(5, (static_cast<uint64_t>(rng()) << 32) | rng());
    for (uint32_t v = 0; v < 5; ++v) {
      EXPECT_EQ(f.flip(v).flip(v), f);
    }
  }
}

TEST(TruthTableTest, FlipMatchesPointwiseDefinition) {
  std::mt19937 rng(12);
  const TruthTable f(4, rng());
  for (uint32_t v = 0; v < 4; ++v) {
    const auto g = f.flip(v);
    for (uint32_t m = 0; m < 16; ++m) {
      EXPECT_EQ(g.get_bit(m), f.get_bit(m ^ (1u << v)));
    }
  }
}

TEST(TruthTableTest, SwapVarsMatchesPointwiseDefinition) {
  std::mt19937 rng(13);
  const TruthTable f(4, rng());
  const auto g = f.swap_vars(1, 3);
  for (uint32_t m = 0; m < 16; ++m) {
    uint32_t swapped = m & ~0b1010u;
    if (m & 0b0010u) swapped |= 0b1000u;
    if (m & 0b1000u) swapped |= 0b0010u;
    EXPECT_EQ(g.get_bit(m), f.get_bit(swapped));
  }
}

TEST(TruthTableTest, SwapVarsMatchesPointwiseDefinitionOnEverySize) {
  std::mt19937_64 rng(23);
  for (uint32_t n = 1; n <= TruthTable::max_vars; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f(n, rng());
      for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = 0; b < n; ++b) {
          const auto g = f.swap_vars(a, b);
          for (uint32_t m = 0; m < f.num_bits(); ++m) {
            uint32_t src = m & ~((1u << a) | (1u << b));
            src |= (((m >> a) & 1u) << b) | (((m >> b) & 1u) << a);
            ASSERT_EQ(g.get_bit(m), f.get_bit(src)) << n << " " << a << " " << b;
          }
        }
      }
    }
  }
}

TEST(TruthTableTest, PermuteIdentity) {
  std::mt19937 rng(14);
  const TruthTable f(4, rng());
  EXPECT_EQ(f.permute({0, 1, 2, 3, 4, 5}), f);
}

TEST(TruthTableTest, PermuteMatchesSwaps) {
  std::mt19937 rng(15);
  const TruthTable f(4, rng());
  // The permutation sending variable i to perm[i] = (1,0,3,2) equals two swaps.
  EXPECT_EQ(f.permute({1, 0, 3, 2, 4, 5}), f.swap_vars(0, 1).swap_vars(2, 3));
}

TEST(TruthTableTest, ExtendKeepsFunction) {
  const auto f3 = TruthTable::projection(3, 1) & TruthTable::projection(3, 2);
  const auto f5 = f3.extend(5);
  EXPECT_EQ(f5.num_vars(), 5u);
  for (uint32_t m = 0; m < 32; ++m) {
    EXPECT_EQ(f5.get_bit(m), f3.get_bit(m & 7));
  }
  EXPECT_EQ(f5.support_mask(), f3.support_mask());
}

TEST(TruthTableTest, ShrinkToSupport) {
  // x1 and x3 over 4 vars shrinks to x0 and x1 over 2 vars.
  const auto f = TruthTable::projection(4, 1) & TruthTable::projection(4, 3);
  std::vector<uint32_t> old_vars;
  const auto g = f.shrink_to_support(old_vars);
  EXPECT_EQ(g.num_vars(), 2u);
  EXPECT_EQ(old_vars, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(g, TruthTable::projection(2, 0) & TruthTable::projection(2, 1));
}

/// shrink_to_support by definition: one bit at a time.
TruthTable shrink_reference(const TruthTable& f, std::vector<uint32_t>& old_vars) {
  old_vars.clear();
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if (f.depends_on(v)) old_vars.push_back(v);
  }
  TruthTable result(static_cast<uint32_t>(old_vars.size()));
  for (uint32_t m = 0; m < result.num_bits(); ++m) {
    uint32_t src = 0;
    for (uint32_t v = 0; v < old_vars.size(); ++v) {
      if ((m >> v) & 1) src |= 1u << old_vars[v];
    }
    result.set_bit(m, f.get_bit(src));
  }
  return result;
}

TEST(TruthTableTest, ShrinkToSupportMatchesReferenceOnAllFourVariableFunctions) {
  std::vector<uint32_t> vars;
  std::vector<uint32_t> ref_vars;
  for (uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const TruthTable f(4, bits);
    ASSERT_EQ(f.shrink_to_support(vars), shrink_reference(f, ref_vars)) << bits;
    ASSERT_EQ(vars, ref_vars) << bits;
  }
}

TEST(TruthTableTest, ShrinkToSupportMatchesReferenceWithSupportHoles) {
  // Random functions of k variables spread over a random subset of n > k
  // variables, so the support has holes anywhere (and the function may
  // still ignore some of its k variables).
  std::mt19937_64 rng(29);
  std::vector<uint32_t> vars;
  std::vector<uint32_t> ref_vars;
  for (uint32_t n = 5; n <= TruthTable::max_vars; ++n) {
    for (int trial = 0; trial < 2000; ++trial) {
      const uint32_t k = 1 + static_cast<uint32_t>(rng() % (n - 1));
      std::array<uint8_t, TruthTable::max_vars> perm{0, 1, 2, 3, 4, 5};
      std::shuffle(perm.begin(), perm.begin() + n, rng);
      const auto f = TruthTable(k, rng()).extend(n).permute(perm);
      ASSERT_EQ(f.shrink_to_support(vars), shrink_reference(f, ref_vars)) << f.to_hex();
      ASSERT_EQ(vars, ref_vars) << f.to_hex();
      const TruthTable full(n, rng());
      ASSERT_EQ(full.shrink_to_support(vars), shrink_reference(full, ref_vars));
    }
  }
}

TEST(TruthTableTest, ShrinkThenExtendRoundTrip) {
  std::mt19937 rng(16);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(4, rng());
    std::vector<uint32_t> old_vars;
    const auto g = f.shrink_to_support(old_vars);
    // Rebuild f from g by re-expanding onto the original variables.
    TruthTable rebuilt(4);
    for (uint32_t m = 0; m < 16; ++m) {
      uint32_t gm = 0;
      for (uint32_t v = 0; v < old_vars.size(); ++v) {
        if ((m >> old_vars[v]) & 1) gm |= 1u << v;
      }
      rebuilt.set_bit(m, g.get_bit(gm));
    }
    EXPECT_EQ(rebuilt, f);
  }
}

TEST(TruthTableTest, HexRoundTrip) {
  std::mt19937 rng(17);
  for (int i = 0; i < 100; ++i) {
    const TruthTable f(4, rng());
    EXPECT_EQ(TruthTable::from_hex(4, f.to_hex()), f);
  }
  EXPECT_EQ(TruthTable::from_hex(3, "e8").bits(), 0xe8u);
  EXPECT_EQ(TruthTable::projection(3, 0).to_hex(), "aa");
}

TEST(TruthTableTest, BinaryString) {
  EXPECT_EQ(TruthTable(2, 0b0110).to_binary(), "0110");
}

TEST(TruthTableTest, IteMatchesDefinition) {
  std::mt19937 rng(18);
  for (int i = 0; i < 50; ++i) {
    const TruthTable s(4, rng()), t(4, rng()), e(4, rng());
    const auto r = TruthTable::ite(s, t, e);
    for (uint32_t m = 0; m < 16; ++m) {
      EXPECT_EQ(r.get_bit(m), s.get_bit(m) ? t.get_bit(m) : e.get_bit(m));
    }
  }
}

}  // namespace
}  // namespace mighty::tt
