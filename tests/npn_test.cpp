#include "npn/npn.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace mighty::npn {
namespace {

using tt::TruthTable;

/// Reference canonization: every transform applied through apply(), in the
/// order canonize() documents.  canonize() must reproduce it bit for bit —
/// the NPN-4 lookup table stores these transforms, and rewriting outputs
/// depend on them.
CanonResult reference_canonize(const TruthTable& f) {
  const uint32_t n = f.num_vars();
  CanonResult best;
  bool have_best = false;
  Transform t;
  t.num_vars = static_cast<uint8_t>(n);
  for (const auto& perm : all_permutations(n)) {
    t.perm = perm;
    for (uint32_t neg = 0; neg < (1u << n); ++neg) {
      t.input_negations = static_cast<uint8_t>(neg);
      for (uint32_t out = 0; out < 2; ++out) {
        t.output_negation = out != 0;
        const TruthTable candidate = apply(f, t);
        if (!have_best || candidate < best.representative) {
          best.representative = candidate;
          best.transform = t;
          have_best = true;
        }
      }
    }
  }
  return best;
}

Transform random_transform(uint32_t n, std::mt19937_64& rng) {
  const auto perms = all_permutations(n);
  Transform t;
  t.num_vars = static_cast<uint8_t>(n);
  t.perm = perms[rng() % perms.size()];
  t.input_negations = static_cast<uint8_t>(rng() & ((1u << n) - 1));
  t.output_negation = (rng() & 1) != 0;
  return t;
}

TEST(NpnTest, IdentityTransformIsNoOp) {
  Transform t;
  t.num_vars = 4;
  std::mt19937 rng(1);
  for (int i = 0; i < 50; ++i) {
    const TruthTable f(4, rng());
    EXPECT_EQ(apply(f, t), f);
  }
}

TEST(NpnTest, OutputNegation) {
  Transform t;
  t.num_vars = 4;
  t.output_negation = true;
  const TruthTable f(4, 0x1234);
  EXPECT_EQ(apply(f, t), ~f);
}

TEST(NpnTest, InputNegationMatchesFlip) {
  Transform t;
  t.num_vars = 4;
  t.input_negations = 0b0101;
  std::mt19937 rng(2);
  const TruthTable f(4, rng());
  EXPECT_EQ(apply(f, t), f.flip(0).flip(2));
}

TEST(NpnTest, InverseRoundTripRandom) {
  std::mt19937 rng(3);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 500; ++i) {
    Transform t;
    t.num_vars = 4;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0xf);
    t.output_negation = (rng() & 1) != 0;
    const TruthTable f(4, rng());
    EXPECT_EQ(apply(apply(f, t), inverse(t)), f);
    EXPECT_EQ(apply(apply(f, inverse(t)), t), f);
  }
}

TEST(NpnTest, CanonizeIsIdempotent) {
  std::mt19937 rng(4);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(4, rng());
    const auto r1 = canonize(f);
    const auto r2 = canonize(r1.representative);
    EXPECT_EQ(r2.representative, r1.representative);
  }
}

TEST(NpnTest, CanonizeRelatesFunctionAndRepresentative) {
  std::mt19937 rng(5);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(4, rng());
    const auto r = canonize(f);
    EXPECT_EQ(apply(f, r.transform), r.representative);
    EXPECT_EQ(apply(r.representative, inverse(r.transform)), f);
  }
}

TEST(NpnTest, EquivalentFunctionsShareRepresentative) {
  std::mt19937 rng(6);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 100; ++i) {
    const TruthTable f(4, rng());
    Transform t;
    t.num_vars = 4;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0xf);
    t.output_negation = (rng() & 1) != 0;
    const TruthTable g = apply(f, t);
    EXPECT_EQ(canonize(f).representative, canonize(g).representative);
  }
}

TEST(NpnTest, RepresentativeIsSmallestInOrbit) {
  std::mt19937 rng(7);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 10; ++i) {
    const TruthTable f(4, rng());
    const auto rep = canonize(f).representative;
    Transform t;
    t.num_vars = 4;
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < 16; ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (int out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          EXPECT_FALSE(apply(f, t) < rep);
        }
      }
    }
  }
}

// The published NPN class counts (paper Sec. II-D): 2, 2, 4, 14, 222 classes
// for n = 0 (constants treated over 0 vars), 1, 2, 3, 4.
TEST(NpnTest, ClassCountsMatchLiterature) {
  EXPECT_EQ(enumerate_classes(0).size(), 1u);  // over zero variables: 0 and 1 collapse
  EXPECT_EQ(enumerate_classes(1).size(), 2u);
  EXPECT_EQ(enumerate_classes(2).size(), 4u);
  EXPECT_EQ(enumerate_classes(3).size(), 14u);
  EXPECT_EQ(enumerate_classes(4).size(), 222u);
}

TEST(NpnTest, ClassOrbitsPartitionAllFunctions) {
  const auto reps = enumerate_classes(3);
  std::set<uint64_t> seen;
  const auto perms = all_permutations(3);
  for (const auto& rep : reps) {
    Transform t;
    t.num_vars = 3;
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < 8; ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (int out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          seen.insert(apply(rep, t).bits());
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(NpnTest, RepresentativesCanonizeToThemselves) {
  for (const auto& rep : enumerate_classes(3)) {
    EXPECT_EQ(canonize(rep).representative, rep);
  }
}

TEST(NpnTest, CanonizeMatchesReferenceLoopOnEveryFunctionUpToFourVariables) {
  for (uint32_t n = 0; n <= 4; ++n) {
    for (uint64_t bits = 0; bits < (uint64_t{1} << (1u << n)); ++bits) {
      const TruthTable f(n, bits);
      const auto got = canonize(f);
      const auto want = reference_canonize(f);
      ASSERT_EQ(got.representative, want.representative) << "n=" << n << " f=" << f.to_hex();
      ASSERT_EQ(got.transform, want.transform) << "n=" << n << " f=" << f.to_hex();
    }
  }
}

TEST(NpnTest, FiveVariableRepresentativeIsReachedByItsTransform) {
  std::mt19937_64 rng(8);
  for (int i = 0; i < 300; ++i) {
    const TruthTable f(5, rng());
    const auto r = canonize(f);
    EXPECT_EQ(apply(f, r.transform), r.representative) << "f=" << f.to_hex();
    EXPECT_EQ(apply(r.representative, inverse(r.transform)), f) << "f=" << f.to_hex();
    EXPECT_FALSE(f < r.representative) << "f=" << f.to_hex();
  }
}

TEST(NpnTest, FiveVariableRepresentativeIsInvariantUnderTransforms) {
  // 1000 random transforms, spread over ten random functions.
  std::mt19937_64 rng(9);
  for (int i = 0; i < 10; ++i) {
    const TruthTable f(5, rng());
    const auto rep = canonize(f).representative;
    EXPECT_EQ(canonize(rep).representative, rep);
    for (int j = 0; j < 100; ++j) {
      const TruthTable g = apply(f, random_transform(5, rng));
      ASSERT_EQ(canonize(g).representative, rep) << "f=" << f.to_hex() << " g=" << g.to_hex();
    }
  }
}

TEST(NpnTest, PermutationCount) {
  EXPECT_EQ(all_permutations(4).size(), 24u);
  EXPECT_EQ(all_permutations(3).size(), 6u);
  EXPECT_EQ(all_permutations(1).size(), 1u);
}

}  // namespace
}  // namespace mighty::npn
