#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <random>

namespace mighty::sat {
namespace {

TEST(SatTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::sat);
}

TEST(SatTest, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({lit(v)}));
  EXPECT_EQ(s.solve(), Result::sat);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatTest, ContradictoryUnits) {
  Solver s;
  const Var v = s.new_var();
  s.add_clause({lit(v)});
  EXPECT_FALSE(s.add_clause({lit(v, true)}));
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(SatTest, SimpleImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_clause({lit(v[static_cast<size_t>(i)], true), lit(v[static_cast<size_t>(i + 1)])});
  }
  s.add_clause({lit(v[0])});
  EXPECT_EQ(s.solve(), Result::sat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_value(v[static_cast<size_t>(i)]));
}

TEST(SatTest, XorChainUnsat) {
  // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable (odd cycle).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  auto add_xor1 = [&](Var x, Var y) {
    s.add_clause({lit(x), lit(y)});
    s.add_clause({lit(x, true), lit(y, true)});
  };
  add_xor1(a, b);
  add_xor1(b, c);
  add_xor1(a, c);
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(SatTest, PigeonholeUnsat) {
  // 5 pigeons, 4 holes.
  constexpr int P = 5, H = 4;
  Solver s;
  std::vector<Var> x(P * H);
  for (auto& v : x) v = s.new_var();
  auto at = [&](int p, int h) { return x[static_cast<size_t>(p * H + h)]; };
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(lit(at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({lit(at(p1, h), true), lit(at(p2, h), true)});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(SatTest, PigeonholeSatWhenEnoughHoles) {
  constexpr int P = 4, H = 4;
  Solver s;
  std::vector<Var> x(P * H);
  for (auto& v : x) v = s.new_var();
  auto at = [&](int p, int h) { return x[static_cast<size_t>(p * H + h)]; };
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(lit(at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({lit(at(p1, h), true), lit(at(p2, h), true)});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::sat);
  // Verify the model is a valid assignment.
  for (int p = 0; p < P; ++p) {
    int holes = 0;
    for (int h = 0; h < H; ++h) holes += s.model_value(at(p, h)) ? 1 : 0;
    EXPECT_GE(holes, 1);
  }
}

TEST(SatTest, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({lit(a), lit(b)});
  EXPECT_EQ(s.solve({lit(a, true)}), Result::sat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve({lit(b, true)}), Result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_EQ(s.solve({lit(a, true), lit(b, true)}), Result::unsat);
  // Solver state is not poisoned by unsat assumptions.
  EXPECT_EQ(s.solve(), Result::sat);
}

TEST(SatTest, ConflictLimitYieldsUnknown) {
  // A hard-ish pigeonhole instance with a conflict budget of 1.
  constexpr int P = 8, H = 7;
  Solver s;
  std::vector<Var> x(P * H);
  for (auto& v : x) v = s.new_var();
  auto at = [&](int p, int h) { return x[static_cast<size_t>(p * H + h)]; };
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(lit(at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause({lit(at(p1, h), true), lit(at(p2, h), true)});
      }
    }
  }
  EXPECT_EQ(s.solve({}, 1), Result::unknown);
}

// Brute-force reference check on random 3-SAT instances.
class RandomCnfTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  constexpr int kVars = 10;
  std::uniform_int_distribution<int> num_clauses_dist(20, 60);
  const int num_clauses = num_clauses_dist(rng);

  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      const int v = static_cast<int>(rng() % kVars);
      clause.push_back(lit(v, (rng() & 1) != 0));
    }
    clauses.push_back(clause);
  }

  bool brute_sat = false;
  for (uint32_t m = 0; m < (1u << kVars) && !brute_sat; ++m) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit l : clause) {
        const bool val = ((m >> var_of(l)) & 1) != 0;
        if (val != is_negated(l)) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }

  Solver s;
  for (int v = 0; v < kVars; ++v) s.new_var();
  for (const auto& clause : clauses) s.add_clause(clause);
  const Result r = s.solve();
  EXPECT_EQ(r, brute_sat ? Result::sat : Result::unsat);

  if (r == Result::sat) {
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit l : clause) any = any || s.model_value_lit(l);
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest, ::testing::Range(0, 50));

TEST(SatTest, TautologyAndDuplicateLiteralsHandled) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({lit(a), lit(a, true)}));  // tautology dropped
  EXPECT_TRUE(s.add_clause({lit(a), lit(a)}));        // duplicate collapses to unit
  EXPECT_EQ(s.solve(), Result::sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatTest, StatsAreTracked) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({lit(a), lit(b)});
  s.solve();
  EXPECT_GE(s.stats().decisions, 1u);
}

}  // namespace
}  // namespace mighty::sat
