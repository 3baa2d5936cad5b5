#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <random>

#include "exact/encoding_onehot.hpp"
#include "tt/truth_table.hpp"

namespace mighty::sat {
namespace {

/// Pigeonhole formula: `pigeons` pigeons, `holes` holes; returns the
/// variables, x[p * holes + h] = "pigeon p sits in hole h".
std::vector<Var> add_pigeonhole(Solver& s, int pigeons, int holes) {
  std::vector<Var> x(static_cast<size_t>(pigeons * holes));
  for (auto& v : x) v = s.new_var();
  auto at = [&](int p, int h) { return x[static_cast<size_t>(p * holes + h)]; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(lit(at(p, h)));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({lit(at(p1, h), true), lit(at(p2, h), true)});
      }
    }
  }
  return x;
}

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
  Solver s;
  add_pigeonhole(s, 5, 4);
  EXPECT_EQ(s.solve(), Result::unsat);
}

TEST(SatTest, PigeonholeSatWhenEnoughHoles) {
  constexpr int P = 4, H = 4;
  Solver s;
  const auto x = add_pigeonhole(s, P, H);
  EXPECT_EQ(s.solve(), Result::sat);
  // Verify the model is a valid assignment.
  for (int p = 0; p < P; ++p) {
    int holes = 0;
    for (int h = 0; h < H; ++h) holes += s.model_value(x[static_cast<size_t>(p * H + h)]) ? 1 : 0;
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
  Solver s;
  add_pigeonhole(s, 8, 7);
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

// --- search pins --------------------------------------------------------------
//
// Exact search counters and models of fixed instances.  Clause storage,
// watch order and VSIDS bump order must not perturb the search: any change
// that does shows up here as a different conflict, decision or propagation
// count, or a different model.

/// FNV-1a over the model of every variable, in variable order.
uint64_t model_hash(const Solver& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (Var v = 0; v < s.num_vars(); ++v) {
    h ^= s.model_value(v) ? 1u : 0u;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct SearchPin {
  Result result;
  uint64_t conflicts;
  uint64_t decisions;
  uint64_t propagations;
  uint64_t model;  ///< model_hash after Result::sat, else 0
};

void expect_pin(const Solver& s, Result r, const SearchPin& pin) {
  EXPECT_EQ(r, pin.result);
  EXPECT_EQ(s.stats().conflicts, pin.conflicts);
  EXPECT_EQ(s.stats().decisions, pin.decisions);
  EXPECT_EQ(s.stats().propagations, pin.propagations);
  EXPECT_EQ(r == Result::sat ? model_hash(s) : 0u, pin.model);
}

struct OnehotPinCase {
  const char* function;  ///< 5-input truth table in hex
  uint32_t gates;
  SearchPin pin;
};

class OnehotSearchPinTest : public ::testing::TestWithParam<OnehotPinCase> {};

TEST_P(OnehotSearchPinTest, SearchIsPinned) {
  const auto& c = GetParam();
  Solver s;
  exact::OnehotEncoder encoder(s, tt::TruthTable::from_hex(5, c.function), c.gates);
  encoder.encode();
  expect_pin(s, s.solve(), c.pin);
}

// Each function at its optimum (SAT) and one gate below it (UNSAT).
// fee8e880 is maj5, 80000000 the 5-input AND; 96696996 needs six gates, and
// both of its searches pass through several learnt-clause reductions.
INSTANTIATE_TEST_SUITE_P(
    Functions, OnehotSearchPinTest,
    ::testing::Values(
        OnehotPinCase{"fee8e880", 3, {Result::unsat, 1392, 1931, 131280, 0}},
        OnehotPinCase{"fee8e880", 4,
                      {Result::sat, 1942, 3546, 157461, 12200486384820647328ull}},
        OnehotPinCase{"0000ffe0", 3, {Result::unsat, 1069, 1496, 84938, 0}},
        OnehotPinCase{"0000ffe0", 4,
                      {Result::sat, 1374, 2464, 132106, 8771497358853939311ull}},
        OnehotPinCase{"80000000", 3, {Result::unsat, 1875, 2480, 182465, 0}},
        OnehotPinCase{"80000000", 4,
                      {Result::sat, 340, 739, 33776, 16219689708800159270ull}},
        OnehotPinCase{"96696996", 5, {Result::unsat, 46235, 58482, 4918768, 0}},
        OnehotPinCase{"96696996", 6,
                      {Result::sat, 32190, 47847, 4171156, 14298143617294009523ull}}));

TEST(SatSearchPinTest, PigeonholeThroughReductions) {
  Solver s;
  add_pigeonhole(s, 9, 8);
  expect_pin(s, s.solve(), {Result::unsat, 26750, 32192, 351075, 0});
  EXPECT_EQ(s.stats().removed_clauses, 22402u);
  EXPECT_EQ(s.stats().reductions, 8u);
}

TEST(SatTest, RepeatedAssumptionsOutnumberVariables) {
  // Each assumption opens a decision level, satisfied or not, so decision
  // levels can exceed the variable count; learnt clauses then carry such
  // levels into LBD computation.
  Solver s;
  const auto x = add_pigeonhole(s, 5, 4);
  const std::vector<Lit> assumptions(3 * x.size(), lit(x[0]));
  EXPECT_EQ(s.solve(assumptions), Result::unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSearchPinTest, AssumptionResolveAfterReduction) {
  // The first solve compacts the clause database ten times; the second,
  // under assumptions, runs on the compacted database, in which every
  // clause has moved.
  Solver s;
  exact::OnehotEncoder encoder(s, tt::TruthTable::from_hex(5, "96696996"), 6);
  encoder.encode();
  const Result first = s.solve();
  ASSERT_EQ(first, Result::sat);
  EXPECT_EQ(s.stats().removed_clauses, 28440u);
  EXPECT_EQ(s.stats().reductions, 10u);
  // Forbid the first model's polarity of the first variables it set true.
  std::vector<Lit> assumptions;
  for (Var v = 0; v < s.num_vars() && assumptions.size() < 3; ++v) {
    if (s.model_value(v)) assumptions.push_back(lit(v, true));
  }
  expect_pin(s, s.solve(assumptions),
             {Result::sat, 35538, 52643, 4579898, 9371827081177583999ull});
}

}  // namespace
}  // namespace mighty::sat
