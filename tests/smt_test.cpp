#include "smt/context.hpp"

#include <gtest/gtest.h>

namespace mighty::smt {
namespace {

TEST(SmtTest, TrueAndFalseLiterals) {
  sat::Solver solver;
  Context ctx(solver);
  ASSERT_EQ(solver.solve(), sat::Result::sat);
  EXPECT_TRUE(solver.model_value_lit(ctx.true_lit()));
  EXPECT_FALSE(solver.model_value_lit(ctx.false_lit()));
}

TEST(SmtTest, BooleanGadgets) {
  for (int i = 0; i < 8; ++i) {
    const bool x = (i & 1) != 0;
    const bool y = (i & 2) != 0;
    const bool z = (i & 4) != 0;
    sat::Solver solver;
    Context ctx(solver);
    const auto constant = [&](bool value) { return value ? ctx.true_lit() : ctx.false_lit(); };
    const auto lx = constant(x);
    const auto ly = constant(y);
    const auto lz = constant(z);
    const auto g_and = ctx.make_and(lx, ly);
    const auto g_or = ctx.make_or(lx, ly);
    const auto g_maj = ctx.make_maj(lx, ly, lz);
    ASSERT_EQ(solver.solve(), sat::Result::sat);
    EXPECT_EQ(solver.model_value_lit(g_and), x && y);
    EXPECT_EQ(solver.model_value_lit(g_or), x || y);
    EXPECT_EQ(solver.model_value_lit(g_maj), (x && y) || (x && z) || (y && z));
  }
}

TEST(SmtTest, GadgetsWithFreeVariables) {
  // maj(a, b, c) = 1 and a = 0 forces b = c = 1.
  sat::Solver solver;
  Context ctx(solver);
  const auto a = ctx.fresh();
  const auto b = ctx.fresh();
  const auto c = ctx.fresh();
  ctx.assert_lit(ctx.make_maj(a, b, c));
  ctx.assert_lit(sat::negate(a));
  ASSERT_EQ(solver.solve(), sat::Result::sat);
  EXPECT_TRUE(solver.model_value_lit(b));
  EXPECT_TRUE(solver.model_value_lit(c));
}

TEST(SmtTest, ImpliesEq) {
  sat::Solver solver;
  Context ctx(solver);
  const auto cond = ctx.fresh();
  const auto x = ctx.fresh();
  const auto y = ctx.fresh();
  ctx.assert_implies_eq(cond, x, y);
  ctx.assert_lit(cond);
  ctx.assert_lit(x);
  ASSERT_EQ(solver.solve(), sat::Result::sat);
  EXPECT_TRUE(solver.model_value_lit(y));
}

}  // namespace
}  // namespace mighty::smt
