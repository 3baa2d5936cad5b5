#include "smt/context.hpp"

namespace mighty::smt {

using sat::Lit;
using sat::negate;

Context::Context(sat::Solver& solver) : solver_(solver) {
  true_lit_ = sat::lit(solver_.new_var());
  solver_.add_clause({true_lit_});
}

Lit Context::fresh() { return sat::lit(solver_.new_var()); }

Lit Context::make_and(Lit a, Lit b) {
  if (a == false_lit() || b == false_lit()) return false_lit();
  if (a == true_lit()) return b;
  if (b == true_lit()) return a;
  if (a == b) return a;
  if (a == negate(b)) return false_lit();
  const Lit y = fresh();
  solver_.add_clause({negate(y), a});
  solver_.add_clause({negate(y), b});
  solver_.add_clause({y, negate(a), negate(b)});
  return y;
}

Lit Context::make_or(Lit a, Lit b) { return negate(make_and(negate(a), negate(b))); }

Lit Context::make_maj(Lit a, Lit b, Lit c) {
  if (a == b) return a;
  if (b == c) return b;
  if (a == c) return a;
  if (a == negate(b)) return c;
  if (b == negate(c)) return a;
  if (a == negate(c)) return b;
  if (a == false_lit()) return make_and(b, c);
  if (a == true_lit()) return make_or(b, c);
  if (b == false_lit()) return make_and(a, c);
  if (b == true_lit()) return make_or(a, c);
  if (c == false_lit()) return make_and(a, b);
  if (c == true_lit()) return make_or(a, b);
  const Lit y = fresh();
  solver_.add_clause({negate(y), a, b});
  solver_.add_clause({negate(y), a, c});
  solver_.add_clause({negate(y), b, c});
  solver_.add_clause({y, negate(a), negate(b)});
  solver_.add_clause({y, negate(a), negate(c)});
  solver_.add_clause({y, negate(b), negate(c)});
  return y;
}

void Context::assert_implies_eq(Lit a, Lit b, Lit c) {
  solver_.add_clause({negate(a), negate(b), c});
  solver_.add_clause({negate(a), b, negate(c)});
}

}  // namespace mighty::smt
