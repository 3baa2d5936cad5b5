#pragma once

#include "sat/solver.hpp"

/// \file context.hpp
/// \brief Tseitin gadgets for building formulas on the CDCL solver.
///
/// Boolean connectives become fresh solver literals defined by clauses, with
/// constant and duplicate-operand folding, so callers write a formula
/// instead of hand-blasting its CNF.  The depth-minimum exact synthesis in
/// `exact/exact_synthesis.cpp` states its tree formulation on this layer.

namespace mighty::smt {

class Context {
public:
  explicit Context(sat::Solver& solver);

  sat::Solver& solver() { return solver_; }
  const sat::Solver& solver() const { return solver_; }

  /// The always-true / always-false literals.
  sat::Lit true_lit() const { return true_lit_; }
  sat::Lit false_lit() const { return sat::negate(true_lit_); }

  /// A fresh Boolean variable as a literal.
  sat::Lit fresh();

  // --- Boolean gadgets (Tseitin) ---------------------------------------------
  sat::Lit make_and(sat::Lit a, sat::Lit b);
  sat::Lit make_or(sat::Lit a, sat::Lit b);
  sat::Lit make_maj(sat::Lit a, sat::Lit b, sat::Lit c);

  // --- Assertions ---------------------------------------------------------------
  void assert_lit(sat::Lit l) { solver_.add_clause({l}); }
  /// a -> (b <-> c)
  void assert_implies_eq(sat::Lit a, sat::Lit b, sat::Lit c);

private:
  sat::Solver& solver_;
  sat::Lit true_lit_;
};

}  // namespace mighty::smt
