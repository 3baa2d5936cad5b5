#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

/// \file solver.hpp
/// \brief A self-contained CDCL SAT solver.
///
/// The paper solves its exact-synthesis decision problems with the SMT solver
/// Z3 over quantifier-free bit-vectors.  Z3 decides such instances by
/// bit-blasting to propositional SAT; this module provides the SAT engine for
/// our reproduction of that pipeline (see `exact/encoding_onehot.hpp` for the
/// bit-blasted encoding).
///
/// Features: two-literal watching, first-UIP conflict analysis with clause
/// minimization, VSIDS decision heuristic with phase saving, Luby restarts,
/// and LBD-based learnt-clause database reduction.
///
/// Clause storage is the MiniSat layout: every clause lives inline in one
/// flat arena of 32-bit words (a two-word header holding size, learnt flag
/// and LBD, the literals, then a learnt clause's activity), addressed by its
/// word offset.  Watchers of binary clauses are marked, and such clauses
/// propagate from the watcher's blocker alone without touching the arena.
/// Assignment values are indexed by literal.  None of this changes the
/// search: watch order, clause literal order and activity bump order are
/// those of the straightforward vector-of-clauses layout.

namespace mighty::sat {

using Var = int32_t;
using Lit = int32_t;

/// Builds a literal from a variable; `negated` selects the negative phase.
constexpr Lit lit(Var v, bool negated = false) { return v * 2 + (negated ? 1 : 0); }
constexpr Lit negate(Lit l) { return l ^ 1; }
constexpr Var var_of(Lit l) { return l >> 1; }
constexpr bool is_negated(Lit l) { return (l & 1) != 0; }

enum class Result { sat, unsat, unknown };

/// Aggregate statistics of a solver instance, exposed for the benchmarks.
struct SolverStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learnt_clauses = 0;
  uint64_t removed_clauses = 0;
  /// Learnt-clause database reductions (arena compactions).
  uint64_t reductions = 0;
};

class Solver {
public:
  Solver();

  /// Creates a fresh variable and returns its index.
  Var new_var();

  /// Seeds the VSIDS activity of a variable; encoders use this to steer the
  /// first decisions toward structural variables.
  void boost_activity(Var v, double amount);
  int num_vars() const { return static_cast<int>(level_.size()); }
  int num_clauses() const { return num_problem_clauses_; }
  const SolverStats& stats() const { return stats_; }

  /// Adds a clause; returns false if the formula became trivially
  /// unsatisfiable (conflict at decision level zero).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solves under the given assumptions.  A non-negative `conflict_limit`
  /// bounds the search effort and may yield Result::unknown.
  Result solve(const std::vector<Lit>& assumptions = {}, int64_t conflict_limit = -1);

  /// Model access; valid only after solve() returned Result::sat.
  bool model_value(Var v) const { return model_[static_cast<size_t>(v)] > 0; }
  bool model_value_lit(Lit l) const { return model_value(var_of(l)) != is_negated(l); }

private:
  /// Word offset of a clause in `arena_`.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = UINT32_MAX;

  // Clause layout in the arena: [size << 1 | learnt] [lbd] lits...
  // followed, for a learnt clause, by its activity as two words.
  static constexpr uint32_t kHeaderWords = 2;
  static constexpr uint32_t kActivityWords = sizeof(double) / sizeof(uint32_t);

  struct Watcher {
    uint32_t cref : 31;
    uint32_t binary : 1;  ///< the clause is binary; `blocker` is its other literal
    Lit blocker;
  };

  uint32_t clause_size(ClauseRef c) const { return arena_[c] >> 1; }
  bool clause_learnt(ClauseRef c) const { return (arena_[c] & 1) != 0; }
  uint32_t clause_lbd(ClauseRef c) const { return arena_[c + 1]; }
  // Lit and uint32_t are the signed/unsigned pair of one type, which may alias.
  Lit* clause_lits(ClauseRef c) { return reinterpret_cast<Lit*>(&arena_[c + kHeaderWords]); }
  const Lit* clause_lits(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + kHeaderWords]);
  }
  double clause_activity(ClauseRef c) const;
  void set_clause_activity(ClauseRef c, double activity);
  ClauseRef next_clause(ClauseRef c) const {
    return c + kHeaderWords + clause_size(c) + (clause_learnt(c) ? kActivityWords : 0);
  }
  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt, uint32_t lbd);

  // Assignment values: 0 = unassigned, 1 = true, -1 = false.
  int8_t value_var(Var v) const { return vals_[static_cast<size_t>(lit(v))]; }
  int8_t value_lit(Lit l) const { return vals_[static_cast<size_t>(l)]; }

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  void attach_clause(ClauseRef cref);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel);
  bool literal_redundant(Lit l, uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch_literal();
  void reduce_db();
  void bump_var(Var v);
  void bump_clause(ClauseRef c);
  void decay_var_activity() { var_inc_ *= (1.0 / 0.95); }
  void rescale_var_activity();
  int compute_lbd(std::span<const Lit> lits);
  static uint64_t luby(uint64_t i);

  // Heap-ordered-by-activity variable selection.
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);
  bool heap_contains(Var v) const { return heap_index_[static_cast<size_t>(v)] >= 0; }

  bool ok_ = true;
  std::vector<uint32_t> arena_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<int8_t> vals_;                   // indexed by literal
  std::vector<int8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<int> heap_index_;

  std::vector<int8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> add_buffer_;        // add_clause's sorted copy
  std::vector<uint64_t> level_stamp_;  // compute_lbd's per-level marks
  uint64_t lbd_stamp_ = 0;

  std::vector<int8_t> model_;
  int num_problem_clauses_ = 0;
  double cla_inc_ = 1.0;
  uint64_t next_reduce_ = 4000;
  uint64_t reduce_increment_ = 300;
  SolverStats stats_;
};

}  // namespace mighty::sat
