#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "exact/chain.hpp"
#include "sat/solver.hpp"
#include "tt/truth_table.hpp"

/// \file encoding_onehot.hpp
/// \brief The exact-synthesis decision problem "is there an MIG with k
/// majority gates computing f?" (paper Sec. III, constraints (4)-(10)) as
/// CNF for the SAT core.
///
/// The paper states the problem over bit-vector select variables and solves
/// it with an SMT solver, which bit-blasts QF_BV onto SAT internally.  This
/// encoder blasts the selects one-hot directly; an encoder on the paper's
/// bit-vector formulation found the same minima 32x slower (see README).
///
/// The output-polarity variable p of the paper is omitted: by self-duality
/// <x1 x2 x3> = !<!x1 !x2 !x3>, the complement of a function has an MIG of the
/// same size, obtained by complementing the root's fanins (the paper makes
/// the same observation).

namespace mighty::exact {

struct EncodeOptions {
  /// Enforce s1 < s2 < s3 (paper eq. (10)); also rules out duplicate operands.
  bool operand_ordering = true;
  /// Every non-root gate must be referenced by a later gate.
  bool all_gates_used = true;
  /// For consecutive gates where the later one does not reference the
  /// earlier, require the largest operands to be non-decreasing (a relaxation
  /// of the colexicographic step ordering used in SAT-based exact synthesis;
  /// sound because adjacent independent steps can always be swapped into
  /// order).
  bool step_ordering = true;
  /// Every variable in the functional support must be selected by some gate.
  /// Implied by the function constraint (a chain that reads no v cannot
  /// depend on v), so it removes no solution, only changes how the solver
  /// searches.  The 5-input oracle turns it off, which is faster on its
  /// queries; the NPN-4 database build keeps it so its chains stay pinned.
  bool support_usage = true;
  /// Restrict every non-root gate to at most one complemented fanin.  Sound
  /// by self-duality: <!x !y !z> = !<xyz>, so a gate with two or more
  /// complemented fanins can be flipped, toggling the polarity of its fanout
  /// edges; the root absorbs the final complement in its own fanin
  /// polarities.
  bool polarity_normalization = true;
};

/// Direct CNF encoding of the exact-synthesis decision problem with one-hot
/// select variables.  Variable layout per gate l (0-based, k gates over n
/// inputs, rows j in [0, 2^n)):
///   s[l][c][i] : operand c of gate l selects domain value i, where
///                i = 0 is the constant, 1..n the inputs, n+1+m step m;
///   p[l][c]    : operand c of gate l is complemented;
///   a[l][c][j] : value of operand c of gate l on row j (paper eq. (6)-(8));
///   b[l][j]    : output value of gate l on row j (paper eq. (4), (9)).
class OnehotEncoder {
public:
  OnehotEncoder(sat::Solver& solver, const tt::TruthTable& f, uint32_t num_gates,
                const EncodeOptions& options = {});

  /// Emits all clauses into the solver.
  void encode();
  /// Reads the chain out of the solver model (only after Result::sat).
  MigChain extract() const;

private:
  uint32_t domain_size(uint32_t l) const { return 1 + n_ + l; }

  sat::Solver& solver_;
  tt::TruthTable f_;
  uint32_t k_;
  uint32_t n_;
  uint32_t rows_;
  EncodeOptions options_;

  std::vector<std::array<std::vector<sat::Var>, 3>> s_;
  std::vector<std::array<sat::Var, 3>> p_;
  std::vector<std::array<std::vector<sat::Var>, 3>> a_;
  std::vector<std::vector<sat::Var>> b_;
};

}  // namespace mighty::exact
