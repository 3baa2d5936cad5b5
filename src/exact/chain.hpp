#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mig/mig.hpp"
#include "npn/npn.hpp"
#include "tt/truth_table.hpp"

/// \file chain.hpp
/// \brief Compact MIG "chains": the result format of exact synthesis.
///
/// A chain is a straight-line majority program: step m computes the majority
/// of three (possibly complemented) references to the constant, the input
/// variables, or earlier steps.  This mirrors the node list extracted from a
/// satisfying assignment in Theorem 1 of the paper, and is the storage format
/// of the precomputed-optimum database.

namespace mighty::exact {

/// Reference literal encoding: `2 * ref + complemented` with
/// ref 0 = constant 0, refs 1..n = inputs x_1..x_n, ref n+1+m = step m.
using RefLit = uint16_t;

constexpr RefLit make_ref_lit(uint32_t ref, bool complemented) {
  return static_cast<RefLit>(2 * ref + (complemented ? 1 : 0));
}
constexpr uint32_t ref_of(RefLit l) { return l >> 1; }
constexpr bool ref_complemented(RefLit l) { return (l & 1) != 0; }

struct MigChain {
  uint32_t num_vars = 0;
  struct Step {
    std::array<RefLit, 3> fanin{};
    bool operator==(const Step&) const = default;
  };
  std::vector<Step> steps;
  /// Output literal (for trivial functions it may reference a terminal).
  RefLit output = 0;

  bool operator==(const MigChain&) const = default;

  uint32_t size() const { return static_cast<uint32_t>(steps.size()); }

  /// Truth table over num_vars variables computed by the chain.
  tt::TruthTable simulate() const;

  /// Longest path from the output to a terminal, in visited steps; equals the
  /// MIG depth of the chain when instantiated as a tree/DAG.
  uint32_t depth() const;

  /// Per-step levels (terminals at level 0).
  std::vector<uint32_t> step_levels() const;

  /// Builds the chain inside an MIG, with `inputs[i]` standing for x_{i+1};
  /// `inputs` must provide at least num_vars signals.  Returns the output
  /// signal.  Structural hashing in the target MIG may share steps.
  mig::Signal instantiate(mig::Mig& mig, const std::vector<mig::Signal>& inputs) const;

  /// Serialization to/from one text line (used by the database file format).
  std::string to_string() const;
  static MigChain from_string(const std::string& line);
};

/// A chain stored once for an NPN class representative, read through the
/// transform of one member of the class: the member's function is
/// npn::apply(chain->simulate(), to_member).  The NPN-4 database and the
/// 5-input oracle cache both answer this way — a canonical key maps to one
/// stored chain, and every query carries its own transform.
struct ClassChain {
  const MigChain* chain = nullptr;
  npn::Transform to_member;

  /// The member variable that drives chain input i.
  uint32_t leaf(uint32_t i) const { return to_member.perm[i]; }

  /// Builds the member's function inside `mig` from the stored chain, read
  /// in place: `leaves[v]` drives member variable v (missing leaves read
  /// constant 0), complemented where the transform says so.
  mig::Signal instantiate(mig::Mig& mig, const std::vector<mig::Signal>& leaves) const;

  /// A chain realizing the member's function directly: the stored chain
  /// with its inputs and its output relabelled.
  MigChain materialize() const;
};

}  // namespace mighty::exact
