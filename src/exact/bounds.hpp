#pragma once

#include <cstdint>

#include "exact/database.hpp"
#include "mig/mig.hpp"
#include "tt/truth_table.hpp"

/// \file bounds.hpp
/// \brief Size bounds: the upper bound of Theorem 2 with its constructive
/// witness, and a lower bound for exact synthesis read off the NPN-4
/// database.
///
/// Theorem 2 (paper Sec. V-B): for n >= 4,
///     C<>(n) <= 10 * (2^(n-4) - 1) + 7.
/// The proof is constructive: Shannon expansion
///     f = <1 <0 !x f_x0> <0 x f_x1>>
/// costs 3 gates per variable elimination (2 C(n) + 3 recurrence), bottoming
/// out at the exhaustive 4-variable database where the worst class needs 7
/// gates.  `build_shannon` realizes exactly this construction.

namespace mighty::exact {

/// The Theorem-2 bound for n >= 4.
constexpr uint64_t theorem2_bound(uint32_t n) {
  return 10 * ((uint64_t{1} << (n - 4)) - 1) + 7;
}

/// Builds f over `leaves` by Shannon expansion down to the 4-variable
/// database.  Returns the output signal; gate count can be read from the
/// target network.
mig::Signal build_shannon(const Database& db, const tt::TruthTable& f, mig::Mig& mig,
                          const std::vector<mig::Signal>& leaves);

/// Convenience: builds a fresh single-output MIG for f and returns its live
/// gate count.
uint32_t shannon_size(const Database& db, const tt::TruthTable& f);

/// A lower bound on the minimum MIG size of f (up to 5 variables): the
/// largest database size among the cofactors f|x_i=c.  Putting a constant
/// on an input of a k-gate MIG for f leaves an MIG of at most k gates for
/// the cofactor, and the database holds the exact minimum of every function
/// of at most 4 variables, so the bound is sound.  For f of support at most 4 it is f's own database size
/// (cofactoring a variable outside the support leaves f).  Ten lookups;
/// exact 5-input synthesis starts its size loop at the larger of this and
/// the support bound.
uint32_t cofactor_lower_bound(const Database& db, const tt::TruthTable& f);

}  // namespace mighty::exact
