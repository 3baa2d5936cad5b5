#pragma once

#include <cstdint>

#include "exact/database.hpp"
#include "mig/mig.hpp"
#include "tt/truth_table.hpp"

/// \file bounds.hpp
/// \brief Size bounds: the upper bound of Theorem 2 with its constructive
/// witness, and a lower bound for exact synthesis read off the NPN-4
/// database by restriction and first-gate elimination.
///
/// Theorem 2 (paper Sec. V-B): for n >= 4,
///     C<>(n) <= 10 * (2^(n-4) - 1) + 7.
/// The proof is constructive: Shannon expansion
///     f = <1 <0 !x f_x0> <0 x f_x1>>
/// costs 3 gates per variable elimination (2 C(n) + 3 recurrence), bottoming
/// out at the exhaustive 4-variable database where the worst class needs 7
/// gates.  `build_shannon` realizes exactly this construction, and
/// `shannon_chain` returns it as a chain: an upper bound on C(f) that meets
/// `size_lower_bound` for most 5-input classes that rewriting queries.

namespace mighty::exact {

/// The Theorem-2 bound for n >= 4.
constexpr uint64_t theorem2_bound(uint32_t n) {
  return 10 * ((uint64_t{1} << (n - 4)) - 1) + 7;
}

/// Builds f over `leaves` by Shannon expansion on the top variable, down to
/// the 4-variable database.  Returns the output signal; gate count can be
/// read from the target network.
mig::Signal build_shannon(const Database& db, const tt::TruthTable& f, mig::Mig& mig,
                          const std::vector<mig::Signal>& leaves);

/// The Theorem-2 witness for f as a chain: `build_shannon` into a temporary
/// MIG (whose structural hashing shares common gates of the two cofactors),
/// read back as the output's live cone in topological order.  Its size is
/// an upper bound on C(f); where it meets `size_lower_bound` it is a
/// proven minimum, which is how the 5-input oracle answers most classes
/// without SAT.
MigChain shannon_chain(const Database& db, const tt::TruthTable& f);

/// `shannon_chain(db, f).size()`.
uint32_t shannon_size(const Database& db, const tt::TruthTable& f);

/// A lower bound on the minimum MIG size C(f) of f (up to 5 variables),
/// read off the NPN-4 database over the ten cofactors f|x_a=c and the
/// twenty variable identifications f[x_a:=x_b] and f[x_a:=!x_b] (a < b).
/// With CO_a = max(C(f|x_a=0), C(f|x_a=1)) and
/// W_ab = max(C(f[x_a:=x_b]), C(f[x_a:=!x_b])) the bound is
///
///     max( max_a CO_a, max_ab W_ab,
///          1 + min( min_{a<b} max(W_ab, CO_a, CO_b),
///                   min_{a<b<c} max(W_ab, W_ac, W_bc) ) ).
///
/// *Restriction.*  Putting a constant on an input of a k-gate MIG for f, or
/// wiring one input to another in either polarity, leaves an MIG of at most
/// k gates for the cofactor or the identification, and the database holds
/// the exact minimum of every function of at most 4 variables; so C(f) is at
/// least every CO_a and every W_ab.
///
/// *First-gate elimination.*  A function of support >= 2 needs a gate.  Take
/// a minimum MIG for f; we may assume it reads only support variables (a
/// constant in place of any other input still computes f) and has no
/// degenerate gate (one with two equal or complementary fanins, or two
/// constant fanins, is a wire, and removing it does not grow the MIG).  Its
/// first gate in topological order then reads two or three distinct
/// variables and at most one constant.  If it reads literals of x_a, x_b and
/// x_c, identifying any two of them in either polarity makes two fanins equal
/// or complementary, so the gate becomes a wire and the identified function
/// has an MIG of k - 1 gates: W_ab, W_ac and W_bc are all at most k - 1.  If
/// it reads literals of x_a and x_b and a constant, the same holds for W_ab,
/// and either cofactor of x_a (or of x_b) makes the gate a constant or a
/// wire: CO_a and CO_b are at most k - 1.  Either way k exceeds one of the
/// terms the minimum ranges over.
///
/// The bound never exceeds C(f).  For f of support at most 4 it is f's own
/// database size (cofactoring a variable outside the support leaves f).
/// Thirty lookups; exact 5-input synthesis starts its size loop at the
/// larger of this and the support bound.
uint32_t size_lower_bound(const Database& db, const tt::TruthTable& f);

}  // namespace mighty::exact
