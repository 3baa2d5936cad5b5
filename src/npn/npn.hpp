#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tt/truth_table.hpp"

/// \file npn.hpp
/// \brief Exact NPN classification for functions of up to five variables.
///
/// Two functions are NPN-equivalent if one can be obtained from the other by
/// Negating inputs, Permuting inputs and/or Negating the output (paper
/// Sec. II-D).  The canonical representative of a class is the member with the
/// numerically smallest truth table.  canonize() enumerates the full
/// transformation group (n! * 2^n * 2 elements: 768 for n = 4, 7680 for
/// n = 5) on the raw truth-table word: one permutation per n! and one
/// variable flip per negation mask.  The NPN-4 database keys its 222 classes
/// by these representatives, and the 5-input oracle cache keys the classes
/// it discovers the same way.

namespace mighty::npn {

/// An NPN transformation.  Applying it to a function f yields
///   h(x_0, ..., x_{n-1}) = f(y_0, ..., y_{n-1}) ^ output_negation,
/// where y_i = x_{perm[i]} ^ input_negation_bit(i); i.e. original input i of f
/// is driven by (possibly complemented) variable perm[i] of the result.
struct Transform {
  std::array<uint8_t, tt::TruthTable::max_vars> perm{0, 1, 2, 3, 4, 5};
  uint8_t input_negations = 0;  ///< bit i complements original input i
  bool output_negation = false;
  uint8_t num_vars = 0;

  bool operator==(const Transform&) const = default;
};

/// Applies a transformation to a function.
tt::TruthTable apply(const tt::TruthTable& f, const Transform& t);

/// The transformation t' with apply(apply(f, t), t') == f for every f.
Transform inverse(const Transform& t);

/// Result of canonization: `representative == apply(f, transform)` and
/// `f == apply(representative, inverse(transform))`.
struct CanonResult {
  tt::TruthTable representative;
  Transform transform;
};

/// Exact (exhaustive) NPN canonization; requires f.num_vars() <= 5.  The
/// transform is the first one reaching the representative in the order
/// permutation (lexicographic, as all_permutations lists them), input
/// negation mask (ascending), output negation (off, then on).
CanonResult canonize(const tt::TruthTable& f);

/// All NPN class representatives over exactly `num_vars` variables, sorted
/// numerically.  For num_vars = 0..4 the class counts are 2, 2, 4, 14, 222.
std::vector<tt::TruthTable> enumerate_classes(uint32_t num_vars);

/// All permutations of {0, ..., n-1} (identity-extended to max_vars entries).
std::vector<std::array<uint8_t, tt::TruthTable::max_vars>> all_permutations(uint32_t n);

/// Number of distinct functions in the NPN orbit of f (requires <= 4 vars).
uint64_t orbit_size(const tt::TruthTable& f);

}  // namespace mighty::npn
