#pragma once

#include <array>
#include "util/assert.hpp"
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file truth_table.hpp
/// \brief Truth tables over up to six variables, packed into one 64-bit word.
///
/// This is the basic functional-representation substrate of the library.  All
/// cut functions handled by the functional-hashing optimizer have at most four
/// variables; six are supported so that the LUT mapper and the cut enumerator
/// can share the same type (the paper notes exhaustive cut enumeration is
/// feasible for k <= 6).

namespace mighty::tt {

/// A Boolean function of `num_vars` variables (0 <= num_vars <= 6) stored as a
/// bit string: bit `i` is the function value under the assignment whose j-th
/// variable equals the j-th bit of `i`.
class TruthTable {
public:
  static constexpr uint32_t max_vars = 6;

  /// Constructs the constant-zero function over zero variables.
  constexpr TruthTable() = default;

  /// Constructs a table over `num_vars` variables from raw bits; bits beyond
  /// the table length are discarded.
  constexpr explicit TruthTable(uint32_t num_vars, uint64_t bits = 0)
      : bits_(bits & length_mask(num_vars)), num_vars_(num_vars) {
    MIGHTY_ASSERT(num_vars <= max_vars);
  }

  /// The constant-`value` function over `num_vars` variables.
  static constexpr TruthTable constant(uint32_t num_vars, bool value) {
    return TruthTable(num_vars, value ? ~uint64_t{0} : 0);
  }

  /// The (possibly complemented) projection x_var over `num_vars` variables.
  static constexpr TruthTable projection(uint32_t num_vars, uint32_t var,
                                         bool complemented = false) {
    MIGHTY_ASSERT(var < num_vars);
    return TruthTable(num_vars, complemented ? ~var_mask(var) : var_mask(var));
  }

  /// The ternary majority of three equally sized tables.
  static constexpr TruthTable maj(const TruthTable& a, const TruthTable& b,
                                  const TruthTable& c) {
    MIGHTY_ASSERT(a.num_vars_ == b.num_vars_ && b.num_vars_ == c.num_vars_);
    return TruthTable(a.num_vars_,
                      (a.bits_ & b.bits_) | (a.bits_ & c.bits_) | (b.bits_ & c.bits_));
  }

  /// If-then-else: sel ? t : e.
  static constexpr TruthTable ite(const TruthTable& sel, const TruthTable& t,
                                  const TruthTable& e) {
    MIGHTY_ASSERT(sel.num_vars_ == t.num_vars_ && t.num_vars_ == e.num_vars_);
    return TruthTable(sel.num_vars_, (sel.bits_ & t.bits_) | (~sel.bits_ & e.bits_));
  }

  constexpr uint32_t num_vars() const { return num_vars_; }
  constexpr uint64_t bits() const { return bits_; }
  constexpr uint32_t num_bits() const { return 1u << num_vars_; }

  constexpr bool get_bit(uint32_t index) const {
    MIGHTY_ASSERT(index < num_bits());
    return (bits_ >> index) & 1;
  }
  constexpr void set_bit(uint32_t index, bool value) {
    MIGHTY_ASSERT(index < num_bits());
    bits_ = (bits_ & ~(uint64_t{1} << index)) | (uint64_t{value} << index);
  }

  constexpr TruthTable operator~() const {
    return TruthTable(num_vars_, ~bits_);
  }
  constexpr TruthTable operator&(const TruthTable& other) const {
    MIGHTY_ASSERT(num_vars_ == other.num_vars_);
    return TruthTable(num_vars_, bits_ & other.bits_);
  }
  constexpr TruthTable operator|(const TruthTable& other) const {
    MIGHTY_ASSERT(num_vars_ == other.num_vars_);
    return TruthTable(num_vars_, bits_ | other.bits_);
  }
  constexpr TruthTable operator^(const TruthTable& other) const {
    MIGHTY_ASSERT(num_vars_ == other.num_vars_);
    return TruthTable(num_vars_, bits_ ^ other.bits_);
  }
  constexpr bool operator==(const TruthTable& other) const {
    return num_vars_ == other.num_vars_ && bits_ == other.bits_;
  }
  constexpr bool operator!=(const TruthTable& other) const { return !(*this == other); }
  /// Numeric order on equally sized tables; used to pick NPN representatives
  /// ("the function with the smallest truth table", paper Sec. II-D).
  constexpr bool operator<(const TruthTable& other) const {
    MIGHTY_ASSERT(num_vars_ == other.num_vars_);
    return bits_ < other.bits_;
  }

  constexpr bool is_const0() const { return bits_ == 0; }
  constexpr bool is_const1() const { return bits_ == length_mask(num_vars_); }

  constexpr uint32_t count_ones() const { return __builtin_popcountll(bits_); }

  /// Complemented-or-plain complement handling: returns the table with the
  /// given output polarity (polarity false complements).
  constexpr TruthTable with_polarity(bool polarity) const {
    return polarity ? *this : ~*this;
  }

  /// Positive/negative cofactor w.r.t. variable `var`.  The result keeps the
  /// same variable count (the cofactored variable becomes irrelevant).
  constexpr TruthTable cofactor(uint32_t var, bool value) const {
    MIGHTY_ASSERT(var < num_vars_);
    const uint64_t m = var_mask(var);
    const uint32_t shift = 1u << var;
    uint64_t half = value ? (bits_ & m) : (bits_ & ~m);
    uint64_t b = value ? (half | (half >> shift)) : (half | (half << shift));
    return TruthTable(num_vars_, b);
  }

  /// True iff the function value depends on variable `var`.
  constexpr bool depends_on(uint32_t var) const {
    return cofactor(var, false) != cofactor(var, true);
  }

  /// Bitmask of the functional support: bit i set iff the function depends on
  /// variable i.
  constexpr uint32_t support_mask() const {
    uint32_t mask = 0;
    for (uint32_t v = 0; v < num_vars_; ++v) {
      if (depends_on(v)) mask |= 1u << v;
    }
    return mask;
  }
  constexpr uint32_t support_size() const { return __builtin_popcount(support_mask()); }

  /// Complements input variable `var` (x_var -> !x_var).
  constexpr TruthTable flip(uint32_t var) const {
    MIGHTY_ASSERT(var < num_vars_);
    const uint64_t m = var_mask(var);
    const uint32_t shift = 1u << var;
    return TruthTable(num_vars_, ((bits_ & m) >> shift) | ((bits_ & ~m) << shift));
  }

  /// Exchanges input variables `a` and `b` (one delta swap on the word).
  constexpr TruthTable swap_vars(uint32_t a, uint32_t b) const {
    MIGHTY_ASSERT(a < num_vars_ && b < num_vars_);
    if (a == b) return *this;
    if (b < a) std::swap(a, b);
    // Bits with x_a = 1, x_b = 0 trade places with those `shift` above them.
    const uint32_t shift = (1u << b) - (1u << a);
    const uint64_t low = var_mask(a) & ~var_mask(b);
    return TruthTable(num_vars_, (bits_ & ~(low | (low << shift))) |
                                     ((bits_ & low) << shift) | ((bits_ >> shift) & low));
  }

  /// Applies a full input permutation: in the result, variable `perm[i]`
  /// plays the role of original variable `i`; i.e.
  /// result(x_0..x_{n-1}) = f(x_{perm[0]}, ..., x_{perm[n-1]}).
  TruthTable permute(const std::array<uint8_t, max_vars>& perm) const;

  /// Re-expresses the function over `new_num_vars >= num_vars()` variables
  /// (added variables are irrelevant).
  TruthTable extend(uint32_t new_num_vars) const;

  /// Compacts the function onto its support.  Returns the reduced table and
  /// fills `old_vars` with, for each new variable index, the original
  /// variable index it came from.
  TruthTable shrink_to_support(std::vector<uint32_t>& old_vars) const;

  /// Hexadecimal string, most significant nibble first (kitty convention).
  std::string to_hex() const;
  /// Binary string, bit (2^n - 1) first.
  std::string to_binary() const;
  /// Parses a hex string for a table over `num_vars` variables.
  static TruthTable from_hex(uint32_t num_vars, const std::string& hex);

  /// Mask with the low 2^num_vars bits set.
  static constexpr uint64_t length_mask(uint32_t num_vars) {
    return num_vars == max_vars ? ~uint64_t{0}
                                : (uint64_t{1} << (uint64_t{1} << num_vars)) - 1;
  }

  /// The canonical bit pattern of projection variable `var` over 6 variables.
  static constexpr uint64_t var_mask(uint32_t var) {
    constexpr std::array<uint64_t, max_vars> masks = {
        0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
        0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
    return masks[var];
  }

private:
  uint64_t bits_ = 0;
  uint32_t num_vars_ = 0;
};

/// Evaluates the function on a single assignment given as a bitmask.
constexpr bool evaluate(const TruthTable& f, uint32_t assignment) {
  return f.get_bit(assignment);
}

}  // namespace mighty::tt
