#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "exact/chain.hpp"
#include "tt/truth_table.hpp"

/// \file depth_table.hpp
/// \brief Exact minimum depth D(f) of every 4-variable function.
///
/// D(f) is computed in function space rather than by SAT: the set S_d of
/// functions realizable at depth <= d is grown level by level,
///   S_0 = constants and (complemented) projections,
///   S_{d+1} = { <abc> : a, b, c in S_d },
/// exploiting that sharing never reduces depth, so depth-optimal circuits may
/// be assumed to be trees.  Levels 1 and 2 are enumerated directly; from
/// level 3 on, each still-unknown function is tested by a reverse search:
/// f = <abc> constrains a, b, c bitwise once one operand is fixed
/// (rows where b = 1 force f = a|c, rows where b = 0 force f = a&c), and a
/// subcube-emptiness oracle over S_d (a 3^16 sum-over-subsets table) answers
/// the existence of the completing operand in O(1).
///
/// Every function also records one decomposition triple, so a witness chain
/// (a depth-optimal tree) can be reconstructed.

namespace mighty::exact {

class DepthTable {
public:
  /// Builds the table (a few seconds); prefer the shared instance().
  DepthTable();

  /// The process-wide table, built on first use.
  static const DepthTable& instance();

  /// Minimum depth of a function of up to 4 variables; functions with
  /// fewer variables are extended to 4.  Throws std::invalid_argument
  /// above 4 variables.
  uint32_t depth(const tt::TruthTable& f) const;

  /// A depth-optimal tree realization over 4 variables (constants and
  /// projections come back as zero-gate chains).  Same domain as depth().
  MigChain witness(const tt::TruthTable& f) const;

  /// Distribution: index = depth, value = number of 4-variable functions.
  std::vector<uint64_t> function_histogram() const;

private:
  static constexpr uint32_t kNumFunctions = 1u << 16;
  static constexpr uint8_t kUnknown = 0xff;

  RefLit build_witness(uint16_t bits, MigChain& chain) const;

  std::vector<uint8_t> depth_;
  /// Decomposition triple <a b c> per non-trivial function (function bits).
  std::vector<std::array<uint16_t, 3>> decomposition_;
};

}  // namespace mighty::exact
