#pragma once

#include <cstdint>
#include <vector>

#include "exact/database.hpp"
#include "tt/truth_table.hpp"

/// \file complexity.hpp
/// \brief Complexity measures of 4-variable MIGs (paper Table II).
///
/// Three measures over all NPN classes:
///   C(f)  combinational complexity: gates of a size-minimum MIG (Table I);
///   L(f)  length: operators in the smallest majority *expression* (tree);
///   D(f)  depth: longest root-to-terminal path of a depth-minimum MIG.
///
/// L is computed by dynamic programming in function space: cost-m functions
/// are exactly the majorities of three functions whose costs sum to m-1
/// (formulas share nothing, so costs add).  D is read from the function-space
/// depth table of `depth_table.hpp`.

namespace mighty::exact {

struct ComplexityRow {
  uint32_t value = 0;      ///< the measure (gate count / length / depth)
  uint32_t classes = 0;    ///< NPN classes with this value
  uint64_t functions = 0;  ///< functions (orbit sizes summed)
};

/// C(f) rows from the size-minimum database.
std::vector<ComplexityRow> size_distribution(const Database& db);

/// Minimum formula length of every function over `num_vars` variables
/// (num_vars <= 4), indexed by truth-table bits.
std::vector<uint8_t> compute_formula_lengths(uint32_t num_vars);

/// L(f) rows over the 4-variable NPN classes.
std::vector<ComplexityRow> length_distribution(const std::vector<uint8_t>& lengths);

/// D(f) rows over the 4-variable NPN classes, read from DepthTable.
std::vector<ComplexityRow> depth_distribution();

}  // namespace mighty::exact
