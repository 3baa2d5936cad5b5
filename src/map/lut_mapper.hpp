#pragma once

#include <cstdint>
#include <vector>

#include "mig/cuts.hpp"
#include "mig/mig.hpp"

/// \file lut_mapper.hpp
/// \brief Priority-cut k-LUT technology mapping.
///
/// Table IV of the paper maps the optimized MIGs with ABC and reports
/// area/depth; the EPFL best-result protocol measures 6-input LUT count and
/// LUT depth.  This module implements the classic priority-cuts mapper
/// (Mishchenko, Cho, Chatterjee, Brayton, ICCAD'07 -- the paper's ref. [11]):
/// a delay-optimal first pass followed by area-flow recovery passes under
/// required-time constraints, and a cover extraction.

namespace mighty::map {

struct MapParams {
  /// LUT inputs, 3..cuts::Cut::max_size.
  uint32_t lut_size = 6;
  /// Priority cuts kept per node, at least 1.
  uint32_t cut_limit = 8;
  /// Area-recovery passes after the delay-optimal pass.
  uint32_t area_rounds = 2;
};

struct MappingResult {
  uint32_t num_luts = 0;
  uint32_t depth = 0;
  /// Chosen cover: for every mapped root, its cut leaves (node indices).
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> cover;
};

/// Throws std::invalid_argument when `params` is outside the ranges above.
MappingResult map_luts(const mig::Mig& mig, const MapParams& params = {});

}  // namespace mighty::map
