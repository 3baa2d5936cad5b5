#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exact/chain.hpp"
#include "exact/encoding_onehot.hpp"
#include "tt/truth_table.hpp"

/// \file exact_synthesis.hpp
/// \brief Minimum-size exact synthesis of MIGs (paper Sec. III).
///
/// Solves the decision problem "exists an MIG with k gates for f" for
/// k = min_gates, min_gates + 1, ... until satisfiable.  Minimum depth D(f)
/// is read from `DepthTable` (`depth_table.hpp`).

namespace mighty::exact {

struct SynthesisOptions {
  /// First gate count tried.  A caller that has already proven no smaller
  /// chain exists (k gates reach at most 2k + 1 inputs; earlier UNSAT
  /// answers) skips those decision problems; each remaining k is solved
  /// exactly as before, so the chain found does not depend on it.
  uint32_t min_gates = 1;
  uint32_t max_gates = 20;
  /// Conflict budget per decision problem; -1 = unlimited.
  int64_t conflict_limit = -1;
  EncodeOptions encode;
};

enum class SynthesisStatus {
  success,    ///< minimum chain found
  timeout,    ///< a decision problem exceeded the conflict budget
  exhausted,  ///< no solution within max_gates
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::exhausted;
  MigChain chain;  ///< valid iff status == success
  /// Conflicts spent per decision problem, indexed by gate count offset
  /// from the first gate count tried.
  std::vector<uint64_t> conflicts_per_step;
};

/// Finds a size-minimum MIG chain for f (up to 6 variables).
SynthesisResult synthesize_minimum_mig(const tt::TruthTable& f,
                                       const SynthesisOptions& options = {});

/// If f is constant or (complemented) projection, returns the trivial
/// zero-gate chain.
std::optional<MigChain> trivial_chain(const tt::TruthTable& f);

}  // namespace mighty::exact
