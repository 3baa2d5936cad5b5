#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exact/chain.hpp"
#include "exact/encoding_onehot.hpp"
#include "tt/truth_table.hpp"

/// \file exact_synthesis.hpp
/// \brief Minimum-size and minimum-depth exact synthesis of MIGs (paper
/// Sec. III).
///
/// Size-minimum synthesis solves the decision problem "exists an MIG with k
/// gates for f" for k = min_gates, min_gates + 1, ... until satisfiable.  Depth-minimum
/// synthesis (used for the D(f) column of Table II) solves a complete-ternary-
/// tree formulation for increasing depth; sharing never reduces depth, so a
/// depth-optimal formula is also a depth-optimal circuit.

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
  /// If set, the chain is re-simulated and checked against f after
  /// extraction (cheap; on by default as a safety net).
  bool verify = true;
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

struct DepthSynthesisOptions {
  uint32_t max_depth = 6;
  int64_t conflict_limit = -1;
  /// Force the SAT tree formulation even for <= 4 variables (slow; the
  /// default path uses the exhaustive function-space depth table).
  bool use_sat = false;
};

struct DepthSynthesisResult {
  SynthesisStatus status = SynthesisStatus::exhausted;
  uint32_t depth = 0;
  MigChain chain;  ///< a depth-minimal realization (as a tree)
};

/// Finds the minimum depth D(f) over all MIGs for f, together with a witness.
DepthSynthesisResult synthesize_minimum_depth_mig(const tt::TruthTable& f,
                                                  const DepthSynthesisOptions& options = {});

}  // namespace mighty::exact
