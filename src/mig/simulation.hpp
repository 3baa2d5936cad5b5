#pragma once

#include <cstdint>
#include <vector>

#include "mig/mig.hpp"
#include "tt/truth_table.hpp"

/// \file simulation.hpp
/// \brief Bit-parallel simulation of MIGs.
///
/// Two flavours: full truth-table simulation for networks with at most six
/// inputs (used by the exact-synthesis tests and as the cut-function reference),
/// and 64-pattern word simulation for large networks (used by the
/// equivalence checker and the generators' validation tests).

namespace mighty::mig {

/// Simulates every node over the given 64-bit input patterns (one word per
/// PI).  Returns one word per node; complemented outputs must be resolved by
/// the caller through `resolve`.
std::vector<uint64_t> simulate_words(const Mig& mig, const std::vector<uint64_t>& pi_words);

/// The value of a signal given a node-indexed word vector.
inline uint64_t resolve(const std::vector<uint64_t>& words, Signal s) {
  return s.is_complemented() ? ~words[s.index()] : words[s.index()];
}

/// Simulates the whole network symbolically; requires num_pis() <= 6.
/// Returns one truth table (over num_pis variables) per node.
std::vector<tt::TruthTable> simulate_truth_tables(const Mig& mig);

/// Truth tables of the primary outputs; requires num_pis() <= 6.
std::vector<tt::TruthTable> output_truth_tables(const Mig& mig);

/// The local function of `root` expressed over the given leaves (at most six).
/// Every path from `root` to a terminal must pass through a leaf (i.e.
/// (root, leaves) is a cut, paper Sec. II-C); paths to the constant node are
/// exempt.  Cut enumeration computes the same function while merging
/// (cuts::Cut::function); this is the reference it is tested against.
tt::TruthTable simulate_cut(const Mig& mig, uint32_t root,
                            const std::vector<uint32_t>& leaves);

}  // namespace mighty::mig
