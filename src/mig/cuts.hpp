#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mig/mig.hpp"

/// \file cuts.hpp
/// \brief k-feasible cut enumeration (paper Sec. II-C).
///
/// For a node v, a cut (v, L) is a set of leaves such that every path from v
/// to a terminal visits a leaf (paths to the constant node are exempt).  All
/// k-feasible cuts are generated bottom-up through the saturating union
/// `cuts(g1) (x)k cuts(g2) (x)k cuts(g3)`; the paper notes exhaustive
/// enumeration is feasible for k <= 6.  The optimizer uses k = 4.

namespace mighty::cuts {

/// A cut: sorted leaf node indices plus a Bloom signature for fast
/// subset/overflow tests, and (from enumerate_cuts) the root's function.
struct Cut {
  static constexpr uint32_t max_size = 6;

  std::array<uint32_t, max_size> leaves{};
  uint8_t size = 0;
  uint64_t signature = 0;
  /// The root's function over the leaves as a 6-variable word (variable i
  /// is leaves[i]; `tt::TruthTable(size, function)` reads it), computed
  /// while merging.  Every cut of an exhaustive enumeration (max_cuts = 0)
  /// is minimal, and its function equals mig::simulate_cut.  A capped
  /// enumeration may keep a non-minimal cut, whose function can differ from
  /// simulate_cut's on leaf assignments the network cannot produce.
  /// Trivial cuts hold x0 and the constant's empty cut 0.  Cuts built by
  /// merge_cuts alone (the LUT mapper's) leave it unset.
  uint64_t function = 0;

  bool operator==(const Cut& other) const {
    if (size != other.size) return false;
    for (uint8_t i = 0; i < size; ++i) {
      if (leaves[i] != other.leaves[i]) return false;
    }
    return true;
  }

  /// True iff this cut's leaves are a subset of `other`'s (=> dominates it).
  bool subset_of(const Cut& other) const;

  /// The leaves as a vector (for interfacing with simulate_cut).
  std::vector<uint32_t> leaf_vector() const {
    return std::vector<uint32_t>(leaves.begin(), leaves.begin() + size);
  }

  static uint64_t hash_leaf(uint32_t leaf) { return uint64_t{1} << (leaf % 64); }
};

/// Number of set bits, branch-free.  std::popcount compiles to a library
/// call for the baseline x86-64 target, and merge_cuts counts signature bits
/// in the innermost loops of cut enumeration and mapping.
constexpr uint32_t popcount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Merges two sorted cuts; returns false if the union exceeds `k` leaves
/// (then `out` is unspecified).  Requires k <= Cut::max_size.  Inline: the
/// enumerator and the LUT mapper call it in their innermost loops.
inline bool merge_cuts(const Cut& a, const Cut& b, uint32_t k, Cut& out) {
  // Each leaf sets one signature bit, so the union has at least as many
  // leaves as the merged signature has bits: more than k bits is an
  // overflow without looking at the leaves.
  const uint64_t signature = a.signature | b.signature;
  if (popcount64(signature) > k) return false;
  out.size = 0;
  out.signature = signature;
  uint8_t i = 0;
  uint8_t j = 0;
  while (i < a.size || j < b.size) {
    uint32_t next;
    if (j == b.size || (i < a.size && a.leaves[i] <= b.leaves[j])) {
      if (i < a.size && j < b.size && a.leaves[i] == b.leaves[j]) ++j;
      next = a.leaves[i++];
    } else {
      next = b.leaves[j++];
    }
    if (out.size == k) return false;
    out.leaves[out.size++] = next;
  }
  return true;
}

struct CutEnumerationParams {
  uint32_t cut_size = 4;
  /// Maximum cuts stored per node besides the trivial cut (0 = exhaustive).
  uint32_t max_cuts = 0;
  /// Optional mask of nodes that must not appear as cut-internal nodes: when
  /// such a node feeds a gate, only its trivial cut propagates upward.  Used
  /// to confine cuts to fanout-free regions (paper Sec. IV-C).
  const std::vector<bool>* boundary = nullptr;
};

/// Per-node cut sets, indexed by node id.  The constant node has the single
/// empty cut; PIs have their trivial cut.  Each gate's set also holds its
/// trivial cut {v}, which merging upward needs and the optimizer skips.
std::vector<std::vector<Cut>> enumerate_cuts(const mig::Mig& mig,
                                             const CutEnumerationParams& params = {});

/// Shard-scoped enumeration: computes cut sets for exactly the gates in
/// `scope` (ascending node ids), writing each gate's set into `sets[gate]`.
/// Fanins outside the scope — and boundary nodes inside it — contribute only
/// their trivial cut (the constant node its empty cut), so a scope that is a
/// union of whole fanout-free regions reproduces, for its own nodes, exactly
/// what enumerate_cuts would compute over the full network with the same
/// boundary.  `sets` must be sized to mig.num_nodes(); concurrent calls over
/// disjoint scopes may share it, since each call touches only its own slots.
void enumerate_cuts_scoped(const mig::Mig& mig, const CutEnumerationParams& params,
                           const std::vector<uint32_t>& scope,
                           std::vector<std::vector<Cut>>& sets);

/// Total number of cuts across all nodes (reporting helper).
uint64_t total_cut_count(const std::vector<std::vector<Cut>>& cut_sets);

}  // namespace mighty::cuts
