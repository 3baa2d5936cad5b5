#include "mig/cuts.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace mighty::cuts {

bool Cut::subset_of(const Cut& other) const {
  if (size > other.size) return false;
  if ((signature & ~other.signature) != 0) return false;
  uint8_t j = 0;
  for (uint8_t i = 0; i < size; ++i) {
    while (j < other.size && other.leaves[j] < leaves[i]) ++j;
    if (j == other.size || other.leaves[j] != leaves[i]) return false;
  }
  return true;
}

bool merge_cuts(const Cut& a, const Cut& b, uint32_t k, Cut& out) {
  // Each leaf sets one signature bit, so the union has at least as many
  // leaves as the merged signature has bits: more than k bits is an
  // overflow without looking at the leaves.
  const uint64_t signature = a.signature | b.signature;
  if (static_cast<uint32_t>(std::popcount(signature)) > k) return false;
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

namespace {

/// Inserts `cut` into `set` unless dominated; removes cuts it dominates.
void insert_cut(std::vector<Cut>& set, const Cut& cut, uint32_t max_cuts) {
  for (const Cut& existing : set) {
    if (existing.subset_of(cut)) return;  // dominated (or duplicate)
  }
  std::erase_if(set, [&](const Cut& existing) { return cut.subset_of(existing); });
  if (max_cuts != 0 && set.size() >= max_cuts) return;
  set.push_back(cut);
}

Cut trivial_cut(uint32_t node) {
  Cut c;
  c.size = 1;
  c.leaves[0] = node;
  c.signature = Cut::hash_leaf(node);
  return c;
}

/// The merge kernel shared by global and shard-scoped enumeration: builds
/// gate n's cut set into `out` from its fanins' sets.  `forced_leaf(f)`
/// decides which fanins contribute only their trivial cut — the single
/// point where the two enumeration modes differ, kept as a predicate so the
/// kernels cannot drift apart (sharded cut sets must stay bit-identical to
/// global ones for the same boundary).
template <typename ForcedLeaf>
void build_node_cuts(const mig::Mig& mig, const CutEnumerationParams& params,
                     uint32_t n, ForcedLeaf&& forced_leaf,
                     const std::vector<std::vector<Cut>>& sets,
                     std::vector<Cut>& out) {
  auto fanin_set = [&](mig::Signal s) -> std::vector<Cut> {
    const uint32_t f = s.index();
    if (mig.is_constant(f)) return {Cut{}};  // empty cut: paths exempt
    if (forced_leaf(f)) return {trivial_cut(f)};
    return sets[f];
  };
  const auto& f = mig.fanins(n);
  const auto set0 = fanin_set(f[0]);
  const auto set1 = fanin_set(f[1]);
  const auto set2 = fanin_set(f[2]);

  Cut ab;
  Cut abc;
  for (const Cut& c0 : set0) {
    for (const Cut& c1 : set1) {
      if (!merge_cuts(c0, c1, params.cut_size, ab)) continue;
      for (const Cut& c2 : set2) {
        if (!merge_cuts(ab, c2, params.cut_size, abc)) continue;
        insert_cut(out, abc, params.max_cuts);
      }
    }
  }
  insert_cut(out, trivial_cut(n), /*max_cuts=*/0);
}

}  // namespace

std::vector<std::vector<Cut>> enumerate_cuts(const mig::Mig& mig,
                                             const CutEnumerationParams& params) {
  MIGHTY_ASSERT(params.cut_size <= Cut::max_size);
  std::vector<std::vector<Cut>> sets(mig.num_nodes());

  // The constant node contributes the empty cut, so that paths to it are
  // exempt from the covering requirement.
  sets[mig::Mig::constant_node] = {Cut{}};

  auto boundary_leaf = [&](uint32_t f) {
    return params.boundary != nullptr && f < params.boundary->size() &&
           (*params.boundary)[f];
  };
  for (uint32_t n = 1; n < mig.num_nodes(); ++n) {
    if (mig.is_pi(n)) {
      sets[n] = {trivial_cut(n)};
      continue;
    }
    build_node_cuts(mig, params, n, boundary_leaf, sets, sets[n]);
  }
  return sets;
}

void enumerate_cuts_scoped(const mig::Mig& mig, const CutEnumerationParams& params,
                           const std::vector<uint32_t>& scope,
                           std::vector<std::vector<Cut>>& sets) {
  MIGHTY_ASSERT(params.cut_size <= Cut::max_size);
  MIGHTY_ASSERT(sets.size() == mig.num_nodes());
  std::vector<bool> in_scope(mig.num_nodes(), false);
  for (const uint32_t n : scope) in_scope[n] = true;

  // Leaf decisions must never read another shard's slots: out-of-scope
  // fanins are cut off by value, exactly as the boundary mask would.
  auto forced_leaf = [&](uint32_t f) {
    return !in_scope[f] ||
           (params.boundary != nullptr && f < params.boundary->size() &&
            (*params.boundary)[f]);
  };
  for (const uint32_t n : scope) {
    MIGHTY_ASSERT(mig.is_gate(n));
    sets[n].clear();
    build_node_cuts(mig, params, n, forced_leaf, sets, sets[n]);
  }
}

uint64_t total_cut_count(const std::vector<std::vector<Cut>>& cut_sets) {
  uint64_t total = 0;
  for (const auto& set : cut_sets) total += set.size();
  return total;
}

}  // namespace mighty::cuts
