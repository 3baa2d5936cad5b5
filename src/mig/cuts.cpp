#include "mig/cuts.hpp"

#include <algorithm>
#include <span>

#include "tt/truth_table.hpp"
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

namespace {

/// Inserts `cut` into `set` unless dominated; removes cuts it dominates.
/// Returns whether `cut` was appended.
bool insert_cut(std::vector<Cut>& set, const Cut& cut, uint32_t max_cuts) {
  for (const Cut& existing : set) {
    if (existing.subset_of(cut)) return false;  // dominated (or duplicate)
  }
  std::erase_if(set, [&](const Cut& existing) { return cut.subset_of(existing); });
  if (max_cuts != 0 && set.size() >= max_cuts) return false;
  set.push_back(cut);
  return true;
}

/// The constant node's only cut: paths to it are exempt.
const Cut kEmptyCut{};

Cut trivial_cut(uint32_t node) {
  Cut c;
  c.size = 1;
  c.leaves[0] = node;
  c.signature = Cut::hash_leaf(node);
  c.function = tt::TruthTable::var_mask(0);
  return c;
}

/// The function of fanin edge `s` with cut `sub` over the leaves of `cut`
/// (a superset of sub's): each variable moves to its leaf's position, from
/// the last down, so every swap lands on a variable the function ignores.
uint64_t fanin_function(mig::Signal s, const Cut& sub, const Cut& cut) {
  tt::TruthTable f(tt::TruthTable::max_vars, sub.function);
  uint8_t j = cut.size;
  for (uint8_t i = sub.size; i-- > 0;) {
    do {
      --j;
    } while (cut.leaves[j] != sub.leaves[i]);
    f = f.swap_vars(i, j);
  }
  return s.is_complemented() ? ~f.bits() : f.bits();
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
  const auto& f = mig.fanins(n);
  std::array<Cut, 3> trivial;
  std::array<std::span<const Cut>, 3> fanin_sets;
  for (uint32_t i = 0; i < 3; ++i) {
    const uint32_t node = f[i].index();
    if (mig.is_constant(node)) {
      fanin_sets[i] = {&kEmptyCut, 1};
    } else if (forced_leaf(node)) {
      trivial[i] = trivial_cut(node);
      fanin_sets[i] = {&trivial[i], 1};
    } else {
      fanin_sets[i] = sets[node];
    }
  }

  Cut ab;
  Cut abc;
  for (const Cut& c0 : fanin_sets[0]) {
    for (const Cut& c1 : fanin_sets[1]) {
      if (!merge_cuts(c0, c1, params.cut_size, ab)) continue;
      for (const Cut& c2 : fanin_sets[2]) {
        if (!merge_cuts(ab, c2, params.cut_size, abc)) continue;
        if (!insert_cut(out, abc, params.max_cuts)) continue;
        const uint64_t x = fanin_function(f[0], c0, abc);
        const uint64_t y = fanin_function(f[1], c1, abc);
        const uint64_t z = fanin_function(f[2], c2, abc);
        out.back().function = (x & y) | (x & z) | (y & z);
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
  sets[mig::Mig::constant_node] = {kEmptyCut};

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
