#include "map/lut_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

namespace mighty::map {

namespace {

using cuts::Cut;

/// A candidate's ranking key: what the ranking compares, plus the
/// candidate's position, so the sort moves 16 bytes instead of a cut.
struct RankKey {
  uint32_t arrival = 0;
  double area_flow = 0.0;
  uint32_t index = 0;
};

/// What a ranked node costs a cut that uses it as a leaf.
struct LeafCost {
  uint32_t arrival = 1;
  double area_flow = 0.0;  ///< area flow shared over the node's references
};

/// The distinct cuts merged at one node, in first-occurrence order, with an
/// open-addressed index over them.  Slots carry a stamp, so clear() is O(1).
class CutSet {
public:
  const std::vector<Cut>& cuts() const { return cuts_; }

  void clear() {
    cuts_.clear();
    if (++stamp_ == 0) {  // wrapped: old stamps would read as current
      std::fill(slots_.begin(), slots_.end(), Slot{});
      stamp_ = 1;
    }
  }

  /// Appends `cut` unless an equal cut is already in the set; returns
  /// whether it was appended.
  bool insert(const Cut& cut) {
    if (2 * (cuts_.size() + 1) > slots_.size()) grow();
    const size_t slot = find(cut);
    if (slots_[slot].stamp == stamp_) return false;
    slots_[slot] = {stamp_, static_cast<uint32_t>(cuts_.size())};
    cuts_.push_back(cut);
    return true;
  }

private:
  struct Slot {
    uint32_t stamp = 0;
    uint32_t index = 0;
  };

  /// The slot holding `cut`, or the free slot where it belongs.
  size_t find(const Cut& cut) const {
    uint64_t h = cut.size;
    for (uint8_t i = 0; i < cut.size; ++i) h = (h ^ cut.leaves[i]) * 0x9e3779b97f4a7c15ull;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = (h ^ (h >> 32)) & mask;; slot = (slot + 1) & mask) {
      if (slots_[slot].stamp != stamp_ || cuts_[slots_[slot].index] == cut) return slot;
    }
  }

  void grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), Slot{});
    stamp_ = 1;
    for (uint32_t i = 0; i < cuts_.size(); ++i) slots_[find(cuts_[i])] = {stamp_, i};
  }

  std::vector<Cut> cuts_;
  std::vector<Slot> slots_;
  uint32_t stamp_ = 1;
};

}  // namespace

MappingResult map_luts(const mig::Mig& mig, const MapParams& params) {
  // A majority gate has three fanins, so a LUT narrower than three inputs
  // covers none; wider ones would overrun Cut::leaves.
  if (params.lut_size < 3 || params.lut_size > Cut::max_size) {
    // Appended piecewise: an operator+ chain trips a GCC 12 -Wrestrict
    // false positive here.
    std::string what = "LUT size ";
    what += std::to_string(params.lut_size);
    what += " outside 3..";
    what += std::to_string(Cut::max_size);
    throw std::invalid_argument(what);
  }
  if (params.cut_limit == 0) {
    throw std::invalid_argument("cut limit must be at least 1");
  }
  const uint32_t n = mig.num_nodes();
  // Node v's cut set lives in slots [v * stride, v * stride + 1 + num_ranked[v]):
  // slot 0 is what v contributes as a fanin by itself (its trivial cut; the
  // empty cut for the constant node, whose paths are exempt), followed by
  // v's ranked cuts for the current pass, best first.  Fanin sets are read
  // in place from here.
  const size_t stride = size_t{params.cut_limit} + 1;
  std::vector<Cut> slots(n * stride);
  std::vector<uint32_t> num_ranked(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    if (mig.is_constant(v)) continue;
    Cut& trivial = slots[v * stride];
    trivial.size = 1;
    trivial.leaves[0] = v;
    trivial.signature = Cut::hash_leaf(v);
  }
  auto best_cut = [&](uint32_t v) -> const Cut& { return slots[v * stride + 1]; };
  std::vector<uint32_t> arrival(n, 0);
  // Set when a gate is ranked; the defaults are the terminals' (a leaf
  // arriving at level 1 whose area is free).
  std::vector<LeafCost> leaf_cost(n);
  // Reused across nodes and passes.
  CutSet candidates;  // distinct three-way merges, in first-occurrence order
  std::vector<RankKey> keys;

  const auto fanout = mig.compute_fanout_counts();
  auto refs = [&](uint32_t v) { return std::max<uint32_t>(1, fanout[v]); };

  std::vector<uint32_t> required(n, std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> prev_arrival(n, 0);
  bool have_required = false;
  uint32_t target_depth = 0;

  // Extracts the cover induced by the current best cuts.
  auto extract_cover = [&]() {
    MappingResult result;
    std::vector<bool> needed(n, false);
    std::vector<uint32_t> stack;
    for (const mig::Signal o : mig.outputs()) {
      if (mig.is_gate(o.index()) && !needed[o.index()]) {
        needed[o.index()] = true;
        stack.push_back(o.index());
      }
    }
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      const Cut& cut = best_cut(v);
      std::vector<uint32_t> leaves;
      for (uint8_t i = 0; i < cut.size; ++i) {
        const uint32_t leaf = cut.leaves[i];
        leaves.push_back(leaf);
        if (mig.is_gate(leaf) && !needed[leaf]) {
          needed[leaf] = true;
          stack.push_back(leaf);
        }
      }
      result.cover.emplace_back(v, std::move(leaves));
    }
    result.num_luts = static_cast<uint32_t>(result.cover.size());
    // Depth over the cover (ascending node order = topological).
    std::sort(result.cover.begin(), result.cover.end());
    std::vector<uint32_t> level(n, 0);
    for (const auto& [v, leaves] : result.cover) {
      uint32_t max_level = 0;
      for (const uint32_t leaf : leaves) {
        max_level = std::max(max_level, level[leaf]);
      }
      level[v] = max_level + 1;
    }
    for (const mig::Signal o : mig.outputs()) {
      result.depth = std::max(result.depth, level[o.index()]);
    }
    return result;
  };

  // The best cover seen across all passes is returned: the area-flow
  // heuristic usually improves the cover, but on some structures a recovery
  // pass is a net loss, and taking the per-pass optimum makes the rounds
  // monotone.
  MappingResult best;
  bool have_best = false;

  const uint32_t total_passes = 1 + params.area_rounds;
  for (uint32_t pass = 0; pass < total_passes; ++pass) {
    const bool area_mode = pass > 0;

    for (uint32_t v = 0; v < n; ++v) {
      if (!mig.is_gate(v)) continue;
      candidates.clear();
      keys.clear();

      // Merge fanin cut sets (each fanin contributes its trivial cut plus
      // its ranked cuts).
      auto fanin_cuts = [&](mig::Signal s) {
        const Cut* first = &slots[s.index() * stride];
        return std::span<const Cut>(first, 1 + num_ranked[s.index()]);
      };
      const auto& f = mig.fanins(v);
      const auto set0 = fanin_cuts(f[0]);
      const auto set1 = fanin_cuts(f[1]);
      const auto set2 = fanin_cuts(f[2]);

      Cut ab;
      Cut abc;
      for (const Cut& c0 : set0) {
        for (const Cut& c1 : set1) {
          if (!cuts::merge_cuts(c0, c1, params.lut_size, ab)) continue;
          for (const Cut& c2 : set2) {
            if (!cuts::merge_cuts(ab, c2, params.lut_size, abc) || !candidates.insert(abc)) {
              continue;
            }
            RankKey key;
            key.area_flow = 1.0;
            for (uint8_t i = 0; i < abc.size; ++i) {
              const LeafCost& leaf = leaf_cost[abc.leaves[i]];
              key.arrival = std::max(key.arrival, leaf.arrival);
              key.area_flow += leaf.area_flow;
            }
            key.index = static_cast<uint32_t>(keys.size());
            keys.push_back(key);
          }
        }
      }

      // Rank cuts for this pass; in area mode, cuts violating the required
      // time are pushed to the back.  Nodes outside the previous cover have
      // no propagated requirement; they are capped at their previous arrival
      // so that a later pass can still choose them as leaves without
      // degrading the mapping depth.
      const uint32_t req =
          !have_required
              ? std::numeric_limits<uint32_t>::max()
              : (required[v] == std::numeric_limits<uint32_t>::max() ? prev_arrival[v]
                                                                     : required[v]);
      std::sort(keys.begin(), keys.end(), [&](const RankKey& a, const RankKey& b) {
        if (area_mode) {
          const bool a_ok = a.arrival <= req;
          const bool b_ok = b.arrival <= req;
          if (a_ok != b_ok) return a_ok;
          if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
          return a.arrival < b.arrival;
        }
        if (a.arrival != b.arrival) return a.arrival < b.arrival;
        return a.area_flow < b.area_flow;
      });
      num_ranked[v] = static_cast<uint32_t>(std::min<size_t>(keys.size(), params.cut_limit));
      for (uint32_t i = 0; i < num_ranked[v]; ++i) {
        slots[v * stride + 1 + i] = candidates.cuts()[keys[i].index];
      }
      arrival[v] = keys.front().arrival;
      leaf_cost[v] = {arrival[v] + 1, keys.front().area_flow / refs(v)};
    }

    // Compute the mapping depth and required times for the next pass.
    prev_arrival = arrival;
    target_depth = 0;
    for (const mig::Signal o : mig.outputs()) {
      if (mig.is_gate(o.index())) target_depth = std::max(target_depth, arrival[o.index()]);
    }
    required.assign(n, std::numeric_limits<uint32_t>::max());
    for (const mig::Signal o : mig.outputs()) {
      if (mig.is_gate(o.index())) required[o.index()] = target_depth;
    }
    for (uint32_t v = n; v-- > 0;) {
      if (!mig.is_gate(v) || required[v] == std::numeric_limits<uint32_t>::max()) continue;
      const Cut& cut = best_cut(v);
      for (uint8_t i = 0; i < cut.size; ++i) {
        const uint32_t leaf = cut.leaves[i];
        if (!mig.is_gate(leaf)) continue;
        required[leaf] = std::min(required[leaf], required[v] - 1);
      }
    }
    have_required = true;

    const MappingResult cover = extract_cover();
    if (!have_best || cover.depth < best.depth ||
        (cover.depth == best.depth && cover.num_luts < best.num_luts)) {
      best = cover;
      have_best = true;
    }
  }

  return best;
}

}  // namespace mighty::map
