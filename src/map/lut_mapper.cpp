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

struct CutCost {
  Cut cut;
  uint32_t arrival = 0;
  double area_flow = 0.0;
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
  std::vector<double> area_flow(n, 0.0);
  std::vector<CutCost> candidates;  // reused across nodes and passes

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

      auto evaluate = [&](const Cut& cut) {
        CutCost cc;
        cc.cut = cut;
        uint32_t max_arrival = 0;
        double flow = 1.0;
        for (uint8_t i = 0; i < cut.size; ++i) {
          const uint32_t leaf = cut.leaves[i];
          max_arrival = std::max(max_arrival, mig.is_gate(leaf) ? arrival[leaf] + 1 : 1);
          if (mig.is_gate(leaf)) {
            flow += area_flow[leaf] / refs(leaf);
          }
        }
        cc.arrival = max_arrival;
        cc.area_flow = flow;
        return cc;
      };

      Cut ab;
      Cut abc;
      for (const Cut& c0 : set0) {
        for (const Cut& c1 : set1) {
          if (!cuts::merge_cuts(c0, c1, params.lut_size, ab)) continue;
          for (const Cut& c2 : set2) {
            if (!cuts::merge_cuts(ab, c2, params.lut_size, abc)) continue;
            const bool duplicate =
                std::any_of(candidates.begin(), candidates.end(), [&](const CutCost& c) {
                  return c.cut.signature == abc.signature && c.cut == abc;
                });
            if (!duplicate) candidates.push_back(evaluate(abc));
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
      std::sort(candidates.begin(), candidates.end(),
                [&](const CutCost& a, const CutCost& b) {
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
      num_ranked[v] =
          static_cast<uint32_t>(std::min<size_t>(candidates.size(), params.cut_limit));
      for (uint32_t i = 0; i < num_ranked[v]; ++i) {
        slots[v * stride + 1 + i] = candidates[i].cut;
      }
      arrival[v] = candidates.front().arrival;
      area_flow[v] = candidates.front().area_flow;
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
