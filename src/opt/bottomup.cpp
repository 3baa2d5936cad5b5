#include <algorithm>
#include <array>
#include <unordered_map>

#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "opt/oracle.hpp"
#include "opt/rewrite.hpp"
#include "tt/truth_table.hpp"
#include "util/thread_pool.hpp"

/// Bottom-up functional hashing (paper Algorithm 2): dynamic programming in
/// topological order.  For every node a bounded list of candidate
/// implementations in the new network is maintained; cuts are replaced by
/// database minima over every (capped) combination of leaf candidates, and
/// each output finally picks its best candidate.
///
/// Both modes run the same per-node step and differ only in scope.  Global
/// mode runs it over every live gate into one network.  FFR mode confines
/// cuts to fanout-free regions and commits the candidate list of every region
/// root to its single best entry (so downstream users share one
/// implementation).  A region's DP therefore needs only the committed (size,
/// depth) of the regions feeding it — never their structure — which yields a
/// wave schedule: regions of equal dependency level run concurrently, each
/// building its candidates in a private network, and a deterministic
/// sequential splice replays every region's committed implementation into
/// the result in fixed topological order.  The outcome is bit-identical for
/// every thread count.

namespace mighty::opt {

namespace {

struct Candidate {
  mig::Signal sig;
  uint32_t size = 0;   ///< accumulated-new-gates estimate (tree accounting)
  uint32_t depth = 0;  ///< estimated level in the new network
};

/// Keeps the candidate list sorted by (size, depth) and bounded.
void insert_candidate(std::vector<Candidate>& list, const Candidate& c,
                      uint32_t max_candidates) {
  for (auto& existing : list) {
    if (existing.sig == c.sig) {
      // Same implementation reached twice: keep the better accounting.
      if (c.size < existing.size || (c.size == existing.size && c.depth < existing.depth)) {
        existing.size = c.size;
        existing.depth = c.depth;
      }
      std::sort(list.begin(), list.end(), [](const Candidate& a, const Candidate& b) {
        return a.size != b.size ? a.size < b.size : a.depth < b.depth;
      });
      return;
    }
  }
  list.push_back(c);
  std::sort(list.begin(), list.end(), [](const Candidate& a, const Candidate& b) {
    return a.size != b.size ? a.size < b.size : a.depth < b.depth;
  });
  if (list.size() > max_candidates) list.resize(max_candidates);
}

/// The per-node step of the DP, shared by both modes: a baseline candidate
/// over the fanins' best candidates, then, for every cut with a known
/// replacement, one candidate per (capped) combination of leaf candidates.
/// `cand(n)` returns node n's candidate list; every fanin and leaf of `v`
/// already has one.  New candidates are built into `net`.
template <typename Lookup>
void expand_node(const mig::Mig& mig, ReplacementOracle& oracle,
                 const RewriteParams& params, const std::vector<cuts::Cut>& cut_set,
                 uint32_t v, uint32_t level, mig::Mig& net, Lookup&& cand,
                 RewriteCounters& counters) {
  auto& list = cand(v);

  // Baseline candidate: rebuild the node over its fanins' best candidates.
  {
    const auto& f = mig.fanins(v);
    const Candidate& c0 = cand(f[0].index()).front();
    const Candidate& c1 = cand(f[1].index()).front();
    const Candidate& c2 = cand(f[2].index()).front();
    Candidate base;
    base.sig = net.create_maj(c0.sig ^ f[0].is_complemented(),
                              c1.sig ^ f[1].is_complemented(),
                              c2.sig ^ f[2].is_complemented());
    base.size = 1 + c0.size + c1.size + c2.size;
    base.depth = 1 + std::max({c0.depth, c1.depth, c2.depth});
    insert_candidate(list, base, params.max_candidates);
  }

  // Reused across cuts and combinations.
  std::array<uint32_t, cuts::Cut::max_size> radix{};
  std::array<const Candidate*, cuts::Cut::max_size> chosen{};
  std::vector<mig::Signal> leaf_signals;
  for (const auto& cut : cut_set) {
    if (cut.size == 1 && cut.leaves[0] == v) continue;
    const auto& leaves = cut.leaves;
    ++counters.cuts_evaluated;
    const tt::TruthTable f(cut.size, cut.function);
    const auto info = oracle.query(f, params.tally);
    if (!info) continue;

    // Iterate (capped) combinations of leaf candidates in mixed radix.
    uint64_t total = 1;
    for (size_t i = 0; i < cut.size; ++i) {
      radix[i] = static_cast<uint32_t>(cand(leaves[i]).size());
      total *= radix[i];
    }
    total = std::min<uint64_t>(total, params.max_combinations);
    leaf_signals.resize(cut.size);
    for (uint64_t combo = 0; combo < total; ++combo) {
      uint64_t rem = combo;
      uint32_t size = info->size;
      for (size_t i = 0; i < cut.size; ++i) {
        chosen[i] = &cand(leaves[i])[rem % radix[i]];
        rem /= radix[i];
        leaf_signals[i] = chosen[i]->sig;
        size += chosen[i]->size;
      }
      // Depth estimate through the replacement's input-to-output paths.
      uint32_t depth = 0;
      for (size_t lv = 0; lv < cut.size; ++lv) {
        if (info->input_depths[lv] < 0) continue;
        depth = std::max(depth, chosen[lv]->depth +
                                    static_cast<uint32_t>(info->input_depths[lv]));
      }
      if (params.depth_preserving && depth > level) continue;
      Candidate c;
      c.sig = oracle.instantiate(f, net, leaf_signals, params.tally);
      c.size = size;
      c.depth = depth;
      insert_candidate(list, c, params.max_candidates);
      ++counters.replacements;
    }
  }
}

/// One region's DP result: the committed implementation of its root as a
/// private network over the region's inputs, ready to be spliced.
struct RegionOutcome {
  mig::Mig net;                  ///< private network; PI j realizes inputs[j]
  std::vector<uint32_t> inputs;  ///< original node ids feeding the region
  mig::Signal chosen;            ///< committed root implementation in `net`
  uint32_t size = 0;             ///< committed tree-size accounting
  uint32_t depth = 0;            ///< committed depth accounting
  RewriteCounters counters;
};

/// Runs the candidate DP of one region.  Reads only the original network,
/// the shared cut sets and the committed (size, depth) of lower-wave
/// regions; builds into its own private network.
RegionOutcome process_region(const mig::Mig& mig, ReplacementOracle& oracle,
                             const RewriteParams& params,
                             const std::vector<std::vector<cuts::Cut>>& cut_sets,
                             const std::vector<uint32_t>& levels,
                             const std::vector<uint32_t>& committed_size,
                             const std::vector<uint32_t>& committed_depth,
                             const std::vector<uint32_t>& members) {
  RegionOutcome outcome;
  const uint32_t root = members.back();  // largest index = the region root

  outcome.inputs = shard::region_inputs(mig, members);
  std::unordered_map<uint32_t, std::vector<Candidate>> cand;
  for (const uint32_t f : outcome.inputs) {
    cand.emplace(f, std::vector<Candidate>{{outcome.net.create_pi(),
                                            committed_size[f], committed_depth[f]}});
  }
  cand.emplace(mig::Mig::constant_node,
               std::vector<Candidate>{{outcome.net.get_constant(false), 0, 0}});

  const auto lookup = [&](uint32_t n) -> std::vector<Candidate>& { return cand.at(n); };
  for (const uint32_t v : members) {
    cand.try_emplace(v);
    expand_node(mig, oracle, params, cut_sets[v], v, levels[v], outcome.net, lookup,
                outcome.counters);
  }

  // Commit the root to its single best implementation; the PO confines the
  // splice to its cone.
  const Candidate& best = cand.at(root).front();
  outcome.chosen = best.sig;
  outcome.size = best.size;
  outcome.depth = best.depth;
  outcome.net.create_po(best.sig);
  return outcome;
}

/// FFR mode: wave-parallel region DP, then a deterministic splice.
mig::Mig rewrite_bottom_up_ffr(const mig::Mig& mig, ReplacementOracle& oracle,
                               const RewriteParams& params, RewriteStats& stats) {
  const auto partition = ffr::compute_ffrs(mig);
  const auto boundary = ffr::ffr_boundary(partition);
  const auto cut_params = rewrite_cut_params(params, &boundary);
  const auto levels = mig.compute_levels();

  const uint32_t parallelism = params.pool ? params.pool->parallelism() : 1;
  const auto plan =
      shard::plan_ffr_shards(mig, partition, parallelism > 1 ? parallelism * 4 : 1);

  // Cut sets for every live gate, enumerated shard-parallel (disjoint slots).
  std::vector<std::vector<cuts::Cut>> cut_sets(mig.num_nodes());
  auto enumerate_shard = [&](size_t s) {
    enumerate_cuts_scoped(mig, cut_params, plan.shards[s].nodes, cut_sets);
  };
  if (params.pool != nullptr) {
    params.pool->parallel_for(plan.shards.size(), enumerate_shard);
  } else {
    for (size_t s = 0; s < plan.shards.size(); ++s) enumerate_shard(s);
  }

  const auto regions = shard::collect_region_members(mig, partition);
  const auto& live_roots = regions.live_roots;
  const auto& region_index = regions.region_index;
  const auto& members = regions.members;

  // Wave schedule: regions grouped by dependency level.
  const auto region_level = shard::region_levels(mig, partition);
  uint32_t max_level = 0;
  for (const uint32_t root : live_roots) {
    max_level = std::max(max_level, region_level[root]);
  }
  std::vector<std::vector<uint32_t>> waves(max_level + 1);
  for (const uint32_t root : live_roots) {
    waves[region_level[root]].push_back(region_index[root]);
  }

  std::vector<RegionOutcome> outcomes(live_roots.size());
  std::vector<uint32_t> committed_size(mig.num_nodes(), 0);
  std::vector<uint32_t> committed_depth(mig.num_nodes(), 0);
  for (const auto& wave : waves) {
    auto run_region = [&](size_t i) {
      const uint32_t r = wave[i];
      outcomes[r] = process_region(mig, oracle, params, cut_sets, levels,
                                   committed_size, committed_depth, members[r]);
      const uint32_t root = live_roots[r];
      committed_size[root] = outcomes[r].size;
      committed_depth[root] = outcomes[r].depth;
    };
    if (params.pool != nullptr) {
      params.pool->parallel_for(wave.size(), run_region);
    } else {
      for (size_t i = 0; i < wave.size(); ++i) run_region(i);
    }
  }

  // Splice: replay every region's committed cone into the result in fixed
  // topological (= root) order, so structural hashing re-establishes the
  // sharing across regions that one shared network would have had.
  mig::Mig result;
  std::vector<mig::Signal> committed_sig(mig.num_nodes(), result.get_constant(false));
  for (uint32_t i = 0; i < mig.num_pis(); ++i) {
    committed_sig[1 + i] = result.create_pi();
  }
  for (const uint32_t root : live_roots) {
    const RegionOutcome& outcome = outcomes[region_index[root]];
    committed_sig[root] = shard::splice_region(outcome.net, outcome.inputs,
                                               outcome.chosen, committed_sig, result);
    stats.cuts_evaluated += outcome.counters.cuts_evaluated;
    stats.replacements += outcome.counters.replacements;
  }
  for (const mig::Signal o : mig.outputs()) {
    result.create_po(committed_sig[o.index()] ^ o.is_complemented());
  }
  return result;
}

}  // namespace

mig::Mig rewrite_bottom_up(const mig::Mig& mig, ReplacementOracle& oracle,
                           const RewriteParams& params, RewriteStats& stats) {
  if (params.ffr_partition) {
    return rewrite_bottom_up_ffr(mig, oracle, params, stats);
  }

  const auto cut_sets = cuts::enumerate_cuts(mig, rewrite_cut_params(params, nullptr));
  const auto levels = mig.compute_levels();

  mig::Mig result;
  std::vector<std::vector<Candidate>> cand(mig.num_nodes());
  cand[mig::Mig::constant_node] = {{result.get_constant(false), 0, 0}};
  for (uint32_t i = 0; i < mig.num_pis(); ++i) {
    cand[1 + i] = {{result.create_pi(), 0, 0}};
  }

  const auto lookup = [&](uint32_t n) -> std::vector<Candidate>& { return cand[n]; };
  RewriteCounters counters;
  const auto live = mig.live_mask();
  for (uint32_t v = 0; v < mig.num_nodes(); ++v) {
    if (!mig.is_gate(v) || !live[v]) continue;
    expand_node(mig, oracle, params, cut_sets[v], v, levels[v], result, lookup,
                counters);
  }
  stats.cuts_evaluated += counters.cuts_evaluated;
  stats.replacements += counters.replacements;

  for (const mig::Signal o : mig.outputs()) {
    const Candidate& best = cand[o.index()].front();
    result.create_po(best.sig ^ o.is_complemented());
  }
  return result;
}

}  // namespace mighty::opt
