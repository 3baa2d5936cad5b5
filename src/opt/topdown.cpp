#include <optional>

#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "opt/oracle.hpp"
#include "opt/rewrite.hpp"
#include "tt/truth_table.hpp"
#include "util/thread_pool.hpp"

/// Top-down functional hashing (paper Algorithm 1): starting from the
/// outputs, greedily replace the cut with the best size reduction and recur
/// on its leaves; where no cut improves, copy the node and recur on the
/// fanins.  Implemented as an explicit two-phase pass (plan top-down, build
/// bottom-up) so deep networks cannot overflow the stack.
///
/// Both modes run the same planning walk and differ only in scope.  Global
/// mode walks every gate reachable from the outputs.  FFR mode confines cuts
/// to fanout-free regions and walks each region from its root, so the plan
/// chosen for a node depends only on its own region (plus the shared
/// read-only oracle), never on planning order.  The driver therefore plans
/// balanced shards of whole regions concurrently and merges by a
/// deterministic sequential rebuild, which makes the result bit-identical
/// for every thread count.

namespace mighty::opt {

namespace {

struct Plan {
  bool replace = false;
  bool visited = false;  ///< the planning walk reached this node
  std::vector<uint32_t> leaves;
  tt::TruthTable func;  ///< cut function over the leaves
};

/// Chooses the best replacement cut for `v`, or nullopt to keep the node.
std::optional<Plan> choose_plan(const mig::Mig& mig, ReplacementOracle& oracle,
                                const RewriteParams& params,
                                const std::vector<cuts::Cut>& cut_set,
                                const std::vector<uint32_t>& fanout,
                                const std::vector<uint32_t>& levels, uint32_t v,
                                RewriteCounters& counters) {
  int best_gain = 0;
  std::optional<Plan> best;
  for (const auto& cut : cut_set) {
    if (cut.size == 1 && cut.leaves[0] == v) continue;  // trivial cut
    const auto leaves = cut.leaf_vector();
    const auto cone = cut_cone(mig, v, leaves);
    // In global mode, discard cuts whose internal nodes have external
    // fanout (paper Sec. IV-C, first option); FFR cuts are confined by
    // construction.
    if (!params.ffr_partition && !cone_is_replaceable(mig, cone, v, fanout)) {
      continue;
    }
    ++counters.cuts_evaluated;
    // Only a chain smaller than the cone by more than the best gain so far
    // can win, so the oracle need not look beyond that size (for 5-input
    // cuts it stops the synthesis there).  Bounding the query never changes
    // the plan: whatever it leaves out would fail the gain test anyway.
    const int max_size = static_cast<int>(cone.size()) - best_gain - 1;
    if (max_size < 0) continue;
    const tt::TruthTable f(cut.size, cut.function);
    const auto info = oracle.query(f, params.tally, static_cast<uint32_t>(max_size));
    if (!info) continue;
    const int gain = static_cast<int>(cone.size()) - static_cast<int>(info->size);
    if (gain <= best_gain) continue;
    if (params.depth_preserving) {
      // Estimated level of the replacement root (paper Sec. IV-A: discard
      // cuts whose minimum MIG locally increases the depth).
      uint32_t new_level = 0;
      for (uint32_t lv = 0; lv < leaves.size(); ++lv) {
        if (info->input_depths[lv] < 0) continue;
        new_level = std::max(new_level, levels[leaves[lv]] +
                                            static_cast<uint32_t>(info->input_depths[lv]));
      }
      if (new_level > levels[v]) continue;
    }
    best_gain = gain;
    best = Plan{true, true, leaves, f};
  }
  return best;
}

/// Phase 1 shared by both modes: walks top-down from `stack`, choosing for
/// every reached node in scope its best replacement cut.  The choice for a
/// node never depends on other nodes' choices, only on which nodes the walk
/// reaches.  Reads and writes only the plan slots of nodes in scope (the
/// scope test comes first), so walks over disjoint scopes run concurrently.
template <typename InScope>
void plan_walk(const mig::Mig& mig, ReplacementOracle& oracle,
               const RewriteParams& params,
               const std::vector<std::vector<cuts::Cut>>& cut_sets,
               const std::vector<uint32_t>& fanout, const std::vector<uint32_t>& levels,
               std::vector<uint32_t> stack, InScope&& in_scope, std::vector<Plan>& plans,
               RewriteCounters& counters) {
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (!in_scope(v) || plans[v].visited) continue;
    plans[v].visited = true;

    auto best = choose_plan(mig, oracle, params, cut_sets[v], fanout, levels, v,
                            counters);
    if (best) {
      plans[v] = std::move(*best);
      ++counters.replacements;
      for (const uint32_t l : plans[v].leaves) stack.push_back(l);
    } else {
      for (const mig::Signal s : mig.fanins(v)) stack.push_back(s.index());
    }
  }
}

/// Phase 2 shared by both modes: walk the plans from the outputs to find the
/// needed nodes, then rebuild in ascending (= topological) node order.
mig::Mig rebuild_from_plans(const mig::Mig& mig, ReplacementOracle& oracle,
                            const std::vector<Plan>& plans,
                            OracleTally* tally) {
  std::vector<int8_t> needed(mig.num_nodes(), 0);
  std::vector<uint32_t> stack;
  for (const mig::Signal o : mig.outputs()) stack.push_back(o.index());
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (needed[v]) continue;
    needed[v] = 1;
    if (!mig.is_gate(v)) continue;
    if (plans[v].replace) {
      for (const uint32_t l : plans[v].leaves) stack.push_back(l);
    } else {
      for (const mig::Signal s : mig.fanins(v)) stack.push_back(s.index());
    }
  }

  mig::Mig result;
  std::vector<mig::Signal> map(mig.num_nodes(), result.get_constant(false));
  for (uint32_t i = 0; i < mig.num_pis(); ++i) {
    map[1 + i] = result.create_pi();
  }
  for (uint32_t v = 0; v < mig.num_nodes(); ++v) {
    if (!needed[v] || !mig.is_gate(v)) continue;
    if (plans[v].replace) {
      std::vector<mig::Signal> leaf_signals;
      leaf_signals.reserve(plans[v].leaves.size());
      for (const uint32_t l : plans[v].leaves) leaf_signals.push_back(map[l]);
      map[v] = oracle.instantiate(plans[v].func, result, leaf_signals, tally);
    } else {
      const auto& f = mig.fanins(v);
      map[v] = result.create_maj(map[f[0].index()] ^ f[0].is_complemented(),
                                 map[f[1].index()] ^ f[1].is_complemented(),
                                 map[f[2].index()] ^ f[2].is_complemented());
    }
  }
  for (const mig::Signal o : mig.outputs()) {
    result.create_po(map[o.index()] ^ o.is_complemented());
  }
  return result;
}

/// FFR mode: plan shards of whole regions concurrently, then rebuild.
///
/// Every live region is planned, including the rare region that ends up
/// unreachable because every replacement referencing its root bypassed it.
/// That is deliberate: reachability-under-plans is only known after planning,
/// so skipping such regions would reintroduce a sequential dependency (and
/// thread-count-dependent stats).  The cost is bounded by the region's cut
/// work and shows up identically at every thread count.
mig::Mig rewrite_top_down_ffr(const mig::Mig& mig, ReplacementOracle& oracle,
                              const RewriteParams& params, RewriteStats& stats) {
  const auto partition = ffr::compute_ffrs(mig);
  const auto boundary = ffr::ffr_boundary(partition);
  const auto cut_params = rewrite_cut_params(params, &boundary);
  const auto fanout = mig.compute_fanout_counts();
  const auto levels = mig.compute_levels();

  const uint32_t parallelism = params.pool ? params.pool->parallelism() : 1;
  // A few shards per thread lets the dynamic scheduler even out skewed
  // region sizes; the plan itself never affects the result.
  const auto plan =
      shard::plan_ffr_shards(mig, partition, parallelism > 1 ? parallelism * 4 : 1);

  std::vector<std::vector<cuts::Cut>> cut_sets(mig.num_nodes());
  std::vector<Plan> plans(mig.num_nodes());
  std::vector<RewriteCounters> counters(plan.shards.size());
  auto run_shard = [&](size_t s) {
    const auto& shard = plan.shards[s];
    enumerate_cuts_scoped(mig, cut_params, shard.nodes, cut_sets);
    for (const uint32_t root : shard.roots) {
      const auto in_region = [&](uint32_t n) {
        return mig.is_gate(n) && partition.region_root[n] == root;
      };
      plan_walk(mig, oracle, params, cut_sets, fanout, levels, {root}, in_region,
                plans, counters[s]);
    }
  };
  if (params.pool != nullptr) {
    params.pool->parallel_for(plan.shards.size(), run_shard);
  } else {
    for (size_t s = 0; s < plan.shards.size(); ++s) run_shard(s);
  }
  for (const auto& c : counters) {
    stats.cuts_evaluated += c.cuts_evaluated;
    stats.replacements += c.replacements;
  }
  return rebuild_from_plans(mig, oracle, plans, params.tally);
}

}  // namespace

mig::Mig rewrite_top_down(const mig::Mig& mig, ReplacementOracle& oracle,
                          const RewriteParams& params, RewriteStats& stats) {
  if (params.ffr_partition) {
    return rewrite_top_down_ffr(mig, oracle, params, stats);
  }

  const auto cut_sets = cuts::enumerate_cuts(mig, rewrite_cut_params(params, nullptr));
  const auto fanout = mig.compute_fanout_counts();
  const auto levels = mig.compute_levels();

  std::vector<Plan> plans(mig.num_nodes());
  RewriteCounters counters;
  std::vector<uint32_t> outputs;
  for (const mig::Signal o : mig.outputs()) outputs.push_back(o.index());
  plan_walk(mig, oracle, params, cut_sets, fanout, levels, std::move(outputs),
            [&](uint32_t n) { return mig.is_gate(n); }, plans, counters);
  stats.cuts_evaluated += counters.cuts_evaluated;
  stats.replacements += counters.replacements;
  return rebuild_from_plans(mig, oracle, plans, params.tally);
}

}  // namespace mighty::opt
