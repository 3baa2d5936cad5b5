#include "check/check.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_set>

#include "exact/chain.hpp"
#include "npn/npn.hpp"
#include "tt/truth_table.hpp"

namespace mighty::check {

namespace {

/// Independent level recomputation over the raw view (never via
/// Mig::compute_levels — the point is to catch that function drifting).
/// Out-of-range and non-topological fanins contribute level 0, so the
/// recomputation is total even on corrupt views; validate_structure reports
/// those separately.
std::vector<uint32_t> recompute_levels(const MigView& view) {
  std::vector<uint32_t> level(view.num_nodes(), 0);
  for (uint32_t n = 0; n < view.num_nodes(); ++n) {
    if (!view.is_gate(n)) continue;
    uint32_t max_level = 0;
    for (const mig::Signal f : view.fanins[n]) {
      if (f.index() < n) max_level = std::max(max_level, level[f.index()]);
    }
    level[n] = max_level + 1;
  }
  return level;
}

std::vector<uint32_t> recompute_fanouts(const MigView& view) {
  std::vector<uint32_t> fanout(view.num_nodes(), 0);
  for (uint32_t n = 0; n < view.num_nodes(); ++n) {
    if (!view.is_gate(n)) continue;
    for (const mig::Signal f : view.fanins[n]) {
      if (f.index() < view.num_nodes()) ++fanout[f.index()];
    }
  }
  for (const mig::Signal s : view.outputs) {
    if (s.index() < view.num_nodes()) ++fanout[s.index()];
  }
  return fanout;
}

std::vector<bool> recompute_live(const MigView& view) {
  std::vector<bool> live(view.num_nodes(), false);
  std::vector<uint32_t> stack;
  for (const mig::Signal s : view.outputs) {
    if (s.index() < view.num_nodes() && !live[s.index()]) {
      live[s.index()] = true;
      stack.push_back(s.index());
    }
  }
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (!view.is_gate(n)) continue;
    for (const mig::Signal f : view.fanins[n]) {
      if (f.index() < view.num_nodes() && !live[f.index()]) {
        live[f.index()] = true;
        stack.push_back(f.index());
      }
    }
  }
  return live;
}

std::string signal_str(mig::Signal s) {
  return (s.is_complemented() ? "!" : "") + std::to_string(s.index());
}

Code artifact_code(opt::CacheProblem::Kind kind) {
  using Kind = opt::CacheProblem::Kind;
  switch (kind) {
    case Kind::header:
    case Kind::count:
      return Code::artifact_header;
    case Kind::entry:
      return Code::artifact_entry;
    case Kind::not_canonical:
      return Code::artifact_not_canonical;
    case Kind::budget:
      return Code::artifact_budget;
  }
  return Code::artifact_entry;
}

}  // namespace

// --- CheckReport -------------------------------------------------------------

size_t CheckReport::num_errors() const {
  size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::error) ++n;
  }
  return n;
}

size_t CheckReport::num_warnings() const {
  return diagnostics.size() - num_errors();
}

bool CheckReport::has(Code code) const { return find(code) != nullptr; }

const Diagnostic* CheckReport::find(Code code) const {
  for (const auto& d : diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

void CheckReport::add(Code code, uint32_t node, std::string message,
                      Severity severity) {
  diagnostics.push_back({code, severity, node, std::move(message)});
}

void CheckReport::merge(CheckReport other) {
  diagnostics.insert(diagnostics.end(),
                     std::make_move_iterator(other.diagnostics.begin()),
                     std::make_move_iterator(other.diagnostics.end()));
}

std::string CheckReport::summary() const {
  if (diagnostics.empty()) return "check: ok\n";
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.severity == Severity::error ? "error[" : "warning[";
    out += code_name(d.code);
    out += "]";
    if (d.node != kNoNode) out += " node " + std::to_string(d.node);
    out += ": " + d.message + "\n";
  }
  out += "check: " + std::to_string(num_errors()) + " error(s), " +
         std::to_string(num_warnings()) + " warning(s)\n";
  return out;
}

const char* code_name(Code code) {
  switch (code) {
    case Code::po_target_out_of_range: return "po_target_out_of_range";
    case Code::fanin_out_of_range: return "fanin_out_of_range";
    case Code::fanin_self_reference: return "fanin_self_reference";
    case Code::fanin_not_topological: return "fanin_not_topological";
    case Code::fanin_not_sorted: return "fanin_not_sorted";
    case Code::fanin_duplicate_index: return "fanin_duplicate_index";
    case Code::fanin_polarity_not_normalized: return "fanin_polarity_not_normalized";
    case Code::terminal_fanin_corrupt: return "terminal_fanin_corrupt";
    case Code::duplicate_gate: return "duplicate_gate";
    case Code::level_mismatch: return "level_mismatch";
    case Code::fanout_mismatch: return "fanout_mismatch";
    case Code::live_count_mismatch: return "live_count_mismatch";
    case Code::region_root_out_of_range: return "region_root_out_of_range";
    case Code::region_root_not_root: return "region_root_not_root";
    case Code::region_roots_not_topological: return "region_roots_not_topological";
    case Code::region_membership_broken: return "region_membership_broken";
    case Code::shard_overlap: return "shard_overlap";
    case Code::shard_incomplete: return "shard_incomplete";
    case Code::shard_not_sorted: return "shard_not_sorted";
    case Code::shard_foreign_node: return "shard_foreign_node";
    case Code::wave_order_broken: return "wave_order_broken";
    case Code::report_rollup_mismatch: return "report_rollup_mismatch";
    case Code::report_pass_inconsistent: return "report_pass_inconsistent";
    case Code::report_tally_mismatch: return "report_tally_mismatch";
    case Code::artifact_io: return "artifact_io";
    case Code::artifact_header: return "artifact_header";
    case Code::artifact_entry: return "artifact_entry";
    case Code::artifact_not_canonical: return "artifact_not_canonical";
    case Code::artifact_budget: return "artifact_budget";
    case Code::artifact_order: return "artifact_order";
  }
  return "unknown";
}

// --- MigView -----------------------------------------------------------------

MigView MigView::of(const mig::Mig& m) {
  MigView view;
  view.num_pis = m.num_pis();
  view.fanins.reserve(m.num_nodes());
  for (uint32_t n = 0; n < m.num_nodes(); ++n) view.fanins.push_back(m.fanins(n));
  view.outputs = m.outputs();
  return view;
}

// --- structural validation ---------------------------------------------------

CheckReport validate_structure(const MigView& view) {
  CheckReport report;
  const uint32_t n = view.num_nodes();
  if (n == 0) {
    report.add(Code::terminal_fanin_corrupt, kNoNode, "no constant node");
    return report;
  }

  // Terminals (constant + PIs) must carry the default all-constant fanins;
  // anything else means something scribbled over the node array.
  const mig::Signal zero(0, false);
  const uint32_t num_terminals = std::min(view.num_pis + 1, n);
  for (uint32_t t = 0; t < num_terminals; ++t) {
    for (const mig::Signal f : view.fanins[t]) {
      if (!(f == zero)) {
        report.add(Code::terminal_fanin_corrupt, t,
                   "terminal carries fanin " + signal_str(f));
        break;
      }
    }
  }

  for (uint32_t g = num_terminals; g < n; ++g) {
    const auto& f = view.fanins[g];
    bool indices_ok = true;
    for (uint32_t i = 0; i < 3; ++i) {
      if (f[i].index() >= n) {
        report.add(Code::fanin_out_of_range, g,
                   "fanin " + std::to_string(i) + " references node " +
                       std::to_string(f[i].index()) + " of " + std::to_string(n));
        indices_ok = false;
      } else if (f[i].index() == g) {
        report.add(Code::fanin_self_reference, g,
                   "fanin " + std::to_string(i) + " references the gate itself");
        indices_ok = false;
      } else if (f[i].index() > g) {
        // Nodes are stored in creation order, which is topological: a fanin
        // with a larger index is the only way an index-addressed MIG can
        // close a cycle.
        report.add(Code::fanin_not_topological, g,
                   "fanin " + std::to_string(i) + " references later node " +
                       std::to_string(f[i].index()));
        indices_ok = false;
      }
    }
    if (!indices_ok) continue;

    if (f[0].index() == f[1].index() || f[1].index() == f[2].index() ||
        f[0].index() == f[2].index()) {
      report.add(Code::fanin_duplicate_index, g,
                 "fanins <" + signal_str(f[0]) + "," + signal_str(f[1]) + "," +
                     signal_str(f[2]) +
                     "> share a node (trivial simplification was skipped)");
      continue;
    }
    if (!(f[0].raw() < f[1].raw() && f[1].raw() < f[2].raw())) {
      report.add(Code::fanin_not_sorted, g,
                 "fanins <" + signal_str(f[0]) + "," + signal_str(f[1]) + "," +
                     signal_str(f[2]) + "> not in canonical order");
    }
    const int complemented = (f[0].is_complemented() ? 1 : 0) +
                             (f[1].is_complemented() ? 1 : 0) +
                             (f[2].is_complemented() ? 1 : 0);
    if (complemented >= 2) {
      report.add(Code::fanin_polarity_not_normalized, g,
                 std::to_string(complemented) +
                     " complemented fanins (self-duality normalization skipped)");
    }
  }

  for (uint32_t o = 0; o < view.outputs.size(); ++o) {
    if (view.outputs[o].index() >= n) {
      report.add(Code::po_target_out_of_range, o,
                 "output " + std::to_string(o) + " targets node " +
                     std::to_string(view.outputs[o].index()) + " of " +
                     std::to_string(n));
    }
  }
  return report;
}

CheckReport validate_strash(const MigView& view) {
  CheckReport report;
  std::vector<uint32_t> gates;
  for (uint32_t g = view.num_pis + 1; g < view.num_nodes(); ++g) gates.push_back(g);
  const auto key = [&](uint32_t g) {
    const auto& f = view.fanins[g];
    return std::array<uint32_t, 3>{f[0].raw(), f[1].raw(), f[2].raw()};
  };
  // Stable: of gates with equal fanins, the first created comes first.
  std::stable_sort(gates.begin(), gates.end(),
                   [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
  for (size_t i = 1; i < gates.size(); ++i) {
    if (key(gates[i]) == key(gates[i - 1])) {
      report.add(Code::duplicate_gate, gates[i],
                 "same fanins as gate " + std::to_string(gates[i - 1]) +
                     " (structural hashing missed it)");
    }
  }
  return report;
}

CheckReport validate_levels(const MigView& view, const std::vector<uint32_t>& levels) {
  CheckReport report;
  if (levels.size() != view.num_nodes()) {
    report.add(Code::level_mismatch, kNoNode,
               "level array has " + std::to_string(levels.size()) +
                   " entries for " + std::to_string(view.num_nodes()) + " nodes");
    return report;
  }
  const auto expected = recompute_levels(view);
  for (uint32_t i = 0; i < view.num_nodes(); ++i) {
    if (levels[i] != expected[i]) {
      report.add(Code::level_mismatch, i,
                 "level " + std::to_string(levels[i]) + ", recomputation says " +
                     std::to_string(expected[i]));
    }
  }
  return report;
}

CheckReport validate_fanouts(const MigView& view, const std::vector<uint32_t>& fanouts) {
  CheckReport report;
  if (fanouts.size() != view.num_nodes()) {
    report.add(Code::fanout_mismatch, kNoNode,
               "fanout array has " + std::to_string(fanouts.size()) +
                   " entries for " + std::to_string(view.num_nodes()) + " nodes");
    return report;
  }
  const auto expected = recompute_fanouts(view);
  for (uint32_t i = 0; i < view.num_nodes(); ++i) {
    if (fanouts[i] != expected[i]) {
      report.add(Code::fanout_mismatch, i,
                 "fanout " + std::to_string(fanouts[i]) + ", recomputation says " +
                     std::to_string(expected[i]));
    }
  }
  return report;
}

CheckReport validate(const mig::Mig& m) {
  const MigView view = MigView::of(m);
  CheckReport report = validate_structure(view);
  if (!report.ok()) return report;  // derived data is meaningless on a broken DAG

  report.merge(validate_strash(view));
  report.merge(validate_levels(view, m.compute_levels()));
  report.merge(validate_fanouts(view, m.compute_fanout_counts()));

  // Dead-node accounting: the Mig's live-gate count must equal an
  // independent reachability sweep over the raw view.
  const auto live = recompute_live(view);
  uint32_t live_gates = 0;
  for (uint32_t n = 0; n < view.num_nodes(); ++n) {
    if (live[n] && view.is_gate(n)) ++live_gates;
  }
  if (m.count_live_gates() != live_gates) {
    report.add(Code::live_count_mismatch, kNoNode,
               "count_live_gates() says " + std::to_string(m.count_live_gates()) +
                   ", reachability sweep says " + std::to_string(live_gates));
  }
  return report;
}

CheckReport validate_at(const mig::Mig& m, bool full) {
  if (!full) return validate_structure(MigView::of(m));
  CheckReport report = validate(m);
  if (!report.ok()) return report;  // partitioning a broken DAG proves nothing
  const auto partition = ffr::compute_ffrs(m);
  report.merge(validate_partition(m, partition));
  if (!report.ok()) return report;
  // A small non-trivial shard count exercises the balancing path the
  // shard-parallel passes take without demanding real parallelism.
  report.merge(validate_shard_plan(m, partition, shard::plan_ffr_shards(m, partition, 4)));
  report.merge(validate_wave_order(m, partition, shard::region_levels(m, partition)));
  return report;
}

// --- FFR partition -----------------------------------------------------------

CheckReport validate_partition(const mig::Mig& m, const ffr::FfrPartition& partition) {
  CheckReport report;
  const uint32_t n = m.num_nodes();
  if (partition.region_root.size() != n || partition.is_root.size() != n) {
    report.add(Code::region_root_out_of_range, kNoNode,
               "partition arrays sized " + std::to_string(partition.region_root.size()) +
                   "/" + std::to_string(partition.is_root.size()) + " for " +
                   std::to_string(n) + " nodes");
    return report;
  }

  for (uint32_t i = 0; i + 1 < partition.roots.size(); ++i) {
    if (partition.roots[i] >= partition.roots[i + 1]) {
      report.add(Code::region_roots_not_topological, partition.roots[i + 1],
                 "roots list not strictly ascending at position " + std::to_string(i + 1));
    }
  }
  for (const uint32_t r : partition.roots) {
    if (r >= n) {
      report.add(Code::region_root_out_of_range, r, "roots list references node " +
                                                        std::to_string(r) + " of " +
                                                        std::to_string(n));
    } else if (!partition.is_root[r]) {
      report.add(Code::region_root_not_root, r, "listed root is not marked is_root");
    }
  }

  const auto fanout = m.compute_fanout_counts();
  std::vector<bool> drives_po(n, false);
  for (const mig::Signal s : m.outputs()) drives_po[s.index()] = true;

  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t root = partition.region_root[i];
    if (root >= n) {
      report.add(Code::region_root_out_of_range, i,
                 "region root " + std::to_string(root) + " of " + std::to_string(n));
      continue;
    }
    if (!m.is_gate(i)) {
      if (root != i) {
        report.add(Code::region_membership_broken, i,
                   "terminal mapped to region " + std::to_string(root));
      }
      continue;
    }
    // Roots by definition: PO drivers and gates whose fanout count is not
    // exactly one (multi-fanout, or dangling).
    const bool must_be_root = drives_po[i] || fanout[i] != 1;
    if (must_be_root && !partition.is_root[i]) {
      report.add(Code::region_root_not_root, i,
                 "gate with fanout " + std::to_string(fanout[i]) +
                     (drives_po[i] ? " driving a PO" : "") + " is not marked a root");
    }
    if (partition.is_root[i]) {
      if (root != i) {
        report.add(Code::region_membership_broken, i,
                   "root mapped to region " + std::to_string(root));
      }
    } else if (!partition.is_root[root]) {
      report.add(Code::region_root_not_root, i,
                 "region root " + std::to_string(root) + " is not marked is_root");
    }
  }

  // Region connectivity: a non-root gate fanin must belong to the same
  // region as its consumer (regions are fanout-free: the only way out of a
  // region is through its root).
  for (uint32_t g = 0; g < n; ++g) {
    if (!m.is_gate(g)) continue;
    for (const mig::Signal f : m.fanins(g)) {
      const uint32_t fi = f.index();
      if (fi >= n || !m.is_gate(fi) || partition.is_root[fi]) continue;
      if (partition.region_root[fi] != partition.region_root[g]) {
        report.add(Code::region_membership_broken, fi,
                   "non-root gate feeds node " + std::to_string(g) +
                       " of region " + std::to_string(partition.region_root[g]) +
                       " but belongs to region " +
                       std::to_string(partition.region_root[fi]));
      }
    }
  }
  return report;
}

// --- shard plans -------------------------------------------------------------

CheckReport validate_shard_plan(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const shard::ShardPlan& plan) {
  CheckReport report;
  const uint32_t n = m.num_nodes();
  if (partition.region_root.size() != n) {
    report.add(Code::region_root_out_of_range, kNoNode,
               "partition does not match the network");
    return report;
  }

  std::vector<uint32_t> owner(n, kNoNode);
  for (uint32_t s = 0; s < plan.shards.size(); ++s) {
    const auto& sh = plan.shards[s];
    for (uint32_t i = 0; i + 1 < sh.roots.size(); ++i) {
      if (sh.roots[i] >= sh.roots[i + 1]) {
        report.add(Code::shard_not_sorted, s,
                   "shard " + std::to_string(s) + " roots not strictly ascending");
        break;
      }
    }
    for (uint32_t i = 0; i + 1 < sh.nodes.size(); ++i) {
      if (sh.nodes[i] >= sh.nodes[i + 1]) {
        report.add(Code::shard_not_sorted, s,
                   "shard " + std::to_string(s) + " nodes not strictly ascending");
        break;
      }
    }
    std::unordered_set<uint32_t> roots(sh.roots.begin(), sh.roots.end());
    for (const uint32_t node : sh.nodes) {
      if (node >= n) {
        report.add(Code::shard_foreign_node, node,
                   "shard " + std::to_string(s) + " references node " +
                       std::to_string(node) + " of " + std::to_string(n));
        continue;
      }
      if (owner[node] != kNoNode) {
        report.add(Code::shard_overlap, node,
                   "node in shard " + std::to_string(owner[node]) + " and shard " +
                       std::to_string(s));
        continue;
      }
      owner[node] = s;
      if (!m.is_gate(node)) {
        report.add(Code::shard_foreign_node, node,
                   "shard " + std::to_string(s) + " contains a terminal");
      } else if (roots.count(partition.region_root[node]) == 0) {
        // A shard is a group of whole regions: every member's region root
        // must be one of the shard's roots.
        report.add(Code::shard_foreign_node, node,
                   "member of region " + std::to_string(partition.region_root[node]) +
                       " whose root is not in shard " + std::to_string(s));
      }
    }
    for (const uint32_t r : sh.roots) {
      if (r < n && owner[r] != s) {
        report.add(Code::shard_foreign_node, r,
                   "shard " + std::to_string(s) + " lists root " + std::to_string(r) +
                       " without its node");
      }
    }
  }

  // Completeness: every output-reachable gate belongs to exactly one shard
  // (dead regions are deliberately not planned).
  const auto live = m.live_mask();
  for (uint32_t node = 0; node < n; ++node) {
    if (live[node] && m.is_gate(node) && owner[node] == kNoNode) {
      report.add(Code::shard_incomplete, node, "live gate missing from every shard");
    }
  }
  return report;
}

CheckReport validate_wave_order(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const std::vector<uint32_t>& levels) {
  CheckReport report;
  const uint32_t n = m.num_nodes();
  if (partition.region_root.size() != n || levels.size() != n) {
    report.add(Code::wave_order_broken, kNoNode,
               "partition/levels do not match the network");
    return report;
  }
  const auto live = m.live_mask();
  for (uint32_t g = 0; g < n; ++g) {
    if (!live[g] || !m.is_gate(g)) continue;
    const uint32_t region = partition.region_root[g];
    if (region >= n) continue;  // validate_partition reports this
    for (const mig::Signal f : m.fanins(g)) {
      const uint32_t fi = f.index();
      if (fi >= n || !m.is_gate(fi)) continue;
      const uint32_t feeding = partition.region_root[fi];
      if (feeding >= n || feeding == region) continue;
      if (levels[feeding] >= levels[region]) {
        report.add(Code::wave_order_broken, g,
                   "region " + std::to_string(region) + " at level " +
                       std::to_string(levels[region]) + " fed by region " +
                       std::to_string(feeding) + " at level " +
                       std::to_string(levels[feeding]));
      }
    }
  }
  return report;
}

// --- flow report accounting --------------------------------------------------

namespace {

/// One `code` diagnostic per counter where `have` differs from `want`.
void compare_counts(CheckReport& out, Code code, const opt::OracleCounts& have,
                    const char* have_label, const opt::OracleCounts& want,
                    const char* want_label) {
  for (const auto& field : opt::kOracleCountFields) {
    if (have.*field.count != want.*field.count) {
      out.add(code, kNoNode,
              std::string(field.name) + ": " + have_label + " " +
                  std::to_string(have.*field.count) + ", " + want_label + " " +
                  std::to_string(want.*field.count));
    }
  }
}

}  // namespace

CheckReport validate_counts(const opt::OracleCounts& c, const std::string& label,
                            uint32_t node) {
  CheckReport out;
  const auto inconsistent = [&](const std::string& what) {
    out.add(Code::report_pass_inconsistent, node, label + " " + what);
  };
  const uint64_t lookups5 = c.oracle_cache5_hits + c.oracle_synthesized;
  if (c.oracle_answered > c.oracle_queries) {
    inconsistent("answered " + std::to_string(c.oracle_answered) + " of " +
                 std::to_string(c.oracle_queries) + " queries");
  }
  if (lookups5 > c.oracle_queries) {
    inconsistent("resolved more 5-input lookups than queries");
  }
  if (c.oracle_failures > lookups5) {
    inconsistent("failed " + std::to_string(c.oracle_failures) + " of " +
                 std::to_string(lookups5) + " 5-input lookups");
  }
  if (c.oracle_constructed > lookups5) {
    inconsistent("constructed " + std::to_string(c.oracle_constructed) + " of " +
                 std::to_string(lookups5) + " 5-input lookups");
  }
  return out;
}

CheckReport validate_report(const flow::FlowReport& report) {
  CheckReport out;
  opt::OracleCounts sum;
  for (uint32_t i = 0; i < report.passes.size(); ++i) {
    const auto& p = report.passes[i];
    out.merge(validate_counts(p, "pass '" + p.name + "'", i));
    sum += p;
  }
  compare_counts(out, Code::report_rollup_mismatch, report, "roll-up", sum, "per-pass sum");
  return out;
}

CheckReport validate_tally(const flow::FlowReport& report, const opt::OracleTally& tally) {
  CheckReport out;
  compare_counts(out, Code::report_tally_mismatch, report, "report says", tally.snapshot(),
                 "tally says");
  return out;
}

// --- on-disk artifacts -------------------------------------------------------

CheckReport lint_database(const exact::Database& db) {
  CheckReport report;
  if (db.num_entries() != 222) {
    report.add(Code::artifact_header, kNoNode,
               "expected 222 NPN-4 classes, found " + std::to_string(db.num_entries()));
  }
  std::unordered_set<uint64_t> seen;
  for (uint32_t i = 0; i < db.entries().size(); ++i) {
    const auto& entry = db.entries()[i];
    if (entry.representative.num_vars() != 4) {
      report.add(Code::artifact_entry, i, "representative is not a 4-variable function");
      continue;
    }
    if (!seen.insert(entry.representative.bits()).second) {
      report.add(Code::artifact_entry, i,
                 "duplicate representative 0x" + entry.representative.to_hex());
    }
    // Canonical-form keys: a representative that is not its own NPN
    // canonization would make lookups miss its whole class.
    const auto canon = npn::canonize(entry.representative);
    if (!(canon.representative == entry.representative)) {
      report.add(Code::artifact_not_canonical, i,
                 "representative 0x" + entry.representative.to_hex() +
                     " canonizes to 0x" + canon.representative.to_hex());
    }
    if (entry.chain.num_vars != 4) {
      report.add(Code::artifact_entry, i, "chain is not over 4 variables");
      continue;
    }
    if (!(entry.chain.simulate() == entry.representative)) {
      report.add(Code::artifact_entry, i,
                 "chain does not realize representative 0x" +
                     entry.representative.to_hex());
    }
    // Theorem 2: every 4-variable function needs at most 7 majority gates.
    if (entry.chain.size() > 7) {
      report.add(Code::artifact_entry, i,
                 "chain of " + std::to_string(entry.chain.size()) +
                     " gates exceeds the Theorem-2 bound of 7");
    }
  }
  return report;
}

CheckReport lint_cache_file(const std::string& path) {
  CheckReport report;
  std::ifstream is(path);
  if (!is) {
    report.add(Code::artifact_io, kNoNode, "cannot open " + path);
    return report;
  }
  const auto file = opt::read_cache_file(is, opt::OracleParams{}.max_gates);
  for (const auto& problem : file.problems) {
    report.add(artifact_code(problem.kind), problem.line, problem.message);
  }
  for (size_t i = 1; i < file.records.size(); ++i) {
    if (file.records[i].first <= file.records[i - 1].first) {
      report.add(Code::artifact_order, kNoNode,
                 "entries not sorted by key (save_cache writes sorted files)",
                 Severity::warning);
      break;
    }
  }
  return report;
}

}  // namespace mighty::check
