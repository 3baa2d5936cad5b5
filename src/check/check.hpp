#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exact/database.hpp"
#include "flow/pass.hpp"
#include "mig/ffr.hpp"
#include "mig/mig.hpp"
#include "mig/shard.hpp"
#include "opt/oracle.hpp"

/// \file check.hpp
/// \brief Structural invariant validation for every layer of the engine.
///
/// The rewriting loop is only sound while every intermediate network stays a
/// well-formed MIG; the shard-parallel passes are only deterministic while
/// every plan stays a disjoint, complete, wave-ordered cover; the CI gates
/// are only meaningful while every report's roll-up matches its trajectory.
/// This module states those invariants once, as executable checks with
/// precise diagnostics, so that
///
///   * the flow layer can run them between passes (Session::set_check_level),
///     turning every existing test into an invariant test;
///   * the `check` script word exposes them to shells and scripts;
///   * the fuzz harnesses (fuzz/) use them as the "accepted input must be
///     well-formed" half of their differential properties;
///   * `build_npn_db --lint` applies the artifact linters to the on-disk
///     NPN database and 5-input oracle cache beyond what a wholesale load
///     already validates.
///
/// Every validator returns a CheckReport rather than throwing, so callers
/// decide whether a finding is fatal; flow::Session throws std::logic_error
/// on the first failed between-pass check.

namespace mighty::check {

/// What went wrong.  Codes are stable identifiers: tests assert on them, and
/// diagnostics print them, so a failure names the violated invariant rather
/// than just a message string.
enum class Code {
  // --- structural MIG invariants (validate_structure) ---
  po_target_out_of_range,    ///< primary output points past the node array
  fanin_out_of_range,        ///< gate fanin index past the node array
  fanin_self_reference,      ///< gate feeds itself
  fanin_not_topological,     ///< fanin index >= gate index (breaks the
                             ///< creation-order-is-topological invariant; the
                             ///< only way an index-addressed MIG can cycle)
  fanin_not_sorted,          ///< majority fanins not in canonical raw order
  fanin_duplicate_index,     ///< two fanins share a node (a trivial
                             ///< simplification <xxy>/<x!xy> was skipped)
  fanin_polarity_not_normalized,  ///< two or more complemented fanins
                                  ///< (self-duality normalization skipped)
  terminal_fanin_corrupt,    ///< constant/PI node carries a non-default fanin
  duplicate_gate,            ///< two gates with the same canonical fanins
                             ///< (structural hashing missed one; validate)
  // --- derived-data consistency vs. recomputation (validate) ---
  level_mismatch,       ///< stored/reported level != independent recomputation
  fanout_mismatch,      ///< fanout count != independent recomputation
  live_count_mismatch,  ///< live-gate accounting != independent recomputation
  // --- FFR partition invariants (validate_partition) ---
  region_root_out_of_range,  ///< region_root points past the node array
  region_root_not_root,      ///< a node's region root is not marked is_root
  region_roots_not_topological,  ///< roots list not ascending (= topological)
  region_membership_broken,  ///< member's fanout leaves the region before the
                             ///< root, or a root maps to a different region
  // --- shard plan invariants (validate_shard_plan) ---
  shard_overlap,      ///< a node appears in two shards (plans must be disjoint)
  shard_incomplete,   ///< a live gate missing from every shard
  shard_not_sorted,   ///< a shard's roots/nodes not ascending (= topological)
  shard_foreign_node, ///< a shard node whose region root is not in the shard
  wave_order_broken,  ///< a region at level L fed by a region at level >= L
  // --- flow report accounting (validate_report / validate_tally) ---
  report_rollup_mismatch,   ///< totals differ from the per-pass sums
  report_pass_inconsistent, ///< a pass entry violates counter conservation
  report_tally_mismatch,    ///< report totals differ from the OracleTally
  // --- on-disk artifacts (lint_database / lint_cache_file) ---
  artifact_io,            ///< file missing or unreadable
  artifact_header,        ///< bad magic/version/count header
  artifact_entry,         ///< malformed or inconsistent entry line
  artifact_not_canonical, ///< key is not its own canonical form, or a chain
                          ///< does not re-serialize to the stored line
  artifact_budget,        ///< cache budget field violates monotonicity rules
  artifact_order,         ///< entries not sorted by key (warning)
};

/// Stable name of a code ("fanin_not_topological", ...), for messages/tests.
const char* code_name(Code code);

enum class Severity { error, warning };

/// Sentinel for diagnostics that are not about one specific node/line.
inline constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

struct Diagnostic {
  Code code;
  Severity severity = Severity::error;
  /// Node index, shard index, pass index, or 1-based file line — whichever
  /// the validator's context documents; kNoNode when not applicable.
  uint32_t node = kNoNode;
  std::string message;
};

struct CheckReport {
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return num_errors() == 0; }
  size_t num_errors() const;
  size_t num_warnings() const;
  bool has(Code code) const;
  /// First diagnostic with this code, or nullptr.
  const Diagnostic* find(Code code) const;

  void add(Code code, uint32_t node, std::string message,
           Severity severity = Severity::error);
  void merge(CheckReport other);

  /// One line per diagnostic: "error[fanin_not_topological] node 7: ...".
  std::string summary() const;
};

/// A raw, corruptible view of an MIG: the exact data the structural checks
/// judge, in a form tests can hand-mangle (Mig's own invariants are enforced
/// by construction, so a corrupted-MIG suite needs a representation that
/// admits corruption).  Node 0 is the constant; nodes 1..num_pis are PIs.
struct MigView {
  uint32_t num_pis = 0;
  /// Per-node fanin triples; terminals carry the all-constant default.
  std::vector<std::array<mig::Signal, 3>> fanins;
  std::vector<mig::Signal> outputs;

  static MigView of(const mig::Mig& m);

  uint32_t num_nodes() const { return static_cast<uint32_t>(fanins.size()); }
  bool is_gate(uint32_t n) const { return n > num_pis && n < num_nodes(); }
};

/// Structural invariants of the DAG itself, O(nodes): acyclicity via
/// topological fanin order, no dangling or self references, PO targets in
/// range, canonical (sorted, deduplicated, polarity-normalized) majority
/// fanins, intact terminals.
CheckReport validate_structure(const MigView& view);

/// Structural hashing, O(gates log gates): no two gates share the same
/// canonical fanins, since create_maj returns the existing gate instead.
/// Requires a view that passes validate_structure (canonical fanins).
CheckReport validate_strash(const MigView& view);

/// Externally supplied per-node levels versus an independent recomputation
/// (the LevelTracker discipline: stale levels mean rewriting decisions
/// compare wrong depths).  `levels` must have one entry per node.
CheckReport validate_levels(const MigView& view, const std::vector<uint32_t>& levels);

/// Externally supplied fanout counts versus an independent recomputation.
CheckReport validate_fanouts(const MigView& view, const std::vector<uint32_t>& fanouts);

/// Full single-network validation: validate_structure and validate_strash
/// plus the Mig's own derived data (compute_levels, compute_fanout_counts,
/// count_live_gates) checked against independent recomputation over the
/// raw view.
CheckReport validate(const mig::Mig& m);

/// What the flow's between-pass hook runs: validate_structure only when
/// `full` is false (O(nodes), cheap enough after every pass of a Debug test
/// run), otherwise validate() plus a fresh FFR partition, shard plan and
/// wave ordering validated end to end.
CheckReport validate_at(const mig::Mig& m, bool full);

/// FFR partition invariants: roots marked and topologically ordered, every
/// node's region root in range and marked, non-root members reaching their
/// root without crossing another root.
CheckReport validate_partition(const mig::Mig& m, const ffr::FfrPartition& partition);

/// Shard plan invariants: shards pairwise disjoint, together covering every
/// output-reachable gate, each shard's roots/nodes ascending, and every
/// shard node's region root grouped into the same shard.
CheckReport validate_shard_plan(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const shard::ShardPlan& plan);

/// Wave ordering: for every live gate, any fanin in a *different* live
/// region must come from a region of strictly smaller level — the property
/// wave-parallel passes rely on to run regions of equal level concurrently.
/// `levels` is indexed by region root as produced by shard::region_levels.
CheckReport validate_wave_order(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const std::vector<uint32_t>& levels);

/// Counter conservation within one oracle record (a pass's deltas, or any
/// sum of them), reported as report_pass_inconsistent at `node` with
/// messages that start with `label`:
///   answered <= queries;
///   cache5_hits + synthesized <= queries (every 5-input lookup is a query);
///   failures <= cache5_hits + synthesized and constructed <= cache5_hits +
///   synthesized: a search fails or is settled by the Theorem-2 chain either
///   for a query that synthesized or for one that hit an open cache entry
///   (possibly one an earlier pass left open) and resumed its search.
CheckReport validate_counts(const opt::OracleCounts& counts, const std::string& label,
                            uint32_t node = kNoNode);

/// FlowReport accounting: validate_counts on every pass (diagnostic `node`
/// is the pass index), and the whole-flow oracle totals must equal the sum
/// of the passes (report_rollup_mismatch, naming each differing counter).
CheckReport validate_report(const flow::FlowReport& report);

/// Oracle tally conservation: a report whose passes all tallied into
/// `tally` must agree with tally.snapshot() exactly (the per-scope mirrors
/// are bumped in lockstep with the lifetime counters).
CheckReport validate_tally(const flow::FlowReport& report, const opt::OracleTally& tally);

// --- on-disk artifact linters -----------------------------------------------

/// NPN-4 database lint, beyond what Database::load validates wholesale:
/// exactly 222 classes, every representative its own NPN canonical form
/// ("canonical-form keys"), every chain over 4 variables realizing its
/// representative within the Theorem-2 bound of 7 gates.
CheckReport lint_database(const exact::Database& db);

/// 5-input oracle cache file lint: the loader's own reader
/// (opt::read_cache_file, whose comment lists the rules) under the default
/// `max_gates`, so a file draws a lint error exactly when a default oracle
/// rejects it.  Each problem becomes one diagnostic (`node` = 1-based line;
/// header and count problems name line 1), and keys out of order draw a
/// warning (save_cache writes sorted files, so disorder flags hand-editing).
CheckReport lint_cache_file(const std::string& path);

}  // namespace mighty::check
