#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exact/chain.hpp"
#include "mig/cuts.hpp"
#include "mig/mig.hpp"
#include "opt/oracle_counts.hpp"

namespace mighty::util {
class ThreadPool;
}

/// \file rewrite.hpp
/// \brief MIG size optimization by functional hashing (paper Sec. IV).
///
/// Enumerates 4-feasible cuts and replaces them with precomputed minimum MIGs
/// from the NPN database.  Variants (paper Sec. V-C naming):
///   T   top-down                       B   bottom-up
///   TD  top-down, depth-preserving     BD  bottom-up, depth-preserving
///   TF  top-down over fanout-free regions, etc.
/// The letter F selects fanout-free-region partitioning, D the
/// depth-preserving heuristic.

namespace mighty::opt {

class ReplacementOracle;

enum class Direction { top_down, bottom_up };

struct RewriteParams {
  Direction direction = Direction::top_down;
  /// Partition into fanout-free regions first (paper Sec. IV-C).
  bool ffr_partition = false;
  /// Depth-preserving heuristic: discard replacements that locally increase
  /// the node's level (paper Sec. IV-A).
  bool depth_preserving = false;
  /// Bottom-up: number of candidates kept per node (paper: "a predetermined
  /// number of best candidates, similar to priority cuts").
  uint32_t max_candidates = 2;
  /// Bottom-up: cap on leaf-candidate combinations explored per cut.
  uint32_t max_combinations = 16;
  /// Extension discussed in the paper (Sec. IV, ref. [9]): also rewrite
  /// 5-input cuts, with minimum structures synthesized on demand and cached
  /// (the full 5-variable NPN enumeration being impractical) by the oracle,
  /// under the oracle's budget (OracleParams).
  bool five_input_cuts = false;
  /// Worker pool for the fanout-free-region variants: their per-region
  /// analysis (cut enumeration, simulation, oracle queries, candidate
  /// search) runs on balanced FFR shards concurrently, followed by a
  /// deterministic sequential merge — so the result is bit-identical for
  /// any pool size, including none.  Global variants ignore the pool (their
  /// cuts cross region boundaries and serialize).  Not owned.
  util::ThreadPool* pool = nullptr;
  /// Per-call oracle accounting sink.  functional_hashing() installs its own
  /// when none is given, and reports the result through RewriteStats; set it
  /// only to aggregate several calls into one tally.  Not owned.
  OracleTally* tally = nullptr;
};

/// The inherited counters are the oracle activity of exactly this call,
/// tallied per query rather than snapshotted from the shared oracle's
/// lifetime counters — so attribution stays exact when concurrent passes
/// (batch runs) share one oracle.
struct RewriteStats : OracleCounts {
  uint32_t size_before = 0;
  uint32_t size_after = 0;
  uint32_t depth_before = 0;
  uint32_t depth_after = 0;
  uint64_t cuts_evaluated = 0;
  uint64_t replacements = 0;
  double seconds = 0.0;
};

/// Applies one pass of functional hashing over a caller-owned replacement
/// oracle, so its caches (5-input synthesis results, hit statistics) persist
/// across passes.  Scripts of passes go through `flow::Pipeline`, whose
/// rewrite passes call this with the `flow::Session`'s oracle.
mig::Mig functional_hashing(const mig::Mig& mig, ReplacementOracle& oracle,
                            const RewriteParams& params = {},
                            RewriteStats* stats = nullptr);

/// Translates a paper acronym ("T", "TD", "TF", "TFD", "B", "BD", "BF",
/// "BFD", case-insensitive) into parameters.  Throws std::invalid_argument
/// (naming the offending string) on unknown names.
RewriteParams variant_params(const std::string& acronym);

/// All acronyms accepted by variant_params, in the paper's table order.
std::vector<std::string> all_variants();

// --- shared internals (exposed for the two drivers and for tests) -----------

/// Nodes in the cone of (root, leaves), root included, leaves excluded.  The
/// walk stops only at leaves and the constant node, so a PI that the leaves
/// do not cover is returned as part of the cone (a well-formed cut covers
/// every path to a PI, so this never happens for one).
std::vector<uint32_t> cut_cone(const mig::Mig& mig, uint32_t root,
                               const std::vector<uint32_t>& leaves);

/// True iff no internal cone node other than the root has fanout outside the
/// cone (the paper's condition for a replaceable cut in global mode).
bool cone_is_replaceable(const mig::Mig& mig, const std::vector<uint32_t>& cone,
                         uint32_t root, const std::vector<uint32_t>& fanout_counts);

/// Cut enumeration of a rewrite pass: exhaustive cuts of up to 5 leaves with
/// the 5-input extension, else up to 4, confined by `boundary` when given.
cuts::CutEnumerationParams rewrite_cut_params(const RewriteParams& params,
                                              const std::vector<bool>* boundary);

/// Per-driver work counters, folded into RewriteStats.
struct RewriteCounters {
  uint64_t cuts_evaluated = 0;
  uint64_t replacements = 0;
};

/// For each chain input, the longest path (in gates) from that input to the
/// chain output; -1 when the input is unused.
std::vector<int> chain_input_depths(const exact::MigChain& chain);

/// Top-down driver (Algorithm 1).
mig::Mig rewrite_top_down(const mig::Mig& mig, ReplacementOracle& oracle,
                          const RewriteParams& params, RewriteStats& stats);

/// Bottom-up driver (Algorithm 2).
mig::Mig rewrite_bottom_up(const mig::Mig& mig, ReplacementOracle& oracle,
                           const RewriteParams& params, RewriteStats& stats);

}  // namespace mighty::opt
