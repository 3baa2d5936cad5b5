#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "map/lut_mapper.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/mig.hpp"
#include "opt/rewrite.hpp"

/// \file pass.hpp
/// \brief The unit of composition of optimization flows.
///
/// A Pass transforms an MIG using the shared Session context and records what
/// it did into a FlowReport.  Concrete passes wrap the library's primitive
/// manipulations: the eight functional-hashing variants (T/TD/TF/TFD and
/// their bottom-up duals), algebraic size and depth optimization, and k-LUT
/// mapping (an analysis pass: it reports area/depth and leaves the network
/// untouched).  Pipelines compose passes; see pipeline.hpp.  A pass is
/// immutable once built: pipelines share it (std::shared_ptr<const Pass>),
/// and a batch run executes one pass object from many threads at once.

namespace mighty::flow {

class Session;
struct RunControl;

/// What one primitive pass did: size/depth before and after, effort counters
/// and wall time.  A FlowReport is the trajectory of these.  The inherited
/// oracle counters are the activity during this pass (rewriting passes;
/// includes private per-pass oracles that never touch the session counters).
struct PassStats : opt::OracleCounts {
  std::string name;  ///< script-form name ("TF", "size", "map6", ...)
  uint32_t size_before = 0;
  uint32_t size_after = 0;
  uint32_t depth_before = 0;
  uint32_t depth_after = 0;
  uint64_t cuts_evaluated = 0;  ///< rewriting passes only
  uint64_t replacements = 0;    ///< rewriting passes only
  bool is_mapping = false;      ///< set by mapping passes (0 LUTs is legal)
  uint32_t num_luts = 0;        ///< mapping passes only
  uint32_t lut_depth = 0;       ///< mapping passes only
  double seconds = 0.0;
};

/// The one oracle-rate convention (opt/oracle_counts.hpp), in flow scope too.
using opt::oracle_rate;

/// Aggregated outcome of a Pipeline::run: the per-pass trajectory plus
/// whole-flow totals.  The inherited oracle counters are the run's activity
/// (sums of the per-pass deltas, so private per-pass oracles are accounted
/// for as well); oracle_conflicts is what a conflict budget
/// (RunControl::conflict_budget) is charged with.
struct FlowReport : opt::OracleCounts {
  std::vector<PassStats> passes;

  /// Cancellation / budget control for the run in flight, or nullptr.  Set
  /// by Pipeline::run and consulted at every pass boundary (composite passes
  /// recurse through run_into, so enforcement reaches every nesting level).
  /// Non-owning; only valid for the duration of the run that set it.
  const RunControl* control = nullptr;

  uint32_t size_before = 0;
  uint32_t size_after = 0;
  uint32_t depth_before = 0;
  uint32_t depth_after = 0;
  double seconds = 0.0;

  uint64_t cuts_evaluated() const;
  uint64_t replacements() const;
  /// Last mapping result in the trajectory, if any pass mapped.
  const PassStats* last_mapping() const;

  /// Recomputes the oracle counters as the sum of the per-pass deltas.
  /// Idempotent: the totals are reset before summing.  Pipeline::run and the
  /// batch runner both finalize reports through this.
  void accumulate_oracle_totals();

  /// Human-readable per-pass table plus the totals line.
  std::string summary() const;
};

class Pass {
public:
  virtual ~Pass() = default;

  /// Script-form name; Pipeline::to_script() joins these with ';' such that
  /// the result re-parses to an equivalent pipeline.
  virtual std::string name() const = 0;

  /// Transforms the network.  Appends one PassStats entry to `report` per
  /// primitive pass executed (composite passes append several).
  virtual mig::Mig run(const mig::Mig& mig, Session& session,
                       FlowReport& report) const = 0;

  /// True when executing this pass may query the session's oracle (and so
  /// its NPN database).  The batch runner materializes both upfront exactly
  /// when some pass needs them — lazy Session init is single-threaded.
  /// Composite passes answer for their bodies.
  virtual bool uses_oracle() const { return false; }

  /// True when the pass reconfigures the session's execution engine rather
  /// than transforming the network (the "parallel:n" directive).  Such
  /// passes are rejected inside batch runs, where rebuilding the session's
  /// worker pool mid-flight would destroy the pool the batch is running on.
  virtual bool mutates_session() const { return false; }
};

/// Functional hashing with a paper-acronym variant ("TF", "bfd", ...).
std::shared_ptr<const Pass> make_rewrite_pass(const std::string& variant);
/// Functional hashing with explicit parameters under a display name.
std::shared_ptr<const Pass> make_rewrite_pass(const opt::RewriteParams& params,
                                              std::string name);
/// Algebraic size optimization (Omega rules, right-to-left distributivity).
std::shared_ptr<const Pass> make_size_pass(const algebra::SizeOptParams& params = {});
/// Algebraic depth optimization (greedy critical-path reduction).
std::shared_ptr<const Pass> make_depth_pass(const algebra::DepthOptParams& params = {});
/// k-LUT mapping; records LUT count and LUT depth, returns the MIG unchanged.
std::shared_ptr<const Pass> make_lut_map_pass(const map::MapParams& params = {});
/// Execution directive: sets the session's parallelism for every subsequent
/// pass (script form "parallel:n").  Returns the network unchanged and adds
/// no trajectory entry — it transforms the engine, not the MIG.
std::shared_ptr<const Pass> make_parallel_pass(uint32_t threads);
/// Session directive: points the session at a persistent 5-input oracle
/// cache (script form "cache:<path>") — the file is merged into the oracle
/// and written back on save/autosave.  Returns the network unchanged and
/// adds no trajectory entry.
std::shared_ptr<const Pass> make_cache_pass(std::string path);

/// The "check" script word: full invariant validation of the current network
/// (check::validate_at at full level), throwing std::logic_error with the
/// diagnostic summary on the first violation.  The network passes through
/// untouched; the trajectory records the validation time.
std::shared_ptr<const Pass> make_check_pass();

}  // namespace mighty::flow
