#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "flow/pass.hpp"

/// \file pipeline.hpp
/// \brief Composition of passes into optimization flows.
///
/// A Pipeline is an ordered sequence of passes with combinators for the
/// iterated and interleaved flows behind the paper's best results (Sec. V-C:
/// "running it several times or combining it with other optimization ...
/// algorithms will likely lead to further improvements"):
///
///   flow::Session session;
///   auto flow = flow::Pipeline()
///                   .rewrite("TF")
///                   .then(flow::Pipeline().rewrite("BFD").size_opt()
///                             .until_convergence())
///                   .lut_map();
///   flow::FlowReport report;
///   auto optimized = flow.run(mig, session, &report);
///
/// The same flow as a script, for CLIs and shells:
///
///   auto flow = flow::Pipeline::parse("TF; (BFD; size)*; map");
///
/// Script grammar, the one definition (case-insensitive; whitespace between
/// tokens is ignored, but a token cannot be split — "ma p" is not "map";
/// empty items such as "TF;;BF" or a trailing ';' are skipped):
///   sequence := item (';' item)*
///   item     := atom ['*' count             -- repeat n times
///                    | '*' '<' count        -- to convergence, round cap
///                    | '*']                 -- to convergence, default cap
///   atom     := '(' sequence ')' | word
///   word     := T|TD|TF|TFD|B|BD|BF|BFD     -- functional-hashing variants
///             | variant '5'                 -- 5-input-cut extension (TF5, ...)
///             | size | depth                -- algebraic optimization
///             | map[k]                      -- k-LUT mapping, k=3..6, default 6
///             | parallel:n                  -- run later passes on n threads
///             | cache:path                  -- persistent 5-input oracle cache
///             | check                       -- full invariant validation
///
/// parse_script() turns a script into its literal syntax tree; Pipeline
/// builds its passes from that tree, and the autotuner (autotune.hpp)
/// mutates it.

namespace mighty::flow {

struct RunControl;

/// Round cap until_convergence() applies when none is given; the bare "x*"
/// script form maps to exactly this value.
inline constexpr uint32_t kDefaultConvergenceRounds = 16;

/// One item of a script's syntax tree, exactly as written: nothing is
/// normalized, so an unmodified "( ... )" group and a parenthesized single
/// word stay groups (to_script() of the pipeline built from the tree prints
/// neither).
struct ScriptItem {
  enum class Modifier : uint8_t { once, repeat, converge };

  std::shared_ptr<const Pass> pass;  ///< the word; null for a group
  std::vector<ScriptItem> body;      ///< the group's items
  Modifier modifier = Modifier::once;
  uint32_t count = 0;  ///< repeat times, or convergence round cap ("*" = default)

  bool is_group() const { return pass == nullptr; }
};

/// A script's syntax tree: its top-level sequence of items.
using ScriptTree = std::vector<ScriptItem>;

/// Parses the grammar above into its literal syntax tree, building and
/// validating every word's pass.  Throws api::ScriptError (a
/// std::invalid_argument) naming the offending token and its position.
ScriptTree parse_script(const std::string& script);

class Pipeline {
public:
  // --- building --------------------------------------------------------------

  /// Appends an arbitrary pass; returns *this for chaining.
  Pipeline& add(std::shared_ptr<const Pass> pass);
  /// Appends every pass of `other` (shared, not copied).
  Pipeline& then(const Pipeline& other);
  /// Appends a functional-hashing pass by paper acronym ("TF", "bfd", ...).
  Pipeline& rewrite(const std::string& variant);
  /// Appends a functional-hashing pass with explicit parameters.
  Pipeline& rewrite(const opt::RewriteParams& params, std::string name);
  /// Appends algebraic size optimization.
  Pipeline& size_opt(const algebra::SizeOptParams& params = {});
  /// Appends algebraic depth optimization.
  Pipeline& depth_opt(const algebra::DepthOptParams& params = {});
  /// Appends a k-LUT mapping (analysis) pass.
  Pipeline& lut_map(const map::MapParams& params = {});
  /// Appends a "parallel:n" directive: later passes run on n threads.
  Pipeline& parallel(uint32_t threads);
  /// Appends a "cache:<path>" directive: attaches the session's persistent
  /// 5-input oracle cache before later passes run.
  Pipeline& cache(std::string path);
  /// Appends a "check" pass: full invariant validation of the current
  /// network (check::validate_at full level, regardless of the session's
  /// check level), throwing std::logic_error on the first violation.
  Pipeline& check();

  // --- combinators (value semantics; *this is not modified) ------------------

  /// The whole pipeline as one unit, executed `times` times.
  Pipeline repeat(uint32_t times) const;

  /// The whole pipeline as one unit, executed until a round fails to improve
  /// the network (or `max_rounds` is reached).  A round improves when it
  /// reduces (live gates, depth) lexicographically — so size-oriented and
  /// depth-oriented bodies both converge.  The non-improving final round is
  /// rolled back: its output and its trajectory entries are discarded, and
  /// the best network seen is returned.  Terminates by strict improvement.
  Pipeline until_convergence(uint32_t max_rounds = kDefaultConvergenceRounds) const;

  /// Round-robin interleaving: the first pass of every phase, then the second
  /// of every phase, and so on (phases shorter than the longest simply drop
  /// out).  With single-pass phases this is plain concatenation — combine
  /// with repeat()/until_convergence() for alternating rounds.
  static Pipeline interleave(std::initializer_list<Pipeline> phases);
  static Pipeline interleave(const std::vector<Pipeline>& phases);

  /// Parses the flow-script grammar above: from_tree(parse_script(script)).
  /// Throws std::invalid_argument with the offending token on malformed
  /// scripts.
  static Pipeline parse(const std::string& script);

  /// The pipeline a syntax tree describes, with every convergence round cap
  /// clamped to at most `max_rounds` (the autotuner's budgeted rungs).
  static Pipeline from_tree(const ScriptTree& tree,
                            uint32_t max_rounds = UINT32_MAX);

  // --- execution -------------------------------------------------------------

  /// Runs every pass in order.  When `report` is given it is reset and filled
  /// with the per-pass trajectory, whole-flow totals and the oracle counters
  /// accumulated during this run.  When `control` is given, cancellation and
  /// the node/wall/conflict budgets are enforced at every pass boundary (any
  /// nesting depth); a violation throws api::Error with the matching code
  /// (cancelled, node_budget_exceeded, wall_budget_exceeded,
  /// conflict_budget_exceeded).  `control` must outlive the call.
  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport* report = nullptr,
               const RunControl* control = nullptr) const;

  /// Executes the passes appending their trajectory entries to `report`
  /// without touching its totals — the building block of composite passes
  /// (repeat, until_convergence).  Most callers want run().
  mig::Mig run_into(const mig::Mig& mig, Session& session,
                    FlowReport& report) const;

  // --- inspection ------------------------------------------------------------

  size_t num_passes() const { return passes_.size(); }
  bool empty() const { return passes_.empty(); }
  const Pass& pass(size_t i) const { return *passes_[i]; }

  /// True when any pass (at any nesting depth) may query the session oracle.
  bool uses_oracle() const;
  /// True when any pass (at any nesting depth) reconfigures the session.
  bool mutates_session() const;

  /// Canonical script form; parse(p.to_script()) is structurally identical
  /// to p (the round trip is what deduplication, reporting and reproducing a
  /// tuned flow rely on — see autotune.hpp).
  std::string to_script() const;

private:
  std::vector<std::shared_ptr<const Pass>> passes_;
};

}  // namespace mighty::flow
