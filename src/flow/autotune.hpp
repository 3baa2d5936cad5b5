#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/corpus.hpp"
#include "flow/pipeline.hpp"

/// \file autotune.hpp
/// \brief Automatic search over the flow-script grammar.
///
/// The paper's best results come from hand-tuned iterated/interleaved flows
/// ("running it several times or combining it with other optimization
/// algorithms will likely lead to further improvements", Sec. V-C).  The
/// Autotuner makes that tuning automatic: the script grammar *is* the search
/// space.  Candidates are script syntax trees as parse_script() builds them
/// — pass words, repeat counts, round caps, group structure — seeded with
/// the paper's flows and mutated on the tree (swap adjacent passes,
/// bump/shrink counts, wrap or unwrap "(...)*" groups, replace/insert/delete
/// pass words).
///
///   flow::Session session;
///   auto corpus = flow::Corpus::generated_arithmetic();
///   flow::Autotuner tuner(session, {.objective = flow::Objective::size});
///   flow::TuneReport report;
///   auto best = tuner.tune(corpus, &report);
///   fputs(report.summary().c_str(), stdout);
///   // reproduce later:  Pipeline::parse(report.best().script)
///
/// Mechanics:
///
///  * every candidate is evaluated with the existing BatchRunner on the one
///    shared Session, so the 5-input oracle (and the NPN memo) stays warm
///    across the whole search — evaluating hundreds of scripts costs far
///    less than hundreds of cold runs;
///  * candidates are deduplicated by canonical script form: two mutants whose
///    trees build the same pipeline share one evaluation
///    (Pipeline::from_tree(tree, cap).to_script() is the dedup key);
///  * successive halving prunes losers early: every rung clamps the
///    convergence-round caps of all "(...)*" groups to a small budget,
///    halves the pool on the objective, and only the leaders graduate to the
///    full-budget rung that the report records;
///  * the search is deterministic: mutation uses a seeded RNG, selection
///    breaks objective ties on the canonical script, and pass execution is
///    bit-identical at any thread count — tuning with `threads=N` returns
///    the same report (and Pareto front) as `threads=1`, only faster.
///
/// Wall time is reported per entry but is never a selection or dominance
/// criterion — that would make the result depend on machine noise.

namespace mighty::flow {

class Session;

/// What the search minimizes, summed over the corpus.
enum class Objective {
  size,     ///< live majority gates
  depth,    ///< network depth
  product,  ///< per-network size * depth, summed
};

/// Parses "size" / "depth" / "product" (alias "size*depth"), case-insensitive.
/// Throws std::invalid_argument naming the offending string otherwise.
Objective parse_objective(const std::string& name);
const char* objective_name(Objective objective);

/// The paper-default flow every search is seeded with — and the baseline any
/// tuned script has to beat (bench/autotune gates on exactly this).
inline constexpr const char* kBaselineScript = "(TF;BFD;size)*";

struct TuneParams {
  Objective objective = Objective::size;
  /// Candidate pool per generation (after deduplication).
  uint32_t population = 16;
  /// Mutate-and-evaluate cycles after the seed generation.
  uint32_t generations = 2;
  /// RNG seed for mutation; same seed + same corpus = same search.
  uint32_t seed = 1;
  /// Upper bound on pass words per candidate; mutations that would exceed it
  /// are discarded (scripts grow without bound otherwise).
  uint32_t max_words = 12;
  /// Convergence-round cap of the final (full-budget) rung; intermediate
  /// successive-halving rungs use fixed smaller caps.
  uint32_t full_round_cap = kDefaultConvergenceRounds;
  /// Adds the 5-input-cut words (TF5, TFD5, BF5, BFD5) to the mutation
  /// vocabulary.  Off by default: 5-cut passes synthesize through SAT, which
  /// multiplies evaluation cost (the warm persistent cache mitigates, but a
  /// first search pays).
  bool five_input_words = false;
  /// Mutation vocabulary, one pass word per entry; empty selects the default
  /// (the four F-variants plus size and depth, extended by five_input_words).
  std::vector<std::string> vocabulary;
  /// Seed scripts; empty selects the paper's flows (always including
  /// kBaselineScript).  Must parse and must not contain session directives
  /// ("parallel:n", "cache:<path>") — batch evaluation rejects those.
  std::vector<std::string> seed_scripts;
};

/// One fully evaluated candidate.
struct TuneEntry {
  std::string script;      ///< canonical form; Pipeline::parse-able
  uint32_t size = 0;       ///< live gates, summed over the corpus
  uint64_t depth = 0;      ///< depth, summed over the corpus
  uint64_t objective = 0;  ///< value under TuneParams::objective (lower wins)
  double seconds = 0.0;    ///< wall of the full-budget evaluation (informative)
  bool pareto = false;     ///< on the (size, depth) Pareto front
};

struct TuneReport {
  /// The paper-default kBaselineScript at full budget — the bar to beat.
  TuneEntry baseline;
  /// Every candidate that graduated to the full-budget rung, best objective
  /// first (ties broken on the script, so the order is deterministic).
  std::vector<TuneEntry> evaluated;

  size_t candidates_generated = 0;  ///< accepted into some pool
  size_t duplicates_pruned = 0;     ///< mutants canonicalizing to a seen script
  size_t invalid_rejected = 0;      ///< mutants that failed to parse or run
  size_t evaluations = 0;           ///< batch evaluations, all rungs
  double seconds = 0.0;             ///< wall of the whole search

  /// Best full-budget entry; the baseline when nothing else graduated.
  const TuneEntry& best() const;
  /// The (size, depth) Pareto front among `evaluated`, best objective first.
  /// Wall time is listed per entry but never decides dominance (determinism).
  std::vector<TuneEntry> pareto_front() const;
  /// Human-readable table: Pareto front, baseline, best, search counters.
  std::string summary() const;
};

/// Searches the flow-script grammar for the best pipeline under an objective.
class Autotuner {
public:
  explicit Autotuner(Session& session, TuneParams params = {});

  /// Tunes over a whole corpus; returns the best pipeline found (re-parsed
  /// from its canonical script, so running it reproduces the reported
  /// metrics bit-identically).  When `report` is given it is reset and
  /// filled.  Throws std::invalid_argument on an empty corpus or malformed
  /// TuneParams (bad seed script, a vocabulary entry that is not one pass
  /// word, population 0).
  Pipeline tune(const Corpus& corpus, TuneReport* report = nullptr);

  /// Tunes a single network (a corpus of one).
  Pipeline tune(const mig::Mig& network, TuneReport* report = nullptr);

private:
  Session& session_;
  TuneParams params_;
};

}  // namespace mighty::flow
