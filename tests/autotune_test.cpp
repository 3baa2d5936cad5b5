#include "flow/autotune.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "test_util.hpp"

namespace mighty::flow {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

Session make_session() { return Session(db()); }

/// A two-network corpus small enough that a whole search stays test-sized
/// (the TSan leg runs this file too), large enough that flows differ.
Corpus small_corpus() {
  Corpus corpus;
  corpus.add("adder10", algebra::depth_optimize(gen::make_adder_n(10)));
  corpus.add("mult4", algebra::depth_optimize(gen::make_multiplier_n(4)));
  return corpus;
}

/// Small deterministic search parameters shared by the tests below.
TuneParams small_params(Objective objective = Objective::size) {
  TuneParams params;
  params.objective = objective;
  params.population = 6;
  params.generations = 1;
  params.seed = 7;
  return params;
}

// --- objective parsing --------------------------------------------------------

TEST(AutotuneObjectiveTest, ParsesNamesCaseInsensitively) {
  EXPECT_EQ(parse_objective("size"), Objective::size);
  EXPECT_EQ(parse_objective("Depth"), Objective::depth);
  EXPECT_EQ(parse_objective("PRODUCT"), Objective::product);
  EXPECT_EQ(parse_objective("size*depth"), Objective::product);
  EXPECT_THROW(parse_objective("area"), std::invalid_argument);
  EXPECT_STREQ(objective_name(Objective::depth), "depth");
}

// --- parameter validation -----------------------------------------------------

TEST(AutotuneTest, RejectsMalformedInputs) {
  auto session = make_session();
  TuneReport report;

  EXPECT_THROW(Autotuner(session).tune(Corpus{}, &report), std::invalid_argument);

  TuneParams zero_pop = small_params();
  zero_pop.population = 0;
  EXPECT_THROW(Autotuner(session, zero_pop).tune(small_corpus()),
               std::invalid_argument);

  TuneParams bad_seed = small_params();
  bad_seed.seed_scripts = {"TF;frob"};
  EXPECT_THROW(Autotuner(session, bad_seed).tune(small_corpus()),
               std::invalid_argument);

  // Session directives reconfigure the engine mid-batch; the search space
  // excludes them up front rather than failing a generation in.
  TuneParams directive_seed = small_params();
  directive_seed.seed_scripts = {"parallel:2;TF"};
  EXPECT_THROW(Autotuner(session, directive_seed).tune(small_corpus()),
               std::invalid_argument);

  TuneParams bad_vocabulary = small_params();
  bad_vocabulary.vocabulary = {"TF", "frob"};
  EXPECT_THROW(Autotuner(session, bad_vocabulary).tune(small_corpus()),
               std::invalid_argument);

  // Oversized counts in a seed script fail as "too large" — never wrap, and
  // never stop mid-number with a misleading error (mirrors the main parser).
  TuneParams huge_count = small_params();
  huge_count.seed_scripts = {"TF*4294967296"};
  try {
    Autotuner(session, huge_count).tune(small_corpus());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos)
        << e.what();
  }
}

// --- search invariants --------------------------------------------------------

TEST(AutotuneTest, BaselineIsAlwaysEvaluatedAndNeverBeaten) {
  auto session = make_session();
  TuneReport report;
  Autotuner(session, small_params()).tune(small_corpus(), &report);

  // The baseline graduates unconditionally and is the bar to beat.
  EXPECT_EQ(report.baseline.script, Pipeline::parse(kBaselineScript).to_script());
  EXPECT_GT(report.baseline.size, 0u);
  EXPECT_GT(report.baseline.objective, 0u);

  // best() minimizes the objective over everything evaluated — the baseline
  // is in that set, so the winner can only tie or beat it.
  EXPECT_LE(report.best().objective, report.baseline.objective);

  // evaluated is sorted best-first with deterministic tie-breaks.
  ASSERT_FALSE(report.evaluated.empty());
  for (size_t i = 1; i < report.evaluated.size(); ++i) {
    const auto& a = report.evaluated[i - 1];
    const auto& b = report.evaluated[i];
    EXPECT_LE(std::make_pair(a.objective, a.script),
              std::make_pair(b.objective, b.script));
  }

  // Scripts are canonical (round-trip stable) and unique after dedup.
  for (const auto& entry : report.evaluated) {
    EXPECT_EQ(Pipeline::parse(entry.script).to_script(), entry.script);
  }
  for (size_t i = 1; i < report.evaluated.size(); ++i) {
    EXPECT_NE(report.evaluated[i].script, report.evaluated[i - 1].script);
  }
  EXPECT_GE(report.evaluations, report.evaluated.size());
  EXPECT_GE(report.candidates_generated, report.evaluated.size());
  EXPECT_FALSE(report.summary().empty());

  // The standalone baseline copy carries the same Pareto flag as its twin
  // in `evaluated`.
  const auto twin = std::find_if(
      report.evaluated.begin(), report.evaluated.end(),
      [&](const TuneEntry& e) { return e.script == report.baseline.script; });
  ASSERT_NE(twin, report.evaluated.end());
  EXPECT_EQ(report.baseline.pareto, twin->pareto);
}

TEST(AutotuneTest, ParetoFrontIsMutuallyNonDominating) {
  auto session = make_session();
  TuneReport report;
  Autotuner(session, small_params()).tune(small_corpus(), &report);

  const auto front = report.pareto_front();
  ASSERT_FALSE(front.empty());
  for (const auto& a : front) {
    for (const auto& b : front) {
      const bool dominates = a.size <= b.size && a.depth <= b.depth &&
                             (a.size < b.size || a.depth < b.depth);
      EXPECT_FALSE(dominates) << a.script << " dominates " << b.script;
    }
  }
  // Every non-front entry is dominated by some front entry.
  for (const auto& entry : report.evaluated) {
    if (entry.pareto) continue;
    const bool dominated = std::any_of(
        front.begin(), front.end(), [&](const TuneEntry& f) {
          return f.size <= entry.size && f.depth <= entry.depth &&
                 (f.size < entry.size || f.depth < entry.depth);
        });
    EXPECT_TRUE(dominated) << entry.script;
  }
}

TEST(AutotuneTest, WinnerReproducesBitIdentically) {
  auto session = make_session();
  const auto corpus = small_corpus();
  TuneReport report;
  Pipeline best = Autotuner(session, small_params()).tune(corpus, &report);

  // The returned pipeline is the winner's canonical script.
  EXPECT_EQ(best.to_script(), report.best().script);

  // Re-parsing the reported script and re-running it reproduces the
  // reported metrics and the exact networks — the reproducibility contract.
  const auto reparsed = Pipeline::parse(report.best().script);
  BatchReport first, second;
  const auto a = BatchRunner(session).run(corpus, best, &first);
  const auto b = BatchRunner(session).run(corpus, reparsed, &second);
  EXPECT_EQ(first.size_after, report.best().size);
  EXPECT_EQ(first.depth_after, report.best().depth);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    std::ostringstream osa, osb;
    io::write_blif(osa, a[i]);
    io::write_blif(osb, b[i]);
    EXPECT_EQ(osa.str(), osb.str()) << corpus[i].name;
  }
}

TEST(AutotuneTest, SingleNetworkOverloadMatchesSingletonCorpus) {
  const auto network = algebra::depth_optimize(gen::make_adder_n(8));

  auto session_a = make_session();
  TuneReport direct;
  Autotuner(session_a, small_params()).tune(network, &direct);

  Corpus corpus;
  corpus.add("network", network);
  auto session_b = make_session();
  TuneReport wrapped;
  Autotuner(session_b, small_params()).tune(corpus, &wrapped);

  ASSERT_EQ(direct.evaluated.size(), wrapped.evaluated.size());
  for (size_t i = 0; i < direct.evaluated.size(); ++i) {
    EXPECT_EQ(direct.evaluated[i].script, wrapped.evaluated[i].script);
    EXPECT_EQ(direct.evaluated[i].size, wrapped.evaluated[i].size);
  }
}

// --- determinism across thread counts (the `parallel` surface) ----------------

TEST(AutotuneTest, SearchIsDeterministicAcrossThreadCounts) {
  // `threads=N` evaluations are bit-identical to `threads=1` (PR 2/3), the
  // mutation RNG is seeded, and ties break on canonical scripts — so the
  // whole search, including the Pareto front, must not depend on the thread
  // count (only wall time may).
  const auto corpus = small_corpus();

  auto run = [&](uint32_t threads) {
    auto session = make_session();
    session.set_threads(threads);
    TuneReport report;
    Autotuner(session, small_params()).tune(corpus, &report);
    return report;
  };
  const TuneReport sequential = run(1);
  const TuneReport parallel = run(3);

  ASSERT_EQ(sequential.evaluated.size(), parallel.evaluated.size());
  for (size_t i = 0; i < sequential.evaluated.size(); ++i) {
    const auto& a = sequential.evaluated[i];
    const auto& b = parallel.evaluated[i];
    EXPECT_EQ(a.script, b.script);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.pareto, b.pareto);
  }
  EXPECT_EQ(sequential.best().script, parallel.best().script);
  EXPECT_EQ(sequential.baseline.objective, parallel.baseline.objective);

  const auto front_a = sequential.pareto_front();
  const auto front_b = parallel.pareto_front();
  ASSERT_EQ(front_a.size(), front_b.size());
  for (size_t i = 0; i < front_a.size(); ++i) {
    EXPECT_EQ(front_a[i].script, front_b[i].script);
  }
}

TEST(AutotuneTest, NonDefaultRoundCapAppliesToBaselineToo) {
  // The bar to beat runs under the same convergence budget as the
  // candidates; a 16-round baseline against 2-round candidates would make
  // "strictly beats the baseline" unwinnable.
  auto session = make_session();
  TuneParams params = small_params();
  params.full_round_cap = 2;
  TuneReport report;
  Autotuner(session, params).tune(small_corpus(), &report);
  EXPECT_EQ(report.baseline.script, "(TF;BFD;size)*<2");
  const auto count_script = [&](const std::string& script) {
    return std::count_if(
        report.evaluated.begin(), report.evaluated.end(),
        [&](const TuneEntry& e) { return e.script == script; });
  };
  EXPECT_EQ(count_script("(TF;BFD;size)*<2"), 1);
  EXPECT_EQ(count_script("(TF;BFD;size)*"), 0)
      << "baseline evaluated at the 16-round default despite the cap";
}

// --- objectives ---------------------------------------------------------------

TEST(AutotuneTest, DepthObjectiveRanksByDepth) {
  auto session = make_session();
  TuneReport report;
  Autotuner(session, small_params(Objective::depth)).tune(small_corpus(), &report);
  for (const auto& entry : report.evaluated) {
    EXPECT_EQ(entry.objective, entry.depth) << entry.script;
  }
}

TEST(AutotuneTest, ProductObjectiveIsPerNetworkNotCorpusWide) {
  // product must sum size*depth per network; summing the corpus-wide totals
  // first would let one network's depth multiply another's size.
  auto session = make_session();
  const auto corpus = small_corpus();
  TuneReport report;
  Autotuner(session, small_params(Objective::product)).tune(corpus, &report);

  const auto& entry = report.baseline;
  BatchReport batch;
  BatchRunner(session).run(corpus, Pipeline::parse(entry.script), &batch);
  uint64_t expected = 0;
  for (const auto& network : batch.networks) {
    expected += static_cast<uint64_t>(network.flow.size_after) *
                network.flow.depth_after;
  }
  EXPECT_EQ(entry.objective, expected);
  const uint64_t corpus_wide =
      static_cast<uint64_t>(batch.size_after) * batch.depth_after;
  EXPECT_NE(expected, corpus_wide);  // the distinction is observable
}

// --- pinned searches -----------------------------------------------------------

/// A search's deterministic outcome as text: every evaluated script with its
/// objective, size and depth, then the search counters.  Mutation sites are
/// the seeds' literal syntax trees, so any change to how a script is parsed
/// into the tree, mutated or canonicalized moves a line.
std::string pinned_outcome(const TuneReport& report) {
  std::ostringstream os;
  for (const auto& entry : report.evaluated) {
    os << entry.script << ' ' << entry.objective << ' ' << entry.size << ' '
       << entry.depth << '\n';
  }
  os << "candidates " << report.candidates_generated << " duplicates "
     << report.duplicates_pruned << " invalid " << report.invalid_rejected
     << " evaluations " << report.evaluations << '\n';
  return os.str();
}

TEST(AutotunePinTest, DefaultSeedsMatchRecordedSearch) {
  auto session = make_session();
  TuneReport report;
  Autotuner(session, small_params()).tune(small_corpus(), &report);
  EXPECT_EQ(pinned_outcome(report),
            "(TF;BF;size)* 247 247 27\n"
            "BF;size 247 247 26\n"
            "(TF;BFD;size)* 248 248 22\n"
            "candidates 10 duplicates 1 invalid 0 evaluations 14\n");
}

TEST(AutotunePinTest, LiteralSeedsMatchRecordedSearch) {
  // Seeds whose literal trees differ from their canonical forms: an
  // unmodified group, a parenthesized single word, nested modifiers and a
  // repeat of one.
  auto session = make_session();
  TuneParams params = small_params();
  params.seed_scripts = {"(TF;size);BFD", "(TF)*<3", "(BF*2)*3", "TF*1"};
  TuneReport report;
  Autotuner(session, params).tune(small_corpus(), &report);
  EXPECT_EQ(pinned_outcome(report),
            "(BF*2)*3 247 247 28\n"
            "(TF;BF;size)* 247 247 27\n"
            "(TF;BFD;size)* 248 248 22\n"
            "candidates 10 duplicates 0 invalid 0 evaluations 15\n");
}

TEST(AutotunePinTest, LongerLiteralSearchMatchesRecordedSearch) {
  // More generations over a larger pool reach every mutation operator.
  auto session = make_session();
  TuneParams params = small_params(Objective::product);
  params.population = 12;
  params.generations = 3;
  params.seed_scripts = {"(TF;size);BFD", "(TF)*<3", "(BF*2)*3", "TF*1"};
  TuneReport report;
  Autotuner(session, params).tune(small_corpus(), &report);
  EXPECT_EQ(pinned_outcome(report),
            "(TF*;(BFD;depth)*)* 2728 248 22\n"
            "(TF*;size)*;BFD 2728 248 22\n"
            "(TF*;size)*;TF;BFD 2728 248 22\n"
            "(TF;(BFD;TF)*)* 2728 248 22\n"
            "(TF;(BFD;depth)*)* 2728 248 22\n"
            "(TF;(BFD;size)*)* 2728 248 22\n"
            "(TF;BFD)* 2728 248 22\n"
            "(TF;BFD;size)* 2728 248 22\n"
            "TF*2;size;BFD 2728 248 22\n"
            "TF*;size;BFD 2728 248 22\n"
            "candidates 39 duplicates 7 invalid 0 evaluations 58\n");
}

}  // namespace
}  // namespace mighty::flow
