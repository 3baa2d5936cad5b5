#include "flow/flow.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "opt/rewrite.hpp"
#include "test_util.hpp"

namespace mighty::flow {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

/// A session over the shared test database (copied; the copy is cheap).
Session make_session() { return Session(db()); }

// --- flow-script parsing -----------------------------------------------------

TEST(FlowParseTest, SingleVariant) {
  const auto p = Pipeline::parse("TF");
  EXPECT_EQ(p.num_passes(), 1u);
  EXPECT_EQ(p.to_script(), "TF");
}

TEST(FlowParseTest, CaseAndWhitespaceInsensitive) {
  EXPECT_EQ(Pipeline::parse("  tf ;\tBfD * 3 ; size ").to_script(), "TF;BFD*3;size");
  EXPECT_EQ(Pipeline::parse("DEPTH;Map").to_script(), "depth;map");
}

TEST(FlowParseTest, GroupsRepeatsAndConvergence) {
  EXPECT_EQ(Pipeline::parse("(TF;size)*;map4").to_script(), "(TF;size)*;map4");
  EXPECT_EQ(Pipeline::parse("(BFD;size)*2").to_script(), "(BFD;size)*2");
  EXPECT_EQ(Pipeline::parse("TF*").to_script(), "TF*");
  EXPECT_EQ(Pipeline::parse("((T;B)*2;size)*3").to_script(), "((T;B)*2;size)*3");
  EXPECT_EQ(Pipeline::parse("(BF;size)*<4").to_script(), "(BF;size)*<4");
  EXPECT_EQ(Pipeline::parse("TF*<16").to_script(), "TF*");  // the default cap
}

TEST(FlowParseTest, NestedCombinatorsRoundTrip) {
  const auto nested = Pipeline().rewrite("BF").until_convergence().repeat(3);
  EXPECT_EQ(nested.to_script(), "(BF*)*3");
  EXPECT_EQ(Pipeline::parse(nested.to_script()).to_script(), nested.to_script());

  const auto stacked = Pipeline().rewrite("BF").repeat(2).repeat(3);
  EXPECT_EQ(stacked.to_script(), "(BF*2)*3");
  EXPECT_EQ(Pipeline::parse(stacked.to_script()).to_script(), stacked.to_script());

  const auto capped = Pipeline().rewrite("TF").size_opt().until_convergence(4);
  EXPECT_EQ(capped.to_script(), "(TF;size)*<4");
  EXPECT_EQ(Pipeline::parse(capped.to_script()).to_script(), capped.to_script());
}

TEST(FlowParseTest, EmptyItemsAreSkipped) {
  EXPECT_EQ(Pipeline::parse("TF;;BF;").to_script(), "TF;BF");
  EXPECT_TRUE(Pipeline::parse("").empty());
  EXPECT_TRUE(Pipeline::parse(" ; ; ").empty());
}

TEST(FlowParseTest, RoundTripsThroughToString) {
  for (const auto* script :
       {"TF", "TF;BFD", "(TF;size)*;map", "B*4;depth;map4", "TFD;(BD;size)*2"}) {
    const auto once = Pipeline::parse(script).to_script();
    EXPECT_EQ(Pipeline::parse(once).to_script(), once) << script;
  }
}

TEST(FlowParseTest, RejectsMalformedScripts) {
  EXPECT_THROW(Pipeline::parse("XY"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF BFD"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF**"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF*0"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("(TF"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF)"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("()"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("*3"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("map1"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("map2"), std::invalid_argument);  // below a gate's 3 fanins
  EXPECT_THROW(Pipeline::parse("map7"), std::invalid_argument);  // above Cut::max_size
  EXPECT_THROW(Pipeline::parse("7"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF*<0"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF*<"), std::invalid_argument);
}

TEST(FlowParseTest, ErrorsNameTheOffendingToken) {
  try {
    Pipeline::parse("TF;frob;BF");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frob"), std::string::npos) << e.what();
  }
}

// --- parser negative paths (overflow, error positions) ------------------------

/// The "position N" a parse error reports, or SIZE_MAX when none/unparseable.
size_t error_position(const std::string& script) {
  try {
    Pipeline::parse(script);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const auto at = what.find("position ");
    if (at == std::string::npos) return SIZE_MAX;
    return static_cast<size_t>(std::stoul(what.substr(at + 9)));
  }
  return SIZE_MAX;
}

TEST(FlowParseTest, RejectsCountsThatOverflowUint32) {
  // 2^32 exactly: silently wrapping to 0 would turn "repeat 4294967296
  // times" into a parse of "TF*0" — it must be rejected as too large.
  EXPECT_THROW(Pipeline::parse("TF*4294967296"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF*<4294967296"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("TF*18446744073709551616"), std::invalid_argument);
  // A thousand digits must neither overflow the accumulator nor crash.
  EXPECT_THROW(Pipeline::parse("TF*1" + std::string(1000, '0')),
               std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("parallel:4294967296"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("map4294967296"), std::invalid_argument);
  try {
    Pipeline::parse("TF*4294967296");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos)
        << e.what();
  }
}

TEST(FlowParseTest, ErrorPositionsPointAtTheTokenStart) {
  // Unknown pass: at the word's first character, also behind padding.
  EXPECT_EQ(error_position("frob"), 0u);
  EXPECT_EQ(error_position("   frob"), 3u);
  EXPECT_EQ(error_position("TF;  frob;BF"), 5u);
  // Count errors: at the count's first digit, never past the digits.
  EXPECT_EQ(error_position("TF*0"), 3u);
  EXPECT_EQ(error_position("  TF*0"), 5u);
  EXPECT_EQ(error_position("TF*< 0"), 5u);
  EXPECT_EQ(error_position("TF*4294967296"), 3u);
  EXPECT_EQ(error_position("  TF * 4294967296 ; BF"), 7u);
  EXPECT_EQ(error_position("map99"), 3u);
  EXPECT_EQ(error_position("parallel:0"), 9u);
  // Structural errors: at the offending character.
  EXPECT_EQ(error_position("TF)"), 2u);
  EXPECT_EQ(error_position("TF  )"), 4u);
  EXPECT_EQ(error_position("TF BF"), 3u);
}

TEST(FlowParseTest, ToScriptRoundTripsEveryProduction) {
  // parse(p.to_script()) must be structurally identical to p for every
  // grammar production — canonical scripts are the autotuner's dedup key and
  // the reproducibility contract of every report.
  for (const auto* script : {
           "TF", "T", "TD", "TFD", "B", "BD", "BF", "BFD",  // variants
           "TF5", "BFD5",                                   // 5-cut extensions
           "size", "depth",                                 // algebraic
           "map", "map3", "map4",                           // mapping
           "parallel:1", "parallel:8",                      // session directives
           "cache:/tmp/c5.db", "cache:rel/Mixed.Case",      //
           "TF*3", "TF*", "TF*<2",                          // modifiers
           "(TF;size)*", "(BFD;size)*2", "(BF;size)*<4",    // groups
           "((T;B)*2;size)*3", "(TF;(BFD;size)*<3)*",       // nesting
           "parallel:2;cache:/tmp/x;TF5;(BFD;size)*<3;map5;depth*2",
       }) {
    const Pipeline first = Pipeline::parse(script);
    const std::string canonical = first.to_script();
    const Pipeline second = Pipeline::parse(canonical);
    EXPECT_EQ(second.to_script(), canonical) << script;
    ASSERT_EQ(second.num_passes(), first.num_passes()) << script;
    for (size_t i = 0; i < first.num_passes(); ++i) {
      EXPECT_EQ(second.pass(i).name(), first.pass(i).name()) << script;
    }
  }
  // to_string stays an alias of to_script.
  EXPECT_EQ(Pipeline::parse("(TF;size)*;map").to_script(),
            Pipeline::parse("(TF;size)*;map").to_script());
}

// --- variant_params satellite (case handling, error message) -----------------

TEST(FlowParseTest, VariantParamsAcceptsLowerAndMixedCase) {
  EXPECT_EQ(opt::variant_params("bfd").direction, opt::Direction::bottom_up);
  EXPECT_TRUE(opt::variant_params("bfd").ffr_partition);
  EXPECT_TRUE(opt::variant_params("bfd").depth_preserving);
  EXPECT_EQ(opt::variant_params("Tf").direction, opt::Direction::top_down);
  EXPECT_TRUE(opt::variant_params("tF").ffr_partition);
}

TEST(FlowParseTest, VariantParamsErrorsIncludeOffendingString) {
  try {
    opt::variant_params("TQX");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("TQX"), std::string::npos) << e.what();
  }
  try {
    opt::variant_params("FD");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FD"), std::string::npos) << e.what();
  }
}

// --- session -----------------------------------------------------------------

TEST(FlowSessionTest, DatabasePathHonorsEnvironment) {
  // Materialize the shared database first so no later test rebuilds it.
  ASSERT_EQ(db().num_entries(), 222u);
  const char* saved = std::getenv("MIGHTY_DB_PATH");
  const std::string saved_value = saved ? saved : "";
  setenv("MIGHTY_DB_PATH", "/tmp/mighty_env_test.db", 1);
  EXPECT_EQ(exact::default_database_path(), "/tmp/mighty_env_test.db");
  EXPECT_EQ(Session().database_path(), "/tmp/mighty_env_test.db");
  if (saved) {
    setenv("MIGHTY_DB_PATH", saved_value.c_str(), 1);
  } else {
    unsetenv("MIGHTY_DB_PATH");
    EXPECT_EQ(exact::default_database_path(), "data/mig_npn4.db");
  }
}

TEST(FlowSessionTest, OracleMaterializesLazilyAndIsShared) {
  auto session = make_session();
  EXPECT_EQ(session.oracle_if_created(), nullptr);
  const auto m = testutil::random_mig(5, 30, 3, 7);
  Pipeline().rewrite("T").run(m, session);
  ASSERT_NE(session.oracle_if_created(), nullptr);
  const uint64_t queries_after_first = session.oracle_if_created()->queries();
  EXPECT_GT(queries_after_first, 0u);
  Pipeline().rewrite("T").run(m, session);
  EXPECT_GT(session.oracle_if_created()->queries(), queries_after_first);
}

// --- persistent oracle cache through the flow layer --------------------------

TEST(FlowParseTest, CacheDirectiveParsesAndRoundTrips) {
  const auto p = Pipeline::parse("cache:/tmp/c5.db; TF5; size");
  EXPECT_EQ(p.num_passes(), 3u);
  EXPECT_EQ(p.to_script(), "cache:/tmp/c5.db;TF5;size");
  EXPECT_TRUE(p.mutates_session());
  // The path keeps its case even though pass words are case-insensitive.
  EXPECT_EQ(Pipeline::parse("CACHE:/tmp/MixedCase.db").to_script(),
            "cache:/tmp/MixedCase.db");
  EXPECT_THROW(Pipeline::parse("cache"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("cache:"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("cache:;TF"), std::invalid_argument);
  // '*' is a repeat suffix, never part of the filename.
  EXPECT_EQ(Pipeline::parse("cache:/tmp/x*2").to_script(), "cache:/tmp/x*2");
  EXPECT_EQ(Pipeline::parse("cache:/tmp/x*2").num_passes(), 1u);  // a repeat group
}

TEST(FlowSessionTest, SetCachePathRecordsWithoutMerging) {
  testutil::ScratchDir scratch("mighty_set_cache_path");
  const auto path = (scratch.dir / "c5.db").string();
  {
    SessionParams params;
    params.oracle_cache_path = path;
    Session writer(exact::Database(db()), std::move(params));
    Pipeline::parse("TF5").run(algebra::depth_optimize(gen::make_adder_n(8)), writer);
  }  // autosave

  // On a session whose oracle is already live, set_cache_path is recording
  // only — `cache save <path>` must not read the destination file; merging
  // is load_cache()'s (or materialization's) job.
  auto session = make_session();
  Pipeline::parse("TF").run(testutil::random_mig(5, 20, 2, 9), session);
  ASSERT_NE(session.oracle_if_created(), nullptr);
  ASSERT_EQ(session.oracle_if_created()->cache_stats().entries, 0u);
  session.set_cache_path(path);
  EXPECT_EQ(session.oracle_if_created()->cache_stats().entries, 0u)
      << "set_cache_path performed a merge";
  const auto r = session.load_cache();
  EXPECT_EQ(r.status, opt::ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_GT(r.adopted, 0u);
  EXPECT_EQ(session.oracle_if_created()->cache_stats().entries, r.adopted);
  session.set_cache_path("");  // keep the autosave off this scratch dir
}

TEST(FlowSessionTest, CachePersistsAcrossSessions) {
  const auto dir = std::filesystem::temp_directory_path() / "mighty_flow_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = (dir / "c5.db").string();

  const auto to_blif = [](const mig::Mig& m) {
    std::ostringstream os;
    io::write_blif(os, m);
    return os.str();
  };
  const auto network = algebra::depth_optimize(gen::make_adder_n(10));
  const auto pipeline = Pipeline::parse("TF5;size");

  std::string first_result;
  uint64_t first_syntheses = 0;
  {
    SessionParams params;
    params.oracle_cache_path = path;
    Session session(exact::Database(db()), std::move(params));
    FlowReport report;
    first_result = to_blif(pipeline.run(network, session, &report));
    first_syntheses = report.oracle_synthesized;
    // Destruction autosaves the dirty cache — no explicit save_cache here.
  }
  EXPECT_GT(first_syntheses, 0u);
  ASSERT_TRUE(std::filesystem::exists(path)) << "autosave did not write " << path;

  // A process-equivalent second session: fresh oracle, same file.
  SessionParams params;
  params.oracle_cache_path = path;
  Session session(exact::Database(db()), std::move(params));
  FlowReport report;
  const auto second_result = to_blif(pipeline.run(network, session, &report));
  EXPECT_EQ(second_result, first_result) << "persisted cache changed the result";
  EXPECT_EQ(report.oracle_synthesized, 0u)
      << "cached functions were re-synthesized after reload";
  EXPECT_GT(report.oracle_cache5_hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(FlowSessionTest, CacheDirectiveAttachesMidFlow) {
  const auto dir = std::filesystem::temp_directory_path() / "mighty_flow_cache_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = (dir / "c5.db").string();

  auto session = make_session();
  EXPECT_TRUE(session.cache_path().empty());
  const auto network = algebra::depth_optimize(gen::make_adder_n(8));
  Pipeline::parse("cache:" + path + ";TF5").run(network, session);
  EXPECT_EQ(session.cache_path(), path);
  EXPECT_GT(session.save_cache(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path));
  // Second save with nothing new: dirty tracking skips the write.
  EXPECT_EQ(session.save_cache(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(FlowSessionTest, MalformedCacheFileIsIgnoredNotFatal) {
  const auto dir = std::filesystem::temp_directory_path() / "mighty_flow_cache_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = (dir / "c5.db").string();
  std::ofstream(path) << "this is not a cache file\n";

  SessionParams params;
  params.oracle_cache_path = path;
  Session session(exact::Database(db()), std::move(params));
  EXPECT_EQ(session.load_cache().status,
            opt::ReplacementOracle::CacheLoadStatus::malformed);
  // The flow still runs, and the next save overwrites the bad file wholesale.
  const auto network = algebra::depth_optimize(gen::make_adder_n(8));
  Pipeline::parse("TF5").run(network, session);
  EXPECT_GT(session.save_cache(), 0u);
  SessionParams reload_params;
  reload_params.oracle_cache_path = path;
  Session reload(exact::Database(db()), std::move(reload_params));
  EXPECT_EQ(reload.load_cache().status,
            opt::ReplacementOracle::CacheLoadStatus::loaded);
  std::filesystem::remove_all(dir);
}

TEST(FlowBatchTest, BatchRejectsCacheDirectiveAndSavesOncePerBatch) {
  const auto dir = std::filesystem::temp_directory_path() / "mighty_batch_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = (dir / "c5.db").string();

  Corpus corpus;
  corpus.add("a", algebra::depth_optimize(gen::make_adder_n(6)));
  corpus.add("b", algebra::depth_optimize(gen::make_adder_n(8)));

  auto session = make_session();
  // Session directives are rejected inside batch pipelines...
  EXPECT_THROW(BatchRunner(session).run(corpus, Pipeline::parse("cache:" + path + ";TF")),
               std::invalid_argument);
  // ...the session-level path is the supported route; the runner saves once,
  // after the concurrent part of the batch has quiesced (threads=2 runs the
  // real two-level scheduler over the shared, persistable oracle).
  session.set_cache_path(path);
  session.set_threads(2);
  BatchReport report;
  BatchRunner(session).run(corpus, Pipeline::parse("TF5;size"), &report);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path)) << "batch did not persist the cache";
  EXPECT_EQ(session.save_cache(), 0u) << "batch left dirty entries unsaved";
  std::filesystem::remove_all(dir);
}

// --- combinators -------------------------------------------------------------

TEST(FlowPipelineTest, RepeatRunsExactlyNTimes) {
  auto session = make_session();
  const auto m = testutil::random_mig(6, 40, 4, 11);
  FlowReport report;
  Pipeline().rewrite("TF").repeat(3).run(m, session, &report);
  EXPECT_EQ(report.passes.size(), 3u);
  for (const auto& pass : report.passes) EXPECT_EQ(pass.name, "TF");
}

TEST(FlowPipelineTest, UntilConvergenceStopsAtFixpoint) {
  auto session = make_session();
  // 4-input parity from three XORs: the first global top-down pass reaches
  // the database optimum, the second proves the fixpoint, and the loop must
  // stop there.
  mig::Mig m;
  const auto pis = m.create_pis(4);
  const auto x01 = m.create_xor(pis[0], pis[1]);
  const auto x23 = m.create_xor(pis[2], pis[3]);
  m.create_po(m.create_xor(x01, x23));

  FlowReport report;
  const auto optimized =
      Pipeline().rewrite("T").until_convergence(50).run(m, session, &report);
  // The first round reaches the optimum; the round proving the fixpoint is
  // rolled back, so the trajectory holds exactly the one improving round.
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_LT(report.passes.back().size_after, report.passes.back().size_before);
  EXPECT_EQ(optimized.count_live_gates(), report.size_after);
  EXPECT_EQ(report.passes.back().size_after, report.size_after);
}

TEST(FlowPipelineTest, UntilConvergenceHonorsMaxRounds) {
  auto session = make_session();
  const auto m = algebra::depth_optimize(gen::make_sqrt_n(8));
  FlowReport report;
  Pipeline().rewrite("BF").until_convergence(2).run(m, session, &report);
  EXPECT_LE(report.passes.size(), 2u);
}

TEST(FlowPipelineTest, UntilConvergenceNeverReturnsAGrownNetwork) {
  auto session = make_session();
  // "depth" can grow the network to cut levels; a non-improving round must be
  // rolled back (output and trajectory), so the report chains cleanly and the
  // result equals the last surviving round's end state.
  const auto m = gen::make_multiplier_n(6);
  FlowReport report;
  const auto out =
      Pipeline().rewrite("TF").depth_opt().until_convergence(5).run(m, session,
                                                                    &report);
  EXPECT_EQ(report.passes.size() % 2, 0u);  // only whole surviving rounds
  if (!report.passes.empty()) {
    EXPECT_EQ(out.count_live_gates(), report.passes.back().size_after);
  } else {
    EXPECT_EQ(out.count_live_gates(), m.count_live_gates());
  }
  EXPECT_LE(out.count_live_gates(), m.count_live_gates());
}

TEST(FlowPipelineTest, InterleaveRoundRobinsPasses) {
  Pipeline a;
  a.rewrite("TF").rewrite("TD");
  Pipeline b;
  b.size_opt();
  EXPECT_EQ(Pipeline::interleave({a, b}).to_script(), "TF;size;TD");
}

// --- stats aggregation -------------------------------------------------------

TEST(FlowReportTest, TrajectoryChainsAndTotalsMatch) {
  auto session = make_session();
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(6));
  FlowReport report;
  const auto optimized =
      Pipeline::parse("TF;size;BFD").run(m, session, &report);

  ASSERT_EQ(report.passes.size(), 3u);
  EXPECT_EQ(report.size_before, m.count_live_gates());
  EXPECT_EQ(report.depth_before, m.depth());
  EXPECT_EQ(report.size_after, optimized.count_live_gates());
  EXPECT_EQ(report.depth_after, optimized.depth());
  EXPECT_EQ(report.passes.front().size_before, report.size_before);
  EXPECT_EQ(report.passes.back().size_after, report.size_after);
  for (size_t i = 1; i < report.passes.size(); ++i) {
    EXPECT_EQ(report.passes[i].size_before, report.passes[i - 1].size_after) << i;
  }

  uint64_t cuts = 0, replacements = 0;
  for (const auto& pass : report.passes) {
    cuts += pass.cuts_evaluated;
    replacements += pass.replacements;
  }
  EXPECT_EQ(report.cuts_evaluated(), cuts);
  EXPECT_EQ(report.replacements(), replacements);
  EXPECT_GT(report.cuts_evaluated(), 0u);
  EXPECT_GT(report.oracle_queries, 0u);
  EXPECT_EQ(report.oracle_answered, report.oracle_queries);  // 4-cut flows always hit
  EXPECT_DOUBLE_EQ(report.oracle_hit_rate(), 1.0);
  EXPECT_GE(report.seconds, 0.0);
  EXPECT_FALSE(report.summary().empty());
}

TEST(FlowReportTest, ReportIsResetBetweenRuns) {
  auto session = make_session();
  const auto m = testutil::random_mig(6, 40, 4, 3);
  FlowReport report;
  Pipeline().rewrite("TF").run(m, session, &report);
  const auto first_queries = report.oracle_queries;
  ASSERT_EQ(report.passes.size(), 1u);
  Pipeline().rewrite("TF").run(m, session, &report);
  EXPECT_EQ(report.passes.size(), 1u);  // not accumulated across runs
  // Re-running the identical pass replays the same queries; the delta
  // accounting must not leak the first run's counters into the second.
  EXPECT_EQ(report.oracle_queries, first_queries);
}

TEST(FlowReportTest, MappingPassReportsLutsAndPreservesNetwork) {
  auto session = make_session();
  const auto m = gen::make_adder_n(8);
  FlowReport report;
  const auto out = Pipeline::parse("map4").run(m, session, &report);
  ASSERT_NE(report.last_mapping(), nullptr);
  EXPECT_GT(report.last_mapping()->num_luts, 0u);
  EXPECT_GT(report.last_mapping()->lut_depth, 0u);
  EXPECT_EQ(report.size_after, report.size_before);
  EXPECT_TRUE(cec::random_simulation_equal(m, out, 8, 99));
}

TEST(FlowReportTest, EmptyPipelineIsIdentity) {
  auto session = make_session();
  const auto m = testutil::random_mig(5, 20, 3, 21);
  FlowReport report;
  const auto out = Pipeline().run(m, session, &report);
  EXPECT_TRUE(report.passes.empty());
  EXPECT_EQ(report.size_before, report.size_after);
  EXPECT_TRUE(cec::random_simulation_equal(m, out, 8, 5));
}

// --- composition -------------------------------------------------------------

TEST(FlowEquivalenceTest, ParsedPipelineMatchesSequentialRuns) {
  auto session = make_session();
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(6));

  // One pipeline per pass, each run on the previous one's output.
  const auto sequential = Pipeline().rewrite("BFD").run(
      Pipeline().rewrite("TF").run(m, session), session);

  FlowReport report;
  const auto piped = Pipeline::parse("TF;BFD").run(m, session, &report);

  // The flow must be functionally equivalent to the input (full SAT proof)
  // and produce the same network as the passes run one by one.
  EXPECT_EQ(cec::check_equivalence(m, piped).status, cec::CecStatus::equivalent);
  EXPECT_EQ(cec::check_equivalence(sequential, piped).status,
            cec::CecStatus::equivalent);
  EXPECT_EQ(piped.count_live_gates(), sequential.count_live_gates());
  EXPECT_EQ(report.size_after, piped.count_live_gates());
}

TEST(FlowEquivalenceTest, ScriptedConvergenceFlowStaysEquivalent) {
  auto session = make_session();
  const auto m = gen::make_adder_n(16);
  const auto out = Pipeline::parse("depth;(TF;size)*;map").run(m, session);
  EXPECT_EQ(cec::check_equivalence(m, out).status, cec::CecStatus::equivalent);
}

}  // namespace
}  // namespace mighty::flow
