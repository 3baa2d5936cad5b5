#include "opt/oracle.hpp"

#include <gtest/gtest.h>

#include <concepts>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cec/cec.hpp"
#include "exact/bounds.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "opt/rewrite.hpp"
#include "test_util.hpp"

namespace mighty::opt {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

TEST(OracleTest, FourInputPathMatchesDatabase) {
  ReplacementOracle oracle(db());
  std::mt19937 rng(1);
  for (int i = 0; i < 100; ++i) {
    const tt::TruthTable f(4, rng());
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, db().lookup(f).entry->chain.size());
  }
}

TEST(OracleTest, InstantiateReconstructsFunction) {
  ReplacementOracle oracle(db());
  std::mt19937 rng(2);
  for (int i = 0; i < 200; ++i) {
    const tt::TruthTable f(4, rng());
    ASSERT_TRUE(oracle.query(f).has_value());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(oracle.instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
}

TEST(OracleTest, SmallSupportShrinksToDatabase) {
  ReplacementOracle oracle(db());
  // A 5-variable function whose support is only 3 variables must go through
  // the 4-input database, not on-demand synthesis.
  const auto f = (tt::TruthTable::projection(5, 1) & tt::TruthTable::projection(5, 3)) ^
                 tt::TruthTable::projection(5, 4);
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(oracle.synthesized_count(), 0u);
  EXPECT_EQ(info->input_depths[0], -1);
  EXPECT_EQ(info->input_depths[2], -1);
  EXPECT_GE(info->input_depths[1], 1);

  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(f, m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], f);
}

TEST(OracleTest, FiveInputDisabledByDefault) {
  ReplacementOracle oracle(db());
  // Full 5-variable support: majority of five.
  tt::TruthTable maj5(5);
  for (uint32_t m = 0; m < 32; ++m) maj5.set_bit(m, __builtin_popcount(m) >= 3);
  EXPECT_FALSE(oracle.query(maj5).has_value());
}

TEST(OracleTest, FiveInputSynthesisOnDemand) {
  OracleParams params;
  params.enable_five_input = true;
  ReplacementOracle oracle(db(), params);

  tt::TruthTable maj5(5);
  for (uint32_t m = 0; m < 32; ++m) maj5.set_bit(m, __builtin_popcount(m) >= 3);
  const auto info = oracle.query(maj5);
  ASSERT_TRUE(info.has_value());
  EXPECT_GE(oracle.synthesized_count(), 1u);
  // <x1..x5> is known to need 4 majority gates.
  EXPECT_EQ(info->size, 4u);

  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(maj5, m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], maj5);

  // Second query must be served from the cache.
  const auto before = oracle.synthesized_count();
  ASSERT_TRUE(oracle.query(maj5).has_value());
  EXPECT_EQ(oracle.synthesized_count(), before);
}

TEST(OracleTest, FiveInputStructuredFunctionsRoundTrip) {
  // Structured functions, the kind real cuts produce (random 5-variable
  // functions need ~10+ gates and routinely exhaust the synthesis budget,
  // which the oracle reports as "no replacement" -- see the next test).
  OracleParams params;
  params.enable_five_input = true;
  ReplacementOracle oracle(db(), params);
  const auto x = [](uint32_t v) { return tt::TruthTable::projection(5, v); };
  const std::vector<tt::TruthTable> functions = {
      x(0) & x(1) & x(2) & x(3) & x(4),                       // and5
      (x(0) & x(1)) | (x(2) & x(3) & x(4)),                   // and-or
      tt::TruthTable::maj(x(0), x(1), tt::TruthTable::maj(x(2), x(3), x(4))),
      tt::TruthTable::ite(x(4), x(0) & x(1), x(2) | x(3)),    // mux of and/or
      (x(0) ^ x(1)) & (x(2) | x(3)) & x(4),
  };
  for (const auto& f : functions) {
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value()) << "f=0x" << f.to_hex();
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
  EXPECT_GT(oracle.synthesized_count(), 0u);
}

TEST(OracleTest, BudgetExhaustionIsReportedAsNoReplacement) {
  OracleParams params;
  params.enable_five_input = true;
  params.synthesis_conflict_limit = 1;  // starve the solver
  params.max_gates = 12;
  ReplacementOracle oracle(db(), params);
  std::mt19937_64 rng(3);
  tt::TruthTable f(5, rng());
  while (f.support_size() < 5) f = tt::TruthTable(5, rng());
  EXPECT_FALSE(oracle.query(f).has_value());
  EXPECT_GE(oracle.synthesis_failures(), 1u);
  EXPECT_EQ(oracle.constructed_count(), 0u) << "the search never reached SAT";
  // Budgets a cache line cannot record are refused up front.
  for (const int64_t budget : {int64_t{0}, int64_t{-2}}) {
    params.synthesis_conflict_limit = budget;
    EXPECT_THROW(ReplacementOracle(db(), params), std::invalid_argument) << budget;
  }
}

// --- persistent 5-input cache ------------------------------------------------

namespace fs = std::filesystem;
using testutil::ScratchDir;

tt::TruthTable maj5_table() {
  tt::TruthTable maj5(5);
  for (uint32_t m = 0; m < 32; ++m) maj5.set_bit(m, __builtin_popcount(m) >= 3);
  return maj5;
}

std::vector<tt::TruthTable> structured_five_input_functions() {
  const auto x = [](uint32_t v) { return tt::TruthTable::projection(5, v); };
  return {
      x(0) & x(1) & x(2) & x(3) & x(4),
      (x(0) & x(1)) | (x(2) & x(3) & x(4)),
      tt::TruthTable::maj(x(0), x(1), tt::TruthTable::maj(x(2), x(3), x(4))),
      tt::TruthTable::ite(x(4), x(0) & x(1), x(2) | x(3)),
      (x(0) ^ x(1)) & (x(2) | x(3)) & x(4),
  };
}

TEST(OracleCacheTest, SaveLoadRoundTripServesWithoutSynthesis) {
  ScratchDir scratch("mighty_oracle_roundtrip");
  const auto path = (scratch.dir / "c5.db").string();
  OracleParams params;
  params.enable_five_input = true;

  std::vector<ReplacementOracle::Info> expected;
  {
    ReplacementOracle oracle(db(), params);
    for (const auto& f : structured_five_input_functions()) {
      const auto info = oracle.query(f);
      ASSERT_TRUE(info.has_value());
      expected.push_back(*info);
    }
    EXPECT_GT(oracle.synthesized_count(), 0u);
    const auto stats = oracle.cache_stats();
    EXPECT_EQ(stats.dirty, stats.entries);
    EXPECT_EQ(oracle.save_cache(path), stats.entries);
    EXPECT_EQ(oracle.cache_stats().dirty, 0u);
  }

  // A process-equivalent fresh oracle: only the file is shared.
  ReplacementOracle oracle(db(), params);
  const auto loaded = oracle.load_cache(path);
  EXPECT_EQ(loaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(loaded.adopted, loaded.entries);
  const auto functions = structured_five_input_functions();
  for (size_t i = 0; i < functions.size(); ++i) {
    const auto info = oracle.query(functions[i]);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, expected[i].size);
    EXPECT_EQ(info->depth, expected[i].depth);
    EXPECT_EQ(info->input_depths, expected[i].input_depths);
    // The loaded chain must still realize the function when instantiated.
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(functions[i], m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], functions[i]);
  }
  EXPECT_EQ(oracle.synthesized_count(), 0u) << "cached functions were re-synthesized";
  // Nothing changed, so a re-save to the same file is skipped entirely.
  EXPECT_EQ(oracle.save_cache(path), 0u);
}

TEST(OracleCacheTest, MissingFileIsNotAnError) {
  OracleParams params;
  params.enable_five_input = true;
  ReplacementOracle oracle(db(), params);
  const auto result = oracle.load_cache("/nonexistent/mighty/c5.db");
  EXPECT_EQ(result.status, ReplacementOracle::CacheLoadStatus::missing);
  EXPECT_EQ(oracle.cache_stats().entries, 0u);
}

TEST(OracleCacheTest, CorruptedFilesRejectedWithoutMerging) {
  ScratchDir scratch("mighty_oracle_corrupt");
  OracleParams params;
  params.enable_five_input = true;

  // A valid one-entry file to mutate.
  const auto valid = (scratch.dir / "valid.db").string();
  {
    ReplacementOracle oracle(db(), params);
    ASSERT_TRUE(oracle.query(maj5_table()).has_value());
    ASSERT_EQ(oracle.save_cache(valid), 1u);
  }
  std::string body;
  {
    std::ifstream is(valid);
    std::stringstream ss;
    ss << is.rdbuf();
    body = ss.str();
  }
  const auto entry_line = body.substr(body.find('\n') + 1);

  const auto expect_rejected = [&](const char* name, const std::string& contents) {
    const auto path = (scratch.dir / name).string();
    std::ofstream(path) << contents;
    ReplacementOracle oracle(db(), params);
    const auto result = oracle.load_cache(path);
    EXPECT_EQ(result.status, ReplacementOracle::CacheLoadStatus::malformed) << name;
    EXPECT_EQ(oracle.cache_stats().entries, 0u)
        << name << ": rejected file partially merged";
  };

  // Keys below are class representatives, so each file is rejected for the
  // flaw its name says and not for a non-canonical key.
  const auto key = npn::canonize(maj5_table()).representative.to_hex();
  const std::string header = "mighty-mig-5cut-cache v3 ";
  expect_rejected("bad_magic.db", "not-a-cache v3 0\n");
  expect_rejected("bad_version.db", "mighty-mig-5cut-cache v99 0\n");
  // A garbage header count must come back malformed, not throw from an
  // attempted petabyte reserve.
  expect_rejected("huge_count.db", header + "10000000000000000\n");
  expect_rejected("hex_too_long.db", header + "1\nf" + key + " fail 100 0\n");
  expect_rejected("hex_too_short.db", header + "1\nff fail 100 0\n");
  expect_rejected("fail_trailing_garbage.db", header + "1\n" + key + " fail 100 0 junk\n");
  {
    // Trailing tokens after a valid chain must not round-trip silently.
    std::string ok_line = entry_line;
    while (!ok_line.empty() && ok_line.back() == '\n') ok_line.pop_back();
    expect_rejected("ok_trailing_garbage.db", header + "1\n" + ok_line + " 7 7 7\n");
  }
  expect_rejected("truncated.db",
                  body.substr(0, body.size() - entry_line.size() / 2));
  expect_rejected("count_mismatch.db", header + "2\n" + entry_line);
  expect_rejected("duplicate.db", header + "2\n" + entry_line + entry_line);
  expect_rejected("garbage_line.db", header + "1\nzzzz nope 1 2\n");
  // References past the chain's own steps must not reach simulate().
  expect_rejected("step_reads_later_step.db", header + "1\n000f0fff ok 1 0 5 1 12 2 4 12\n");
  expect_rejected("output_past_last_step.db", header + "1\n000f0fff ok 1 0 5 1 14 2 4 6\n");
  // A chain filed under the wrong function must fail the simulation check:
  // file the valid entry's chain under another class's representative.
  const auto other =
      npn::canonize(maj5_table() ^ tt::TruthTable::projection(5, 0)).representative;
  expect_rejected("wrong_function.db",
                  header + "1\n" + other.to_hex() + entry_line.substr(entry_line.find(' ')));
}

TEST(OracleCacheTest, SuccessBeatsFailureOnMerge) {
  ScratchDir scratch("mighty_oracle_merge");
  const auto path = (scratch.dir / "c5.db").string();
  const auto f = maj5_table();

  // A rich session knows the answer and persists it...
  OracleParams rich;
  rich.enable_five_input = true;
  {
    ReplacementOracle oracle(db(), rich);
    ASSERT_TRUE(oracle.query(f).has_value());
    ASSERT_EQ(oracle.save_cache(path), 1u);
  }

  // ...a starved oracle records a failure for the same function, then loads
  // the file: the cached success must win and answer future queries.
  OracleParams starved = rich;
  starved.synthesis_conflict_limit = 1;
  ReplacementOracle oracle(db(), starved);
  EXPECT_FALSE(oracle.query(f).has_value());
  const auto loaded = oracle.load_cache(path);
  EXPECT_EQ(loaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(loaded.adopted, 1u);
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 4u);
  const auto stats = oracle.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.successes, 1u);
}

TEST(OracleCacheTest, BudgetUpgradeRetriesPersistedFailure) {
  ScratchDir scratch("mighty_oracle_budget");
  const auto path = (scratch.dir / "c5.db").string();
  const auto f = maj5_table();

  // A starved session caches (and persists) a conflict-limit failure.
  OracleParams starved;
  starved.enable_five_input = true;
  starved.synthesis_conflict_limit = 1;
  {
    ReplacementOracle oracle(db(), starved);
    EXPECT_FALSE(oracle.query(f).has_value());
    EXPECT_GE(oracle.synthesis_failures(), 1u);
    EXPECT_EQ(oracle.constructed_count(), 0u);  // maj5: bound 4, Theorem-2 chain 10
    ASSERT_EQ(oracle.save_cache(path), 1u);
  }

  // Same budget: the failure is an authoritative cache hit, no retry.
  {
    ReplacementOracle oracle(db(), starved);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    EXPECT_FALSE(oracle.query(f).has_value());
    EXPECT_EQ(oracle.synthesized_count(), 0u);
  }

  // Larger budget: the persisted failure must not freeze the answer — the
  // oracle re-attempts and succeeds, and persists the upgrade.
  OracleParams rich = starved;
  rich.synthesis_conflict_limit = 200000;
  {
    ReplacementOracle oracle(db(), rich);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, 4u);
    EXPECT_EQ(oracle.synthesized_count(), 1u);
    EXPECT_EQ(oracle.save_cache(path), 1u);  // upgraded entry is dirty again
  }

  // The upgraded success now serves even a starved session from the file.
  {
    ReplacementOracle oracle(db(), starved);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    EXPECT_TRUE(oracle.query(f).has_value());
    EXPECT_EQ(oracle.synthesized_count(), 0u);
  }
}

TEST(OracleCacheTest, SaveToNewPathAfterCleanLoadStillWrites) {
  ScratchDir scratch("mighty_oracle_newpath");
  const auto path_a = (scratch.dir / "a.db").string();
  const auto path_b = (scratch.dir / "b.db").string();
  OracleParams params;
  params.enable_five_input = true;

  {
    ReplacementOracle oracle(db(), params);
    ASSERT_TRUE(oracle.query(maj5_table()).has_value());
    ASSERT_EQ(oracle.save_cache(path_a), 1u);
  }
  {
    // A stale file at b: a different function's cache from another session.
    ReplacementOracle oracle(db(), params);
    ASSERT_TRUE(oracle.query(structured_five_input_functions()[0]).has_value());
    ASSERT_EQ(oracle.save_cache(path_b), 1u);
  }

  // Loading a leaves the cache clean — but saving to b must still write:
  // the clean-skip only applies to the path the cache is known to live at.
  ReplacementOracle oracle(db(), params);
  ASSERT_EQ(oracle.load_cache(path_a).status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(oracle.cache_stats().dirty, 0u);
  EXPECT_EQ(oracle.save_cache(path_b), 1u) << "stale file at new path kept";
  // b now holds a's contents: a fresh oracle must answer maj5 from it.
  ReplacementOracle check(db(), params);
  ASSERT_EQ(check.load_cache(path_b).status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_TRUE(check.query(maj5_table()).has_value());
  EXPECT_EQ(check.synthesized_count(), 0u);
}

TEST(OracleCacheTest, SaveIsAtomicAndSkipsCleanCaches) {
  ScratchDir scratch("mighty_oracle_atomic");
  const auto path = (scratch.dir / "c5.db").string();
  OracleParams params;
  params.enable_five_input = true;
  ReplacementOracle oracle(db(), params);
  ASSERT_TRUE(oracle.query(maj5_table()).has_value());
  EXPECT_EQ(oracle.save_cache(path), 1u);
  EXPECT_EQ(oracle.save_cache(path), 0u);  // clean cache: file untouched
  // Dirty it again: a new function forces a full (atomic) rewrite.
  ASSERT_TRUE(oracle.query(structured_five_input_functions()[0]).has_value());
  EXPECT_EQ(oracle.save_cache(path), 2u);
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "temp files left behind";
}

// --- size-bounded 5-input queries --------------------------------------------

/// The replacement the oracle instantiates for f, as BLIF text: two oracles
/// hold the same chain exactly when these strings match.
std::string instantiated_blif(ReplacementOracle& oracle, const tt::TruthTable& f) {
  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(f, m, pis));
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

std::string file_text(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

OracleParams five_input_params() {
  OracleParams params;
  params.enable_five_input = true;
  return params;
}

/// A function whose size bound (4) is below its minimum (5 gates), so a
/// query bounded at 4 runs a decision problem and leaves an open entry.
tt::TruthTable bound_below_minimum_table() { return tt::TruthTable::from_hex(5, "30115150"); }

TEST(OracleBoundTest, BoundBelowMinimumLeavesOpenEntryThatLaterBoundsResume) {
  const auto f = bound_below_minimum_table();  // minimum: 5 gates
  ReplacementOracle cold(db(), five_input_params());
  const auto expected = cold.query(f);
  ASSERT_TRUE(expected.has_value());
  ASSERT_EQ(expected->size, 5u);

  ReplacementOracle oracle(db(), five_input_params());
  EXPECT_FALSE(oracle.query(f, nullptr, 4).has_value());
  auto stats = oracle.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.open, 1u);
  EXPECT_EQ(oracle.synthesized_count(), 1u);
  EXPECT_EQ(oracle.cache5_hits(), 0u);
  EXPECT_EQ(oracle.synthesis_failures(), 0u);
  EXPECT_EQ(oracle.answered(), 0u);
  // Asking again under the same bound is a plain hit: no new SAT work.
  const uint64_t conflicts_at_four = oracle.sat_conflicts();
  EXPECT_FALSE(oracle.query(f, nullptr, 4).has_value());
  EXPECT_EQ(oracle.sat_conflicts(), conflicts_at_four);
  EXPECT_EQ(oracle.cache5_hits(), 1u);

  // A larger bound resumes the search at five gates and finds exactly the
  // chain the cold unbounded oracle found, for the same total effort.
  OracleTally tally;
  const auto info = oracle.query(f, &tally, 6);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, expected->size);
  EXPECT_EQ(info->depth, expected->depth);
  EXPECT_EQ(info->input_depths, expected->input_depths);
  EXPECT_EQ(tally.cache5_hits.load(), 1u);
  EXPECT_EQ(tally.synthesized.load(), 0u);
  EXPECT_EQ(tally.conflicts.load(), oracle.sat_conflicts() - conflicts_at_four);
  EXPECT_EQ(oracle.synthesized_count(), 1u);
  EXPECT_EQ(oracle.sat_conflicts(), cold.sat_conflicts());
  stats = oracle.cache_stats();
  EXPECT_EQ(stats.open, 0u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(instantiated_blif(oracle, f), instantiated_blif(cold, f));

  // A known chain larger than a query's bound is not an answer for it.
  EXPECT_FALSE(oracle.query(f, nullptr, 4).has_value());
  EXPECT_TRUE(oracle.query(f, nullptr, 5).has_value());
}

TEST(OracleBoundTest, BoundBelowSupportBoundCreatesNoEntry) {
  ReplacementOracle oracle(db(), five_input_params());
  for (const uint32_t bound : {0u, 1u}) {
    EXPECT_FALSE(oracle.query(maj5_table(), nullptr, bound).has_value());
  }
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.cache_stats().entries, 0u);
  EXPECT_EQ(oracle.synthesized_count(), 0u);
  EXPECT_EQ(oracle.cache5_hits(), 0u);
  EXPECT_EQ(oracle.sat_conflicts(), 0u);
  // 4-input lookups cost nothing and answer whatever the bound.
  EXPECT_TRUE(oracle.query(tt::TruthTable(4, 0x6996), nullptr, 0).has_value());
}

TEST(OracleBoundTest, QueryBelowSizeBoundCreatesNoEntry) {
  // maj5's cofactors are the 2-of-4 and 3-of-4 thresholds, 4 gates each:
  // the bound is maj5's minimum, and every query bounded below it is
  // answered by the bound alone.
  const auto f = maj5_table();
  ASSERT_EQ(exact::size_lower_bound(db(), f), 4u);
  ReplacementOracle oracle(db(), five_input_params());
  OracleTally tally;
  for (const uint32_t bound : {2u, 3u}) {
    EXPECT_FALSE(oracle.query(f, &tally, bound).has_value());
  }
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.cache_stats().entries, 0u);
  EXPECT_EQ(oracle.synthesized_count(), 0u);
  EXPECT_EQ(oracle.cache5_hits(), 0u);
  EXPECT_EQ(oracle.synthesis_failures(), 0u);
  EXPECT_EQ(oracle.sat_conflicts(), 0u);
  EXPECT_EQ(tally.synthesized.load(), 0u);
  EXPECT_EQ(tally.conflicts.load(), 0u);
  // At the bound the query synthesizes as usual.
  const auto info = oracle.query(f, &tally, 4);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 4u);
  EXPECT_EQ(oracle.synthesized_count(), 1u);
}

TEST(OracleBoundTest, QueryBelowSizeBoundCountsNothingWhateverTheCacheHolds) {
  // A query below the bound counts nothing whether it runs before or after
  // the query that fills the cache, so the counters of a threaded run do not
  // depend on the order its queries happen to take.
  struct Counters {
    size_t entries, open;
    uint64_t synthesized, hits, failures, conflicts;
    bool operator==(const Counters&) const = default;
  };
  const auto run = [](const tt::TruthTable& f, std::initializer_list<uint32_t> bounds) {
    ReplacementOracle oracle(db(), five_input_params());
    for (const uint32_t bound : bounds) oracle.query(f, nullptr, bound);
    const auto stats = oracle.cache_stats();
    return Counters{stats.entries,         stats.open,
                    oracle.synthesized_count(), oracle.cache5_hits(),
                    oracle.synthesis_failures(), oracle.sat_conflicts()};
  };
  // maj5 (bound 4): a cached 4-gate chain against a query bounded at 3.
  const auto maj5 = maj5_table();
  const auto chain_first = run(maj5, {6, 3});
  EXPECT_EQ(chain_first, run(maj5, {3, 6}));
  EXPECT_EQ(chain_first.synthesized, 1u);
  EXPECT_EQ(chain_first.hits, 0u);
  // 30115150 (bound 4): an open entry "no chain below 5" against a query
  // bounded at 3.
  const auto f = bound_below_minimum_table();
  const auto open_first = run(f, {4, 3});
  EXPECT_EQ(open_first, run(f, {3, 4}));
  EXPECT_EQ(open_first.open, 1u);
  EXPECT_EQ(open_first.synthesized, 1u);
  EXPECT_EQ(open_first.hits, 0u);
}

TEST(OracleBoundTest, OpenEntriesRoundTripThroughSaveAndLoad) {
  ScratchDir scratch("mighty_oracle_open");
  const auto path = (scratch.dir / "c5.db").string();
  const auto f = bound_below_minimum_table();
  {
    ReplacementOracle oracle(db(), five_input_params());
    EXPECT_FALSE(oracle.query(f, nullptr, 4).has_value());
    ASSERT_EQ(oracle.save_cache(path), 1u);
  }
  // The entry is filed under the class representative, not under f.
  const std::string text = file_text(path);
  const auto key = npn::canonize(f).representative;
  ASSERT_NE(key, f);
  EXPECT_EQ(text.rfind("mighty-mig-5cut-cache v3 1\n", 0), 0u) << text;
  EXPECT_NE(text.find(key.to_hex() + " open 20000 "), std::string::npos) << text;
  EXPECT_EQ(text.substr(text.size() - 3), " 5\n") << text;  // lower bound

  ReplacementOracle oracle(db(), five_input_params());
  ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(oracle.cache_stats().open, 1u);
  EXPECT_EQ(oracle.save_cache(path), 0u);  // clean: the file holds exactly this
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 5u);
  EXPECT_EQ(oracle.synthesized_count(), 0u) << "a resumed open entry is no new synthesis";
  EXPECT_EQ(oracle.cache5_hits(), 1u);
  ReplacementOracle cold(db(), five_input_params());
  ASSERT_TRUE(cold.query(f).has_value());
  EXPECT_EQ(instantiated_blif(oracle, f), instantiated_blif(cold, f));
}

TEST(OracleBoundTest, MergeRanksSuccessOverFailureOverOpen) {
  const auto key = npn::canonize(maj5_table()).representative.to_hex();
  const auto merged = [&](const std::string& memory_line, const std::string& disk_line) {
    ReplacementOracle oracle(db(), five_input_params());
    std::istringstream mem("mighty-mig-5cut-cache v3 1\n" + memory_line + "\n");
    EXPECT_EQ(oracle.load_cache(mem).status, ReplacementOracle::CacheLoadStatus::loaded);
    std::istringstream disk("mighty-mig-5cut-cache v3 1\n" + disk_line + "\n");
    return oracle.load_cache(disk).adopted;
  };
  const auto open3 = key + " open 20000 10 3";
  const auto open4 = key + " open 20000 20 4";
  const auto fail = key + " fail 20000 30";
  EXPECT_EQ(merged(open3, open4), 1u);  // the search that went further wins
  EXPECT_EQ(merged(open4, open3), 0u);
  EXPECT_EQ(merged(open4, fail), 1u);   // failure beats open
  EXPECT_EQ(merged(fail, open4), 0u);
}

// --- one cache entry per NPN class -------------------------------------------

/// A member of f's NPN class other than f: inputs permuted and complemented,
/// output complemented.
tt::TruthTable other_member(const tt::TruthTable& f, uint32_t salt) {
  npn::Transform t;
  t.num_vars = 5;
  t.perm = {static_cast<uint8_t>((salt + 2) % 5), static_cast<uint8_t>((salt + 4) % 5),
            static_cast<uint8_t>((salt + 1) % 5), static_cast<uint8_t>((salt + 3) % 5),
            static_cast<uint8_t>(salt % 5), 5};
  t.input_negations = static_cast<uint8_t>((0x13 * (salt + 1)) & 0x1f);
  t.output_negation = (salt & 1) == 0;
  return npn::apply(f, t);
}

/// The replacement the oracle instantiates for f, checked by SAT against an
/// independent realization of f (the Shannon construction over the NPN-4
/// database).
bool instantiates_correctly(ReplacementOracle& oracle, const tt::TruthTable& f) {
  mig::Mig replacement, reference;
  const auto pis = replacement.create_pis(5);
  replacement.create_po(oracle.instantiate(f, replacement, pis));
  const auto ref_pis = reference.create_pis(5);
  reference.create_po(exact::build_shannon(db(), f, reference, ref_pis));
  return cec::check_equivalence(replacement, reference).status ==
         cec::CecStatus::equivalent;
}

TEST(OracleClassTest, TwoMembersOfOneClassShareOneSynthesis) {
  const auto f = structured_five_input_functions()[1];
  const auto g = other_member(f, 1);
  ASSERT_NE(f, g);
  ASSERT_EQ(npn::canonize(f).representative, npn::canonize(g).representative);

  ReplacementOracle oracle(db(), five_input_params());
  const auto info_f = oracle.query(f);
  const auto info_g = oracle.query(g);
  ASSERT_TRUE(info_f.has_value());
  ASSERT_TRUE(info_g.has_value());
  EXPECT_EQ(oracle.synthesized_count(), 1u);
  EXPECT_EQ(oracle.cache5_hits(), 1u);
  EXPECT_EQ(oracle.cache_stats().entries, 1u);
  EXPECT_EQ(info_f->size, info_g->size);
  EXPECT_EQ(info_f->depth, info_g->depth);
  EXPECT_TRUE(instantiates_correctly(oracle, f));
  EXPECT_TRUE(instantiates_correctly(oracle, g));
  EXPECT_EQ(oracle.synthesized_count(), 1u);
}

TEST(OracleClassTest, CountersAndCacheBytesIgnoreThreadsAndOrder) {
  // Members of several classes under several size bounds: chains, open
  // entries and a budget failure, each class reached by different members
  // first depending on the schedule.
  std::vector<std::pair<tt::TruthTable, uint32_t>> work;
  const std::vector<uint32_t> bounds = {ReplacementOracle::kUnbounded, 3, 4, 6};
  auto functions = structured_five_input_functions();
  functions.push_back(bound_below_minimum_table());
  functions.push_back(maj5_table());
  for (size_t i = 0; i < functions.size(); ++i) {
    for (uint32_t salt = 0; salt < 4; ++salt) {
      work.emplace_back(salt == 0 ? functions[i] : other_member(functions[i], salt),
                        bounds[(i + salt) % bounds.size()]);
    }
  }
  struct Outcome {
    std::string cache;
    std::array<uint64_t, 6> counters;
    bool operator==(const Outcome&) const = default;
  };
  ScratchDir scratch("mighty_oracle_classes");
  const auto run = [&](uint32_t seed, bool threaded) {
    OracleParams params = five_input_params();
    params.synthesis_conflict_limit = 2000;  // some searches time out
    ReplacementOracle oracle(db(), params);
    std::vector<std::vector<std::pair<tt::TruthTable, uint32_t>>> lists(3, work);
    for (uint32_t t = 0; t < lists.size(); ++t) {
      std::shuffle(lists[t].begin(), lists[t].end(), std::mt19937(seed + t));
    }
    const auto query_all = [&oracle](const std::vector<std::pair<tt::TruthTable, uint32_t>>& list) {
      for (const auto& [f, bound] : list) oracle.query(f, nullptr, bound);
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (const auto& list : lists) threads.emplace_back([&query_all, &list] { query_all(list); });
      for (auto& thread : threads) thread.join();
    } else {
      for (const auto& list : lists) query_all(list);
    }
    const auto path = (scratch.dir / ("c5_" + std::to_string(seed) + ".db")).string();
    oracle.save_cache(path);
    return Outcome{file_text(path),
                   {oracle.queries(), oracle.answered(), oracle.cache5_hits(),
                    oracle.synthesized_count(), oracle.synthesis_failures(),
                    oracle.sat_conflicts()}};
  };
  const Outcome reference = run(1, false);
  EXPECT_EQ(reference.counters[3], functions.size()) << "one synthesis per class";
  EXPECT_EQ(run(2, false), reference);
  EXPECT_EQ(run(3, true), reference);
  EXPECT_EQ(run(4, true), reference);
}

TEST(OracleClassTest, VersionThreeKeysMustBeCanonical) {
  const auto f = maj5_table();
  const auto rep = npn::canonize(f).representative;
  ASSERT_NE(f, rep);
  const auto load = [](const std::string& contents) {
    std::istringstream is(contents);
    ReplacementOracle oracle(db(), five_input_params());
    return oracle.load_cache(is).status;
  };
  EXPECT_EQ(load("mighty-mig-5cut-cache v3 1\n" + rep.to_hex() + " fail 20000 30\n"),
            ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(load("mighty-mig-5cut-cache v3 1\n" + f.to_hex() + " fail 20000 30\n"),
            ReplacementOracle::CacheLoadStatus::malformed);
}

// --- classes the Theorem-2 chain settles --------------------------------------

TEST(OracleConstructTest, ChainMeetingTheLowerBoundNeedsNoSat) {
  const auto f = tt::TruthTable::from_hex(5, "000007ff");
  const auto rep = npn::canonize(f).representative;
  const uint32_t bound = exact::size_lower_bound(db(), rep);
  ASSERT_EQ(exact::shannon_size(db(), rep), bound);

  ReplacementOracle oracle(db(), five_input_params());
  OracleTally tally;
  const auto info = oracle.query(f, &tally);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, bound);
  EXPECT_EQ(oracle.synthesized_count(), 1u);
  EXPECT_EQ(oracle.constructed_count(), 1u);
  EXPECT_EQ(oracle.sat_conflicts(), 0u);
  EXPECT_EQ(tally.constructed.load(), 1u);
  EXPECT_EQ(tally.conflicts.load(), 0u);

  // Every member reads the one cached chain as its own function.
  for (uint32_t salt = 0; salt < 4; ++salt) {
    const auto g = other_member(f, salt);
    ASSERT_TRUE(oracle.query(g).has_value());
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(g, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], g) << "member " << salt;
  }
  EXPECT_EQ(oracle.synthesized_count(), 1u);

  // The constructed chain persists as an ordinary `ok` entry with 0 conflicts.
  ScratchDir dir("mighty_oracle_construct");
  const auto path = (dir.dir / "c5.db").string();
  ASSERT_EQ(oracle.save_cache(path), 1u);
  EXPECT_NE(file_text(path).find(rep.to_hex() + " ok 20000 0 "), std::string::npos)
      << file_text(path);
  ReplacementOracle loaded(db(), five_input_params());
  ASSERT_EQ(loaded.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
  const auto again = loaded.query(f);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->size, info->size);
  EXPECT_EQ(again->depth, info->depth);
  EXPECT_EQ(again->input_depths, info->input_depths);
  EXPECT_EQ(loaded.synthesized_count(), 0u);
  EXPECT_EQ(instantiated_blif(loaded, f), instantiated_blif(oracle, f));
}

TEST(OracleConstructTest, ChainAboveTheLowerBoundLeavesTheSearchToSat) {
  // 000001af: bound 4, Theorem-2 chain 5 gates, minimum 4.
  const auto f = tt::TruthTable::from_hex(5, "000001af");
  ASSERT_EQ(exact::size_lower_bound(db(), f), 4u);
  ASSERT_GT(exact::shannon_size(db(), f), 4u);
  ReplacementOracle oracle(db(), five_input_params());
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 4u);
  EXPECT_EQ(oracle.synthesized_count(), 1u);
  EXPECT_EQ(oracle.constructed_count(), 0u);
  EXPECT_GT(oracle.sat_conflicts(), 0u);
}

// --- the 5-input search's encoding --------------------------------------------

TEST(OracleSearchTest, SynthFiveSatClassesKeepTheirFourGateChains) {
  // The two classes of the synth5 workload that reach SAT: 4-gate minima,
  // found in 2671 conflicts without the support clause (9450 with it).
  ReplacementOracle oracle(db(), five_input_params());
  for (const char* hex : {"000001af", "0017e8ff"}) {
    const auto f = tt::TruthTable::from_hex(5, hex);
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value()) << hex;
    EXPECT_EQ(info->size, 4u) << hex;
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << hex;
  }
  EXPECT_EQ(oracle.synthesized_count(), 2u);
  EXPECT_EQ(oracle.constructed_count(), 0u);
  EXPECT_EQ(oracle.synthesis_failures(), 0u);
  EXPECT_LE(oracle.sat_conflicts(), 2671u);
}

TEST(OracleSearchTest, CorpusClassFitsTheDefaultBudgetAndPersists) {
  // 00199b5d: a 5-gate class of the generator corpus.  With the support
  // clause its search spent 41679 conflicts and failed the default 20000 per
  // decision problem; without it the minimum comes back well inside.
  const auto f = tt::TruthTable::from_hex(5, "00199b5d");
  ASSERT_EQ(npn::canonize(f).representative, f);
  ReplacementOracle oracle(db(), five_input_params());
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 5u);
  EXPECT_EQ(oracle.synthesis_failures(), 0u);
  EXPECT_GT(oracle.sat_conflicts(), 0u);
  EXPECT_LT(oracle.sat_conflicts(), 20000u);

  ScratchDir dir("mighty_oracle_search");
  const auto path = (dir.dir / "c5.db").string();
  ASSERT_EQ(oracle.save_cache(path), 1u);
  EXPECT_NE(file_text(path).find(f.to_hex() + " ok 20000 "), std::string::npos)
      << file_text(path);
  ReplacementOracle loaded(db(), five_input_params());
  ASSERT_EQ(loaded.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
  const auto again = loaded.query(f);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->size, 5u);
  EXPECT_EQ(loaded.synthesized_count(), 0u);
  EXPECT_EQ(instantiated_blif(loaded, f), instantiated_blif(oracle, f));
}

TEST(OracleTest, FiveInputRewritingPreservesFunction) {
  const auto baseline = algebra::depth_optimize(gen::make_adder_n(10));
  auto params = variant_params("TF");
  params.five_input_cuts = true;
  ReplacementOracle oracle(db(), {.enable_five_input = true});
  RewriteStats stats;
  const auto optimized = functional_hashing(baseline, oracle, params, &stats);
  EXPECT_EQ(cec::check_equivalence(baseline, optimized).status,
            cec::CecStatus::equivalent);
  EXPECT_LE(stats.size_after, stats.size_before);
}

TEST(OracleTest, FiveInputRewritingAtLeastMatchesFourInput) {
  const auto baseline = algebra::depth_optimize(gen::make_sine_n(8));
  ReplacementOracle oracle(db(), {.enable_five_input = true});
  RewriteStats four, five;
  functional_hashing(baseline, oracle, variant_params("TF"), &four);
  auto params = variant_params("TF");
  params.five_input_cuts = true;
  functional_hashing(baseline, oracle, params, &five);
  // Wider cuts see strictly more replacement opportunities.
  EXPECT_LE(five.size_after, four.size_after);
}

// --- the counter record --------------------------------------------------------

static_assert(std::equality_comparable<OracleCounts>);
// A report that inherits the record compares its counters through counts().
static_assert(!std::equality_comparable<RewriteStats>);

/// A record whose counters hold base, base + 1, ... in wire order.
OracleCounts distinct_counts(uint64_t base) {
  OracleCounts counts;
  for (const auto& field : kOracleCountFields) counts.*field.count = base++;
  return counts;
}

TEST(OracleCountsTest, SumCompareAndTallyWalkEveryCounter) {
  const OracleCounts a = distinct_counts(1);
  OracleCounts sum = a;
  sum += distinct_counts(11);
  for (size_t i = 0; i < kOracleCountFields.size(); ++i) {
    const auto& field = kOracleCountFields[i];
    EXPECT_EQ(sum.*field.count, 12 + 2 * i) << field.name;
    OracleCounts off = sum;
    off.*field.count += 1;
    EXPECT_NE(off, sum) << field.name;
  }

  // Each row pairs a record member with the tally counter of the same name.
  OracleTally tally;
  tally.add(a);
  EXPECT_EQ(tally.queries.load(), a.oracle_queries);
  EXPECT_EQ(tally.answered.load(), a.oracle_answered);
  EXPECT_EQ(tally.cache5_hits.load(), a.oracle_cache5_hits);
  EXPECT_EQ(tally.synthesized.load(), a.oracle_synthesized);
  EXPECT_EQ(tally.constructed.load(), a.oracle_constructed);
  EXPECT_EQ(tally.failures.load(), a.oracle_failures);
  EXPECT_EQ(tally.conflicts.load(), a.oracle_conflicts);
  tally.add(distinct_counts(11));
  EXPECT_EQ(tally.snapshot(), sum);
}

TEST(OracleCountsTest, FunctionalHashingReportsItsTallyAndForwardsIt) {
  ReplacementOracle oracle(db());
  const auto m = algebra::depth_optimize(gen::make_adder_n(8));
  OracleTally outer;
  RewriteParams params = variant_params("TF");
  params.tally = &outer;
  RewriteStats first, second;
  functional_hashing(m, oracle, params, &first);
  functional_hashing(m, oracle, params, &second);
  EXPECT_GT(first.oracle_queries, 0u);
  OracleCounts both = first.counts();
  both += second;
  EXPECT_EQ(outer.snapshot(), both);
}

}  // namespace
}  // namespace mighty::opt
