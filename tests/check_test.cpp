#include "check/check.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exact/database.hpp"
#include "exact/exact_synthesis.hpp"
#include "gen/arith.hpp"
#include "mig/ffr.hpp"
#include "mig/mig.hpp"
#include "mig/shard.hpp"
#include "npn/npn.hpp"
#include "opt/oracle.hpp"
#include "test_util.hpp"

namespace mighty::check {
namespace {

/// A small deterministic network with two regions and a cross-region edge:
/// g1 = <a,b,c> drives a PO *and* feeds g2 = <a,b,g1>, so g1 is a
/// multi-fanout root and g2 a single-gate root region fed by g1's region.
mig::Mig two_region_mig() {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(a, b, g1);
  m.create_po(g1);
  m.create_po(g2);
  return m;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

// --- clean inputs validate ---------------------------------------------------

TEST(CheckStructureTest, CleanNetworksValidate) {
  for (uint32_t seed = 0; seed < 8; ++seed) {
    const auto m = testutil::random_mig(6, 40, 3, seed);
    const auto report = validate(m);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
  }
  EXPECT_TRUE(validate_at(gen::make_adder_n(8), /*full=*/true).ok());
  EXPECT_TRUE(validate_at(two_region_mig(), /*full=*/true).ok());
}

TEST(CheckStructureTest, EmptyViewIsCorrupt) {
  const MigView empty;
  const auto report = validate_structure(empty);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::terminal_fanin_corrupt));
}

// --- corrupted-MIG negative suite: each diagnostic fires with the right node

TEST(CheckStructureTest, FaninOutOfRange) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 4;  // g1: node 0 constant, 1..3 PIs
  view.fanins[gate][1] = mig::Signal(999, false);
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_out_of_range)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_out_of_range)->node, gate);
}

TEST(CheckStructureTest, FaninSelfReference) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 5;  // g2
  view.fanins[gate][2] = mig::Signal(gate, false);
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_self_reference)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_self_reference)->node, gate);
}

TEST(CheckStructureTest, FaninNotTopological) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 4;           // g1 ...
  view.fanins[gate][0] = mig::Signal(5, false);  // ... fed by the later g2
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_not_topological)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_not_topological)->node, gate);
}

TEST(CheckStructureTest, FaninNotSorted) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 4;
  std::swap(view.fanins[gate][0], view.fanins[gate][2]);
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_not_sorted)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_not_sorted)->node, gate);
}

TEST(CheckStructureTest, FaninDuplicateIndex) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 4;
  view.fanins[gate][1] = view.fanins[gate][0];
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_duplicate_index)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_duplicate_index)->node, gate);
}

TEST(CheckStructureTest, FaninPolarityNotNormalized) {
  auto view = MigView::of(two_region_mig());
  const uint32_t gate = 4;
  view.fanins[gate][0] = !view.fanins[gate][0];
  view.fanins[gate][1] = !view.fanins[gate][1];
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::fanin_polarity_not_normalized)) << report.summary();
  EXPECT_EQ(report.find(Code::fanin_polarity_not_normalized)->node, gate);
}

TEST(CheckStructureTest, TerminalFaninCorrupt) {
  auto view = MigView::of(two_region_mig());
  view.fanins[2][0] = mig::Signal(1, true);  // scribble over PI b
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::terminal_fanin_corrupt)) << report.summary();
  EXPECT_EQ(report.find(Code::terminal_fanin_corrupt)->node, 2u);
}

TEST(CheckStructureTest, DuplicateGate) {
  auto view = MigView::of(two_region_mig());
  EXPECT_TRUE(validate_strash(view).ok());
  view.fanins[5] = view.fanins[4];  // g2 now repeats g1's fanins
  EXPECT_TRUE(validate_structure(view).ok());  // still a well-formed DAG
  const auto report = validate_strash(view);
  ASSERT_TRUE(report.has(Code::duplicate_gate)) << report.summary();
  EXPECT_EQ(report.find(Code::duplicate_gate)->node, 5u);
  EXPECT_EQ(report.num_errors(), 1u);
}

TEST(CheckStructureTest, PoTargetOutOfRange) {
  auto view = MigView::of(two_region_mig());
  view.outputs[1] = mig::Signal(77, false);
  const auto report = validate_structure(view);
  ASSERT_TRUE(report.has(Code::po_target_out_of_range)) << report.summary();
  EXPECT_EQ(report.find(Code::po_target_out_of_range)->node, 1u);  // PO position
}

// --- derived-data consistency ------------------------------------------------

TEST(CheckConsistencyTest, LevelMismatchNamesTheNode) {
  const auto m = two_region_mig();
  const auto view = MigView::of(m);
  auto levels = m.compute_levels();
  EXPECT_TRUE(validate_levels(view, levels).ok());
  levels[5] += 3;
  const auto report = validate_levels(view, levels);
  ASSERT_TRUE(report.has(Code::level_mismatch)) << report.summary();
  EXPECT_EQ(report.find(Code::level_mismatch)->node, 5u);

  levels.pop_back();  // wrong-size arrays are a single global diagnostic
  const auto sized = validate_levels(view, levels);
  ASSERT_TRUE(sized.has(Code::level_mismatch));
  EXPECT_EQ(sized.find(Code::level_mismatch)->node, kNoNode);
}

TEST(CheckConsistencyTest, FanoutMismatchNamesTheNode) {
  const auto m = two_region_mig();
  const auto view = MigView::of(m);
  auto fanouts = m.compute_fanout_counts();
  EXPECT_TRUE(validate_fanouts(view, fanouts).ok());
  fanouts[4] = 0;  // g1 actually has fanout 2 (PO + g2)
  const auto report = validate_fanouts(view, fanouts);
  ASSERT_TRUE(report.has(Code::fanout_mismatch)) << report.summary();
  EXPECT_EQ(report.find(Code::fanout_mismatch)->node, 4u);
}

// --- FFR partition -----------------------------------------------------------

TEST(CheckPartitionTest, CleanPartitionValidates) {
  const auto m = testutil::random_mig(6, 40, 3, 7);
  const auto partition = ffr::compute_ffrs(m);
  const auto report = validate_partition(m, partition);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CheckPartitionTest, UnmarkedRootIsReported) {
  const auto m = two_region_mig();
  auto partition = ffr::compute_ffrs(m);
  ASSERT_FALSE(partition.roots.empty());
  partition.is_root[partition.roots[0]] = false;
  const auto report = validate_partition(m, partition);
  ASSERT_TRUE(report.has(Code::region_root_not_root)) << report.summary();
  EXPECT_EQ(report.find(Code::region_root_not_root)->node, partition.roots[0]);
}

TEST(CheckPartitionTest, UnsortedRootsAreReported) {
  const auto m = two_region_mig();
  auto partition = ffr::compute_ffrs(m);
  ASSERT_GE(partition.roots.size(), 2u);
  std::swap(partition.roots[0], partition.roots[1]);
  const auto report = validate_partition(m, partition);
  EXPECT_TRUE(report.has(Code::region_roots_not_topological)) << report.summary();
}

TEST(CheckPartitionTest, RootMappedElsewhereBreaksMembership) {
  const auto m = two_region_mig();
  auto partition = ffr::compute_ffrs(m);
  partition.region_root[4] = 5;  // root g1 claimed by g2's region
  const auto report = validate_partition(m, partition);
  ASSERT_TRUE(report.has(Code::region_membership_broken)) << report.summary();
  EXPECT_EQ(report.find(Code::region_membership_broken)->node, 4u);
}

TEST(CheckPartitionTest, RegionRootOutOfRange) {
  const auto m = two_region_mig();
  auto partition = ffr::compute_ffrs(m);
  partition.region_root[5] = 1000;
  const auto report = validate_partition(m, partition);
  ASSERT_TRUE(report.has(Code::region_root_out_of_range)) << report.summary();
  EXPECT_EQ(report.find(Code::region_root_out_of_range)->node, 5u);

  partition.region_root.pop_back();  // mismatched arrays: one global error
  const auto sized = validate_partition(m, partition);
  ASSERT_TRUE(sized.has(Code::region_root_out_of_range));
  EXPECT_EQ(sized.find(Code::region_root_out_of_range)->node, kNoNode);
}

// --- shard plans -------------------------------------------------------------

TEST(CheckShardTest, CleanPlanValidates) {
  const auto m = testutil::random_mig(6, 60, 4, 11);
  const auto partition = ffr::compute_ffrs(m);
  for (const uint32_t shards : {1u, 2u, 4u, 16u}) {
    const auto plan = shard::plan_ffr_shards(m, partition, shards);
    const auto report = validate_shard_plan(m, partition, plan);
    EXPECT_TRUE(report.ok()) << "shards=" << shards << "\n" << report.summary();
  }
}

TEST(CheckShardTest, DuplicatedShardOverlaps) {
  const auto m = two_region_mig();
  const auto partition = ffr::compute_ffrs(m);
  auto plan = shard::plan_ffr_shards(m, partition, 2);
  ASSERT_FALSE(plan.shards.empty());
  plan.shards.push_back(plan.shards[0]);
  const auto report = validate_shard_plan(m, partition, plan);
  EXPECT_TRUE(report.has(Code::shard_overlap)) << report.summary();
}

TEST(CheckShardTest, EmptyPlanIsIncomplete) {
  const auto m = two_region_mig();
  const auto partition = ffr::compute_ffrs(m);
  const auto report = validate_shard_plan(m, partition, shard::ShardPlan{});
  ASSERT_TRUE(report.has(Code::shard_incomplete)) << report.summary();
  EXPECT_EQ(report.find(Code::shard_incomplete)->node, 4u);  // first live gate
}

TEST(CheckShardTest, UnsortedNodesAreReported) {
  const auto m = testutil::random_mig(6, 60, 4, 11);
  const auto partition = ffr::compute_ffrs(m);
  auto plan = shard::plan_ffr_shards(m, partition, 1);
  ASSERT_FALSE(plan.shards.empty());
  ASSERT_GE(plan.shards[0].nodes.size(), 2u);
  std::swap(plan.shards[0].nodes.front(), plan.shards[0].nodes.back());
  const auto report = validate_shard_plan(m, partition, plan);
  EXPECT_TRUE(report.has(Code::shard_not_sorted)) << report.summary();
}

TEST(CheckShardTest, ForeignNodeIsReported) {
  const auto m = two_region_mig();
  const auto partition = ffr::compute_ffrs(m);
  auto plan = shard::plan_ffr_shards(m, partition, 1);
  ASSERT_FALSE(plan.shards.empty());
  plan.shards[0].nodes.push_back(4000);
  const auto report = validate_shard_plan(m, partition, plan);
  ASSERT_TRUE(report.has(Code::shard_foreign_node)) << report.summary();
  EXPECT_EQ(report.find(Code::shard_foreign_node)->node, 4000u);
}

TEST(CheckShardTest, WaveOrderDetectsLevelInversion) {
  const auto m = two_region_mig();
  const auto partition = ffr::compute_ffrs(m);
  auto levels = shard::region_levels(m, partition);
  EXPECT_TRUE(validate_wave_order(m, partition, levels).ok());
  // g2's region (root 5) is fed by g1's region (root 4); equal levels break
  // the strictly-increasing wave property.
  levels[4] = levels[5];
  const auto report = validate_wave_order(m, partition, levels);
  ASSERT_TRUE(report.has(Code::wave_order_broken)) << report.summary();
  EXPECT_EQ(report.find(Code::wave_order_broken)->node, 5u);
}

// --- flow report accounting --------------------------------------------------

flow::FlowReport consistent_report() {
  flow::FlowReport report;
  flow::PassStats a;
  a.name = "TF";
  a.oracle_queries = 10;
  a.oracle_answered = 7;
  a.oracle_cache5_hits = 4;
  a.oracle_synthesized = 3;
  a.oracle_failures = 1;
  a.oracle_conflicts = 2500;
  flow::PassStats b;
  b.name = "BFD";
  b.oracle_queries = 5;
  b.oracle_answered = 5;
  report.passes = {a, b};
  report.accumulate_oracle_totals();
  return report;
}

TEST(CheckReportTest, ConsistentReportValidates) {
  EXPECT_TRUE(validate_report(consistent_report()).ok());
}

TEST(CheckReportTest, RollupMismatchIsReported) {
  auto report = consistent_report();
  report.oracle_queries += 1;
  auto out = validate_report(report);
  EXPECT_TRUE(out.has(Code::report_rollup_mismatch)) << out.summary();
  report = consistent_report();
  report.oracle_conflicts -= 1;
  out = validate_report(report);
  EXPECT_TRUE(out.has(Code::report_rollup_mismatch)) << out.summary();
}

TEST(CheckReportTest, MismatchesNameTheCounter) {
  const auto consistent = consistent_report();
  auto report = consistent;
  report.oracle_constructed += 1;
  const auto rollup = validate_report(report);
  ASSERT_TRUE(rollup.has(Code::report_rollup_mismatch)) << rollup.summary();
  EXPECT_EQ(rollup.diagnostics.size(), 1u) << rollup.summary();
  EXPECT_EQ(rollup.find(Code::report_rollup_mismatch)->node, kNoNode);
  EXPECT_NE(rollup.summary().find("oracle_constructed"), std::string::npos)
      << rollup.summary();

  opt::OracleTally tally;
  tally.add(consistent);
  const auto out = validate_tally(report, tally);
  ASSERT_TRUE(out.has(Code::report_tally_mismatch)) << out.summary();
  EXPECT_EQ(out.diagnostics.size(), 1u) << out.summary();
  EXPECT_NE(out.summary().find("oracle_constructed"), std::string::npos) << out.summary();
}

TEST(CheckReportTest, CountsInvariantsHoldForAnyRecord) {
  // A resumed open entry counts as a cache hit, so failures and constructed
  // answers are bounded by hits plus syntheses, not by syntheses alone.
  opt::OracleCounts counts;
  counts.oracle_queries = 4;
  counts.oracle_answered = 4;
  counts.oracle_cache5_hits = 2;
  counts.oracle_failures = 2;
  counts.oracle_constructed = 2;
  EXPECT_TRUE(validate_counts(counts, "record").ok());
  counts.oracle_constructed = 3;
  const auto out = validate_counts(counts, "record", 7);
  ASSERT_TRUE(out.has(Code::report_pass_inconsistent)) << out.summary();
  EXPECT_EQ(out.find(Code::report_pass_inconsistent)->node, 7u);
  EXPECT_EQ(out.diagnostics[0].message, "record constructed 3 of 2 5-input lookups");
}

TEST(CheckReportTest, PassCounterConservation) {
  auto report = consistent_report();
  report.passes[1].oracle_answered = 6;  // answered > queries
  report.accumulate_oracle_totals();
  auto out = validate_report(report);
  ASSERT_TRUE(out.has(Code::report_pass_inconsistent)) << out.summary();
  EXPECT_EQ(out.find(Code::report_pass_inconsistent)->node, 1u);  // pass index

  // A failure may come from a query that resumed an open cache entry, so
  // failures may exceed syntheses — but never syntheses plus cache hits.
  report = consistent_report();
  report.passes[0].oracle_failures = 7;  // = cache5 + synthesized
  report.accumulate_oracle_totals();
  EXPECT_TRUE(validate_report(report).ok()) << validate_report(report).summary();
  report.passes[0].oracle_failures = 8;  // > cache5 + synthesized
  report.accumulate_oracle_totals();
  out = validate_report(report);
  ASSERT_TRUE(out.has(Code::report_pass_inconsistent)) << out.summary();
  EXPECT_EQ(out.find(Code::report_pass_inconsistent)->node, 0u);

  report = consistent_report();
  report.passes[0].oracle_cache5_hits = 9;  // cache5 + synthesized > queries
  report.accumulate_oracle_totals();
  EXPECT_TRUE(validate_report(report).has(Code::report_pass_inconsistent));
}

TEST(CheckReportTest, TallyConservation) {
  const auto report = consistent_report();
  opt::OracleTally tally;
  tally.add(report);
  EXPECT_TRUE(validate_tally(report, tally).ok());
  tally.conflicts += 1;
  EXPECT_TRUE(validate_tally(report, tally).has(Code::report_tally_mismatch));
  tally.conflicts -= 1;
  tally.queries += 2;
  const auto out = validate_tally(report, tally);
  EXPECT_TRUE(out.has(Code::report_tally_mismatch)) << out.summary();
}

// --- cache file lint ---------------------------------------------------------

tt::TruthTable representative(const tt::TruthTable& f) { return npn::canonize(f).representative; }

/// A cache line for `key`: its hex truth table, then `rest`.
std::string cache_line(const tt::TruthTable& key, const std::string& rest) {
  return key.to_hex() + ' ' + rest + '\n';
}

/// A v3 cache file whose header promises `lines.size()` lines, or `count`.
std::string cache_file(const std::vector<std::string>& lines, int64_t count = -1) {
  std::string text = "mighty-mig-5cut-cache v3 " +
                     std::to_string(count < 0 ? static_cast<int64_t>(lines.size()) : count) +
                     '\n';
  for (const auto& line : lines) text += line;
  return text;
}

/// One cache file, the diagnostics lint_cache_file must report for it (code
/// and 1-based line, in order), and whether ReplacementOracle::load_cache
/// accepts it.
struct CacheCase {
  std::string name;
  std::string text;
  std::vector<std::pair<Code, uint32_t>> diagnostics;
  bool loads;
};

std::vector<CacheCase> cache_cases() {
  const auto x = [](uint32_t i) { return tt::TruthTable::projection(5, i); };
  const auto chain_text = [](const tt::TruthTable& f) {
    return exact::synthesize_minimum_mig(f).chain.to_string();
  };
  // Three classes, in ascending key order: a projection (no gate), a
  // majority of three inputs (one gate) and the majority of five inputs.
  const auto proj = representative(x(0));
  const auto maj3_member = tt::TruthTable::maj(x(0), x(1), x(2));
  const auto maj3 = representative(maj3_member);
  tt::TruthTable maj5_member(5);
  for (uint32_t m = 0; m < 32; ++m) maj5_member.set_bit(m, __builtin_popcount(m) >= 3);
  const auto maj5 = representative(maj5_member);
  const auto proj_ok = cache_line(proj, "ok -1 0 " + chain_text(proj));
  const auto maj3_ok = cache_line(maj3, "ok 20000 137 " + chain_text(maj3));
  const auto maj5_line = [&maj5](const std::string& rest) { return cache_line(maj5, rest); };

  const Code header = Code::artifact_header, entry = Code::artifact_entry,
             not_canonical = Code::artifact_not_canonical, budget = Code::artifact_budget;
  return {
      {"clean", cache_file({proj_ok, maj3_ok, maj5_line("fail 20000 17")}), {}, true},
      {"empty", cache_file({}), {}, true},
      {"blank lines are skipped", cache_file({proj_ok, "\n", maj3_ok}, 2), {}, true},
      {"open record", cache_file({maj5_line("open 20000 1530 4")}), {}, true},
      {"proved failure", cache_file({maj5_line("fail -1 300")}), {}, true},
      {"unsorted keys warn only",
       cache_file({maj3_ok, proj_ok}),
       {{Code::artifact_order, kNoNode}},
       true},
      // The header.
      {"bad magic", "not-a-cache v3 0\n", {{header, 1}}, false},
      {"v2 header", "mighty-mig-5cut-cache v2 1\n" + maj3_ok, {{header, 1}}, false},
      {"v1 header", "mighty-mig-5cut-cache v1 1\n" + proj_ok, {{header, 1}}, false},
      {"unknown version", "mighty-mig-5cut-cache v99 0\n", {{header, 1}}, false},
      {"count mismatch", cache_file({proj_ok}, 5), {{header, 1}}, false},
      {"huge count", cache_file({}, 10000000000000000), {{header, 1}}, false},
      // Keys.
      {"malformed line names it", cache_file({proj_ok, "garbage\n"}), {{entry, 3}}, false},
      {"short and unparsable keys",
       cache_file({"abc fail 100 0\n", "zzzzzzzz fail 100 0\n"}),
       {{entry, 2}, {entry, 3}},
       false},
      {"key too long", cache_file({"fffffffff fail 100 0\n"}), {{entry, 2}}, false},
      {"duplicate key", cache_file({proj_ok, proj_ok}), {{entry, 3}}, false},
      {"key not its class representative",
       cache_file({proj_ok, cache_line(maj3_member, "ok 20000 137 " + chain_text(maj3_member))}),
       {{not_canonical, 3}},
       false},
      // `ok` chains.
      {"chain must realize its key",
       cache_file({maj5_line("ok -1 0 " + chain_text(proj))}),
       {{entry, 2}},
       false},
      {"chain must be canonically serialized",  // a doubled space: same chain, other text
       cache_file({cache_line(proj, "ok -1 0 " + chain_text(proj).replace(1, 1, "  "))}),
       {{not_canonical, 2}},
       false},
      {"trailing tokens after a chain",
       cache_file({cache_line(maj3, "ok 20000 137 " + chain_text(maj3) + " 7 7 7")}),
       {{not_canonical, 2}},
       false},
      {"chain reads a later step",
       cache_file({cache_line(maj3, "ok 1 0 5 1 12 2 4 12")}),
       {{entry, 2}},
       false},
      // `fail` and `open` records.
      {"trailing tokens after a failure", cache_file({maj5_line("fail 20000 17 junk")}),
       {{entry, 2}}, false},
      {"unknown record kind", cache_file({maj5_line("bogus 1 2")}), {{entry, 2}}, false},
      {"open record lacks its bound", cache_file({maj5_line("open 20000 10")}),
       {{entry, 2}}, false},
      {"open bound below the support bound", cache_file({maj5_line("open 20000 10 1")}),
       {{entry, 2}}, false},
      {"chain after an open bound", cache_file({maj5_line("open 20000 10 3 5 0 2")}),
       {{entry, 2}}, false},
      // Records that would freeze their class: every query a cache hit with
      // no replacement, and no search ever run again.
      {"negative failure budget", cache_file({maj5_line("fail -5 0")}), {{budget, 2}}, false},
      {"zero failure budget", cache_file({maj5_line("fail 0 0")}), {{budget, 2}}, false},
      {"open bound beyond max_gates", cache_file({maj5_line("open 20000 10 12")}),
       {{entry, 2}}, false},
      {"zero open budget", cache_file({maj5_line("open 0 10 3")}), {{budget, 2}}, false},
  };
}

TEST(CacheLintTest, MissingFile) {
  testutil::ScratchDir scratch{"mighty_check_test"};
  const auto report = lint_cache_file((scratch.dir / "absent.cache").string());
  EXPECT_TRUE(report.has(Code::artifact_io));
}

TEST(CacheLintTest, LinterAndLoaderAgreeOnEveryCase) {
  testutil::ScratchDir scratch{"mighty_check_test"};
  const exact::Database empty_db;  // loading never consults the database
  opt::OracleParams params;
  params.enable_five_input = true;
  for (const auto& c : cache_cases()) {
    SCOPED_TRACE(c.name + ":\n" + c.text);
    const auto path = scratch.dir / "test.cache";
    write_file(path, c.text);
    const auto report = lint_cache_file(path.string());
    const auto named = [](Code code, uint32_t line) {
      return std::string(code_name(code)) + " at " + std::to_string(line);
    };
    std::vector<std::string> expected, actual;
    for (const auto& [code, line] : c.diagnostics) expected.push_back(named(code, line));
    for (const auto& d : report.diagnostics) actual.push_back(named(d.code, d.node));
    EXPECT_EQ(actual, expected) << report.summary();
    EXPECT_EQ(report.ok(), c.loads) << report.summary();

    opt::ReplacementOracle oracle(empty_db, params);
    std::istringstream is(c.text);
    const auto loaded = oracle.load_cache(is);
    EXPECT_EQ(loaded.status, c.loads ? opt::ReplacementOracle::CacheLoadStatus::loaded
                                     : opt::ReplacementOracle::CacheLoadStatus::malformed);
    // A rejected file leaves the cache empty; an accepted one is adopted whole.
    EXPECT_EQ(oracle.cache_stats().entries, loaded.entries);
    EXPECT_EQ(loaded.adopted, loaded.entries);
  }
}

// --- database lint (small in-memory databases; the full 222-class database
// --- is linted by the db-labeled check_flow_test and build_npn_db --lint) ----

TEST(DatabaseLintTest, SmallDatabaseFlagsClassCountAndNonCanonicalKeys) {
  // Two loadable entries from the *same* NPN class (x1 and !x1): at most one
  // of them can be its own canonization, so the canonical-form-keys check
  // must flag at least one; and 2 != 222 classes trips the header check.
  std::istringstream is(
      "mighty-mig-npn4-db v1 2\n"
      "aaaa 0 0.5 4 0 2\n"
      "5555 0 0.5 4 0 3\n");
  const auto db = exact::Database::load(is);
  ASSERT_TRUE(db.has_value());
  const auto report = lint_database(*db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::artifact_header)) << report.summary();
  EXPECT_TRUE(report.has(Code::artifact_not_canonical)) << report.summary();
}

TEST(DatabaseLintTest, LoaderRejectsMalformedStreams) {
  for (const auto* text : {
           "wrong-magic v1 0\n",
           "mighty-mig-npn4-db v2 0\n",
           "mighty-mig-npn4-db v1 2\naaaa 0 0.5 4 0 2\n",  // count mismatch
           "mighty-mig-npn4-db v1 1\nzzzz 0 0.5 4 0 2\n",  // bad hex key
           "mighty-mig-npn4-db v1 1\naaaa 0 0.5 4 0 3\n",  // chain != key
           "mighty-mig-npn4-db v1 2\naaaa 0 0.5 4 0 2\naaaa 0 0.5 4 0 2\n",
       }) {
    std::istringstream is(text);
    EXPECT_FALSE(exact::Database::load(is).has_value()) << text;
  }
}

// --- validate_at layering ----------------------------------------------------

TEST(CheckValidateAtTest, FastStopsAtStructure) {
  const auto m = testutil::random_mig(5, 25, 2, 3);
  EXPECT_TRUE(validate_at(m, /*full=*/false).ok());
  EXPECT_TRUE(validate_at(m, /*full=*/true).ok());
}

TEST(CheckReportApiTest, SummaryNamesCodesAndNodes) {
  CheckReport report;
  EXPECT_EQ(report.summary(), "check: ok\n");
  report.add(Code::fanin_not_topological, 7, "test message");
  report.add(Code::artifact_order, kNoNode, "disorder", Severity::warning);
  const auto text = report.summary();
  EXPECT_NE(text.find("error[fanin_not_topological] node 7"), std::string::npos);
  EXPECT_NE(text.find("warning[artifact_order]"), std::string::npos);
  EXPECT_EQ(report.num_errors(), 1u);
  EXPECT_EQ(report.num_warnings(), 1u);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace mighty::check
