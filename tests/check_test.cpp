#include "check/check.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exact/database.hpp"
#include "gen/arith.hpp"
#include "mig/ffr.hpp"
#include "mig/mig.hpp"
#include "mig/shard.hpp"
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
  tally.queries = report.oracle_queries;
  tally.answered = report.oracle_answered;
  tally.cache5_hits = report.oracle_cache5_hits;
  tally.synthesized = report.oracle_synthesized;
  tally.failures = report.oracle_failures;
  tally.conflicts = report.oracle_conflicts;
  EXPECT_TRUE(validate_tally(report, tally).ok());
  tally.conflicts += 1;
  EXPECT_TRUE(validate_tally(report, tally).has(Code::report_tally_mismatch));
  tally.conflicts -= 1;
  tally.queries += 2;
  const auto out = validate_tally(report, tally);
  EXPECT_TRUE(out.has(Code::report_tally_mismatch)) << out.summary();
}

// --- cache file lint ---------------------------------------------------------

class CacheLintTest : public ::testing::Test {
protected:
  testutil::ScratchDir scratch{"mighty_check_test"};

  CheckReport lint(const std::string& text) {
    const auto path = scratch.dir / "test.cache";
    write_file(path, text);
    return lint_cache_file(path.string());
  }
};

TEST_F(CacheLintTest, MissingFile) {
  const auto report = lint_cache_file((scratch.dir / "absent.cache").string());
  EXPECT_TRUE(report.has(Code::artifact_io));
}

TEST_F(CacheLintTest, CleanFilePasses) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 3\n"
      "0000ffff fail 20000 17\n"
      "aaaaaaaa ok -1 0 5 0 2\n"
      "e8e8e8e8 ok 20000 137 5 1 12 2 4 6\n");
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

TEST_F(CacheLintTest, BadHeader) {
  const auto report = lint("not-a-cache v1 0\n");
  ASSERT_TRUE(report.has(Code::artifact_header)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_header)->node, 1u);
}

TEST_F(CacheLintTest, MalformedEntryNamesTheLine) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 2\n"
      "aaaaaaaa ok -1 0 5 0 2\n"
      "garbage\n");
  ASSERT_TRUE(report.has(Code::artifact_entry)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_entry)->node, 3u);  // 1-based file line
}

TEST_F(CacheLintTest, ShortAndUnparsableKeys) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 2\n"
      "abc fail 100 0\n"
      "zzzzzzzz fail 100 0\n");
  EXPECT_EQ(report.num_errors(), 2u) << report.summary();
  EXPECT_TRUE(report.has(Code::artifact_entry));
}

TEST_F(CacheLintTest, DuplicateKey) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 2\n"
      "aaaaaaaa ok -1 0 5 0 2\n"
      "aaaaaaaa ok -1 0 5 0 2\n");
  ASSERT_TRUE(report.has(Code::artifact_entry)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_entry)->node, 3u);
}

TEST_F(CacheLintTest, ChainMustRealizeKey) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "00000000 ok -1 0 5 0 2\n");  // chain computes x1, key says constant 0
  ASSERT_TRUE(report.has(Code::artifact_entry)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_entry)->node, 2u);
}

TEST_F(CacheLintTest, ChainMustBeCanonicallySerialized) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "aaaaaaaa ok -1 0 5  0 2\n");  // doubled space: same chain, different text
  EXPECT_TRUE(report.has(Code::artifact_not_canonical)) << report.summary();
}

TEST_F(CacheLintTest, FrozenFailureBudget) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "0000ffff fail 0 5\n");  // budget 0: failure that never ran the solver
  ASSERT_TRUE(report.has(Code::artifact_budget)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_budget)->node, 2u);
}

TEST_F(CacheLintTest, TrailingTokensAfterFailure) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "0000ffff fail 20000 17 junk\n");
  EXPECT_TRUE(report.has(Code::artifact_entry)) << report.summary();
}

TEST_F(CacheLintTest, OpenRecordsPassInV2) {
  const auto report = lint(
      "mighty-mig-5cut-cache v2 3\n"
      "0000ffff fail 20000 17\n"
      "1234abcd open 20000 1530 4\n"
      "aaaaaaaa ok -1 0 5 0 2\n");
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

TEST_F(CacheLintTest, VersionThreeKeysMustBeClassRepresentatives) {
  // 0000ffff (!x5) represents the class of aaaaaaaa (x1); e8e8e8e8
  // (<x1 x2 x3>) is a member of 000f0fff's class, not its representative.
  const auto report = lint(
      "mighty-mig-5cut-cache v3 2\n"
      "0000ffff ok -1 0 5 0 11\n"
      "e8e8e8e8 ok 20000 137 5 1 12 2 4 6\n");
  ASSERT_TRUE(report.has(Code::artifact_not_canonical)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_not_canonical)->node, 3u);
  EXPECT_EQ(report.num_errors(), 1u) << report.summary();
}

TEST_F(CacheLintTest, MalformedOpenRecords) {
  const auto report = lint(
      "mighty-mig-5cut-cache v2 6\n"
      "00000001 open 20000 10\n"          // no lower bound
      "00000002 open 20000 10 1\n"        // below the support bound
      "00000003 open 20000 10 10\n"       // beyond max_gates
      "00000004 open 20000 10 3 5 0 2\n"  // a chain after the bound
      "00000005 open 20000 10 3\n"        // valid
      "00000006 open 0 10 3\n");          // frozen budget
  std::vector<uint32_t> entry_lines;
  for (const auto& d : report.diagnostics) {
    if (d.code == Code::artifact_entry) entry_lines.push_back(d.node);
  }
  EXPECT_EQ(entry_lines, (std::vector<uint32_t>{2, 3, 4, 5})) << report.summary();
  ASSERT_TRUE(report.has(Code::artifact_budget)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_budget)->node, 7u);
}

TEST_F(CacheLintTest, OpenRecordInV1FileIsAnError) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "1234abcd open 20000 1530 4\n");
  ASSERT_TRUE(report.has(Code::artifact_entry)) << report.summary();
  EXPECT_EQ(report.find(Code::artifact_entry)->node, 2u);
}

TEST_F(CacheLintTest, UnknownStatus) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 1\n"
      "0000ffff bogus 1 2\n");
  EXPECT_TRUE(report.has(Code::artifact_entry)) << report.summary();
}

TEST_F(CacheLintTest, CountMismatch) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 5\n"
      "aaaaaaaa ok -1 0 5 0 2\n");
  EXPECT_TRUE(report.has(Code::artifact_header)) << report.summary();
}

TEST_F(CacheLintTest, UnsortedKeysWarnOnly) {
  const auto report = lint(
      "mighty-mig-5cut-cache v1 2\n"
      "e8e8e8e8 ok 20000 137 5 1 12 2 4 6\n"
      "aaaaaaaa ok -1 0 5 0 2\n");
  EXPECT_TRUE(report.ok()) << report.summary();  // a warning, not an error
  EXPECT_EQ(report.num_warnings(), 1u);
  ASSERT_TRUE(report.has(Code::artifact_order));
  EXPECT_EQ(report.find(Code::artifact_order)->severity, Severity::warning);
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
