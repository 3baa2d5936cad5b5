#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "cec/cec.hpp"
#include "exact/exact_synthesis.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/cuts.hpp"
#include "mig/ffr.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"
#include "tt/truth_table.hpp"
#include "util/thread_pool.hpp"

/// Determinism and safety of the parallel flow engine: `threads=N` must
/// produce bit-identical networks to `threads=1` (checked structurally via
/// BLIF serialization, which is stronger than CEC), the shared oracle must
/// stay consistent under concurrent queries, and the "parallel:n" script
/// directive must round-trip.  These tests carry the `parallel` ctest label
/// so the ThreadSanitizer CI leg can select exactly the concurrency surface.

namespace mighty::flow {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

Session make_session(uint32_t threads = 1) {
  SessionParams params;
  params.threads = threads;
  return Session(exact::Database(db()), std::move(params));
}

std::string to_blif(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

/// Runs `script` at both thread counts and checks the outputs are the same
/// network, gate for gate, with matching reports.
void expect_thread_count_invariance(const mig::Mig& m, const std::string& script,
                                    uint32_t threads) {
  auto s1 = make_session(1);
  auto sn = make_session(threads);
  FlowReport r1, rn;
  const auto o1 = Pipeline::parse(script).run(m, s1, &r1);
  const auto on = Pipeline::parse(script).run(m, sn, &rn);

  EXPECT_EQ(to_blif(o1), to_blif(on)) << script << " diverges at threads=" << threads;
  ASSERT_EQ(r1.passes.size(), rn.passes.size());
  for (size_t i = 0; i < r1.passes.size(); ++i) {
    EXPECT_EQ(r1.passes[i].size_after, rn.passes[i].size_after) << i;
    EXPECT_EQ(r1.passes[i].depth_after, rn.passes[i].depth_after) << i;
    EXPECT_EQ(r1.passes[i].replacements, rn.passes[i].replacements) << i;
    EXPECT_EQ(r1.passes[i].oracle_queries, rn.passes[i].oracle_queries) << i;
  }
  EXPECT_EQ(r1.size_after, rn.size_after);
  EXPECT_EQ(r1.depth_after, rn.depth_after);
  EXPECT_TRUE(cec::random_simulation_equal(m, on, 16, 0xA11CE));
}

// --- the acceptance networks: 32-bit multiplier and square root --------------

TEST(ParallelFlowTest, Multiplier32IsThreadCountInvariant) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(32));
  expect_thread_count_invariance(m, "TF;BFD;size", 4);
}

TEST(ParallelFlowTest, Sqrt16ConvergenceFlowIsThreadCountInvariant) {
  const auto m = algebra::depth_optimize(gen::make_sqrt_n(16));
  expect_thread_count_invariance(m, "(TF;BFD;size)*<4", 4);
}

TEST(ParallelFlowTest, OddThreadCountsMatchToo) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(8));
  expect_thread_count_invariance(m, "(TF;BFD;size)*<3", 3);
  expect_thread_count_invariance(m, "BF;size;TFD", 7);
}

TEST(ParallelFlowTest, ParallelResultIsSatProvenEquivalent) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(8));
  auto session = make_session(4);
  const auto out = Pipeline::parse("TF;BFD;size").run(m, session);
  EXPECT_EQ(cec::check_equivalence(m, out).status, cec::CecStatus::equivalent);
}

// --- size-bounded 5-input synthesis -------------------------------------------

TEST(ParallelFlowTest, BoundedFiveInputFlowIsThreadCountInvariant) {
  // Max 4 still reaches SAT: class 0017e8ff's Theorem-2 chain misses its
  // size lower bound.
  const auto m = algebra::depth_optimize(gen::make_max_n(4));
  auto s1 = make_session(1);
  auto s3 = make_session(3);
  FlowReport r1, r3;
  const auto o1 = Pipeline::parse("TF5;size").run(m, s1, &r1);
  const auto o3 = Pipeline::parse("TF5;size").run(m, s3, &r3);
  EXPECT_EQ(to_blif(o1), to_blif(o3));
  ASSERT_EQ(r1.passes.size(), r3.passes.size());
  for (size_t i = 0; i < r1.passes.size(); ++i) {
    EXPECT_EQ(r1.passes[i].counts(), r3.passes[i].counts()) << r1.passes[i].name;
  }
  EXPECT_GT(r1.oracle_synthesized, 0u);
  EXPECT_GT(r1.oracle_conflicts, 0u);
  EXPECT_GT(r1.oracle_constructed, 0u);
  EXPECT_LT(r1.oracle_constructed, r1.oracle_synthesized);
  EXPECT_EQ(s1.oracle().sat_conflicts(), s3.oracle().sat_conflicts());
  EXPECT_EQ(s1.oracle().constructed_count(), s3.oracle().constructed_count());
}

/// Rewrites `m` with `script` twice: in a cold session, whose queries stop at
/// the cone bound, and in a session whose oracle already knows the unbounded
/// minimum of every 5-input cut function the pass can query (cuts within FFRs
/// when `ffr_mode`).  The two must
/// produce the same network.  Returns the open entries the cold run left.
size_t expect_size_bound_keeps_plan(const mig::Mig& m, const std::string& script,
                                    bool ffr_mode) {
  const auto pipeline = Pipeline::parse(script);
  auto cold = make_session(1);
  const auto expected = pipeline.run(m, cold);

  auto warm = make_session(1);
  cuts::CutEnumerationParams cut_params;
  cut_params.cut_size = 5;
  const auto boundary = ffr::ffr_boundary(ffr::compute_ffrs(m));
  if (ffr_mode) cut_params.boundary = &boundary;
  const auto cut_sets = cuts::enumerate_cuts(m, cut_params);
  size_t prefilled = 0;
  for (uint32_t v = 0; v < m.num_nodes(); ++v) {
    if (!m.is_gate(v)) continue;
    for (const auto& cut : cut_sets[v]) {
      const auto f = mig::simulate_cut(m, v, cut.leaf_vector());
      if (f.support_size() != 5) continue;
      warm.oracle().query(f);
      ++prefilled;
    }
  }
  EXPECT_GT(prefilled, 0u) << script;
  EXPECT_EQ(warm.oracle().cache_stats().open, 0u) << script;
  FlowReport report;
  const auto out = pipeline.run(m, warm, &report);
  EXPECT_EQ(to_blif(out), to_blif(expected)) << script;
  EXPECT_EQ(report.oracle_synthesized, 0u) << script;
  return cold.oracle().cache_stats().open;
}

TEST(ParallelFlowTest, SizeBoundNeverChangesThePlan) {
  // The size lower bound answers adder8's cut-short TF5 queries without a
  // search.  30115150 realized by its 5-gate minimum is a query that stops at
  // the cone bound: its bound (4) admits a 4-gate replacement of the whole
  // chain, which does not exist, so the entry stays open.  The chain shares a
  // gate, so only global mode (T5) sees that cut.
  EXPECT_EQ(expect_size_bound_keeps_plan(algebra::depth_optimize(gen::make_adder_n(8)),
                                         "TF5;size", true),
            0u);
  const auto open_function = exact::synthesize_minimum_mig(
      tt::TruthTable::from_hex(5, "30115150"), exact::SynthesisOptions{});
  ASSERT_EQ(open_function.chain.size(), 5u);
  mig::Mig m;
  m.create_po(open_function.chain.instantiate(m, m.create_pis(5)));
  EXPECT_GT(expect_size_bound_keeps_plan(m, "T5;size", false), 0u) << "no query was cut short";
}

// --- session / script surface ------------------------------------------------

TEST(ParallelFlowTest, WorkerPoolMaterializesOnlyWhenParallel) {
  auto session = make_session(1);
  EXPECT_EQ(session.worker_pool(), nullptr);
  session.set_threads(4);
  ASSERT_NE(session.worker_pool(), nullptr);
  EXPECT_EQ(session.worker_pool()->parallelism(), 4u);
  session.set_threads(0);  // clamps to 1
  EXPECT_EQ(session.threads(), 1u);
  EXPECT_EQ(session.worker_pool(), nullptr);
}

TEST(ParallelFlowTest, ParallelDirectiveParsesAndRoundTrips) {
  EXPECT_EQ(Pipeline::parse("parallel:4").to_script(), "parallel:4");
  EXPECT_EQ(Pipeline::parse("parallel4;TF").to_script(), "parallel:4;TF");
  EXPECT_EQ(Pipeline::parse(" PARALLEL : 2 ; size ").to_script(), "parallel:2;size");
  EXPECT_EQ(Pipeline().parallel(8).to_script(), "parallel:8");
  EXPECT_THROW(Pipeline::parse("parallel"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("parallel:0"), std::invalid_argument);
  EXPECT_THROW(Pipeline::parse("parallel:9999"), std::invalid_argument);
}

TEST(ParallelFlowTest, ParallelDirectiveSetsSessionThreads) {
  auto session = make_session(1);
  const auto m = testutil::random_mig(6, 60, 4, 5);
  FlowReport report;
  const auto out = Pipeline::parse("parallel:2;TF").run(m, session, &report);
  EXPECT_EQ(session.threads(), 2u);
  // The directive adds no trajectory entry — only TF reports.
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].name, "TF");
  // And the directive changes throughput only, never the result.
  auto sequential = make_session(1);
  const auto expected = Pipeline::parse("TF").run(m, sequential);
  EXPECT_EQ(to_blif(out), to_blif(expected));
}

// --- concurrent oracle -------------------------------------------------------

TEST(ParallelOracleTest, ConcurrentQueriesKeepCountersConsistent) {
  auto session = make_session(1);
  auto& oracle = session.oracle();
  // Hammer the oracle from four threads with overlapping 4-input functions;
  // every query must be answered and accounted exactly once.
  util::ThreadPool pool(4);
  constexpr size_t kQueries = 2000;
  std::atomic<uint64_t> answered{0};
  pool.parallel_for(kQueries, [&](size_t i) {
    const auto f = tt::TruthTable(4, 0x0123456789abcdefull * (i % 97) + i % 11);
    if (oracle.query(f)) answered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(oracle.queries(), kQueries);
  EXPECT_EQ(oracle.answered(), answered.load());
  EXPECT_EQ(oracle.answered(), kQueries);  // 4-input lookups always hit
}

TEST(ParallelOracleTest, ConcurrentInstantiationMatchesQueries) {
  auto session = make_session(1);
  auto& oracle = session.oracle();
  util::ThreadPool pool(4);
  // Each task builds its own private network, as region tasks do.
  std::vector<uint32_t> sizes(64, 0);
  pool.parallel_for(sizes.size(), [&](size_t i) {
    const auto f = tt::TruthTable(4, 0x96696996u ^ (0x1111u * i));
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    mig::Mig net;
    const auto pis = net.create_pis(4);
    net.create_po(oracle.instantiate(f, net, pis));
    sizes[i] = net.count_live_gates();
    EXPECT_EQ(mig::output_truth_tables(net)[0], f);
    EXPECT_EQ(net.count_live_gates(), info->size);
  });
}

}  // namespace
}  // namespace mighty::flow
