#pragma once

#include <string>
#include <vector>

#include "flow/corpus.hpp"
#include "flow/pass.hpp"
#include "flow/pipeline.hpp"

/// \file batch.hpp
/// \brief Corpus-level batch execution: many networks in flight on one
/// session, oracle shared corpus-wide.
///
/// A standalone Pipeline::run optimizes one network; BatchRunner executes the
/// same pipeline over a whole Corpus with a two-level scheduler:
///
///   * outer level — the unit of scheduling is a *(network, pass)* task.
///     Every network starts with its first top-level pass queued; finishing
///     pass i enqueues pass i+1 of the same network, so many networks are in
///     flight at once and short networks never wait for long ones.
///   * inner level — each pass still fans out over FFR shards through the
///     very same util::ThreadPool (the shard-parallel drivers of PR 2),
///     soaking up idle workers whenever fewer networks than threads remain.
///
/// The session's ReplacementOracle — including the 5-input synthesis cache —
/// and the NPN-lookup memo serve every task of every network, so one
/// benchmark's synthesis work warms the next: the corpus-wide reuse the
/// paper's functional hashing is built on.
///
/// Determinism: a network's result in a `threads=N` batch is bit-identical
/// to its standalone `threads=1` run.  Both levels only decide *where* and
/// *when* work executes, never *what* is computed — passes are bit-identical
/// at any thread count (PR 2), and oracle answers are a pure function of the
/// queried truth table (its NPN class's cache entry read through its
/// transform), so sharing the cache across networks changes cost, never
/// results.
///
///   flow::Session session;
///   session.set_threads(8);
///   auto corpus = flow::Corpus::from_directory("data/corpus");
///   flow::BatchReport report;
///   auto optimized = flow::BatchRunner(session).run(
///       corpus, flow::Pipeline::parse("TF; (BFD; size)*"), &report);
///   fputs(report.summary().c_str(), stdout);

namespace mighty::flow {

/// One network's outcome in a batch run.
struct NetworkReport {
  std::string name;
  /// Per-pass trajectory and totals, exactly as a standalone Pipeline::run
  /// would report them (seconds sums task execution time, excluding time the
  /// network spent queued behind others).
  FlowReport flow;
  /// Non-empty when the pipeline failed on this network; the batch continues
  /// with the remaining networks and the result keeps the input unchanged.
  std::string error;
};

/// Roll-up over a whole batch: per-network reports plus corpus-wide totals
/// (the inherited oracle counters included).
struct BatchReport : opt::OracleCounts {
  std::vector<NetworkReport> networks;
  double seconds = 0.0;  ///< wall time of the whole batch run

  // Corpus-wide totals, summed over networks that completed.
  uint32_t size_before = 0;
  uint32_t size_after = 0;
  uint64_t depth_before = 0;  ///< sum of per-network depths (for delta ratios)
  uint64_t depth_after = 0;

  size_t failures() const;

  /// Recomputes the corpus-wide totals from the per-network reports.
  void finalize();

  /// Per-network table plus the corpus totals line.
  std::string summary() const;
};

/// Executes one Pipeline over a Corpus on a shared Session.
class BatchRunner {
public:
  explicit BatchRunner(Session& session) : session_(session) {}

  /// Runs `pipeline` over every corpus entry; returns the optimized networks
  /// in corpus order.  With session parallelism 1 networks run sequentially
  /// in corpus order; otherwise the two-level scheduler above applies — the
  /// results are bit-identical either way.  When `report` is given it is
  /// reset and filled with per-network reports and the corpus roll-up.
  ///
  /// Throws std::invalid_argument if the pipeline contains a "parallel:n"
  /// directive: that knob rebuilds the session's worker pool, which must not
  /// happen while batch tasks run on it — set Session::set_threads (or the
  /// session params) before the batch instead.
  std::vector<mig::Mig> run(const Corpus& corpus, const Pipeline& pipeline,
                            BatchReport* report = nullptr);

private:
  Session& session_;
};

}  // namespace mighty::flow
