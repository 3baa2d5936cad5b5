// Corpus-level batch execution: one Pipeline over many networks, one Session,
// replacement oracle shared corpus-wide (ROADMAP "Batch workloads" item).
//
// Two configurations run the same script over the same corpus:
//
//   * warm — flow::BatchRunner, many networks in flight on the session pool,
//     the 5-input synthesis cache serving every network;
//   * cold — one fresh Session per network, the pre-batch baseline: every
//     network pays its own oracle warm-up.
//
// Both produce bit-identical networks (oracle answers are a pure function of
// the queried truth table's NPN class, its transform and the size bound);
// what changes is the work: the warm corpus-wide
// 5-cut cache reuse rate must be strictly higher than the mean of the cold
// sessions' rates — synthesis one network already paid is a lookup for the
// next.  The binary exits nonzero when that inequality fails.  The JSON
// records each side's 5-input syntheses, SAT conflicts and synthesis
// failures, which tools/check_bench.py fails when they rise.
//
// Flags: --corpus DIR (load every *.blif of DIR; default: the built-in
// generator corpus, which `tools/make_corpus.cmake` exports to
// build/data/corpus), --script S (default "TF5;size"), --threads n,
// --json FILE (BENCH_corpus.json for the tools/check_bench.py gate).

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cec/cec.hpp"
#include "flow/flow.hpp"

using namespace mighty;

int main(int argc, char** argv) {
  const std::string corpus_dir = bench::string_flag(argc, argv, "--corpus");
  const std::string script = bench::string_flag(argc, argv, "--script", "TF5;size");
  const int threads = bench::int_flag(argc, argv, "--threads", 1);
  const std::string json_path = bench::string_flag(argc, argv, "--json");

  printf("Corpus batch execution: script \"%s\", %d thread%s\n", script.c_str(),
         threads, threads == 1 ? "" : "s");

  const auto corpus = corpus_dir.empty() ? flow::Corpus::generated_arithmetic()
                                         : flow::Corpus::from_directory(corpus_dir);
  printf("corpus: %zu networks (%s)\n\n", corpus.size(),
         corpus_dir.empty() ? "built-in generators" : corpus_dir.c_str());
  const auto pipeline = flow::Pipeline::parse(script);

  // Load the database once; every session below shares the same contents.
  flow::Session warm_session;
  warm_session.set_threads(static_cast<uint32_t>(threads > 0 ? threads : 1));
  const exact::Database& db = warm_session.database();

  // --- warm: one batch, oracle shared corpus-wide ----------------------------
  flow::BatchReport warm;
  const auto optimized = flow::BatchRunner(warm_session).run(corpus, pipeline, &warm);
  fputs(warm.summary().c_str(), stdout);
  if (warm.failures() > 0) {
    fprintf(stderr, "batch run failed on %zu network(s)\n", warm.failures());
    return 1;
  }

  // --- cold: a fresh session (and oracle) per network ------------------------
  std::vector<flow::FlowReport> cold(corpus.size());
  double cold_seconds = 0.0;
  bool all_equivalent = true;
  for (size_t i = 0; i < corpus.size(); ++i) {
    flow::SessionParams params;
    params.threads = static_cast<uint32_t>(threads > 0 ? threads : 1);
    flow::Session session(exact::Database(db), std::move(params));
    const auto out = pipeline.run(corpus[i].mig, session, &cold[i]);
    cold_seconds += cold[i].seconds;
    // The warm and cold runs must agree network for network — sharing the
    // oracle changes cost, never results.  Fast simulation filter here; the
    // structural proof lives in tests/batch_flow_test.cpp.
    if (!cec::random_simulation_equal(out, optimized[i], 8, 0xC0FFEE + i)) {
      all_equivalent = false;
    }
  }

  // --- comparison ------------------------------------------------------------
  // The number warmth moves: the fraction of 5-input lookups served from
  // cache instead of the SAT solver.  (answered/queries is a pure function
  // of the queried truth tables, identical warm or cold.)
  double cold_rate_sum = 0.0;
  uint64_t cold_lookups = 0, cold_synthesized = 0, cold_constructed = 0, cold_conflicts = 0;
  uint64_t cold_failures = 0;
  for (const auto& report : cold) {
    cold_rate_sum += report.cache5_reuse_rate();
    cold_lookups += report.oracle_cache5_hits + report.oracle_synthesized;
    cold_synthesized += report.oracle_synthesized;
    cold_constructed += report.oracle_constructed;
    cold_conflicts += report.oracle_conflicts;
    cold_failures += report.oracle_failures;
  }
  const double cold_mean_rate = corpus.empty() ? 1.0 : cold_rate_sum / corpus.size();
  const double warm_rate = warm.cache5_reuse_rate();

  printf("\n%-28s %10s %10s\n", "", "warm", "cold");
  printf("%-28s %10.2f %10.2f\n", "wall time [s]", warm.seconds, cold_seconds);
  printf("%-28s %10llu %10llu  (%llu / %llu by construction)\n", "5-input syntheses",
         static_cast<unsigned long long>(warm.oracle_synthesized),
         static_cast<unsigned long long>(cold_synthesized),
         static_cast<unsigned long long>(warm.oracle_constructed),
         static_cast<unsigned long long>(cold_constructed));
  printf("%-28s %10llu %10llu\n", "5-input SAT conflicts",
         static_cast<unsigned long long>(warm.oracle_conflicts),
         static_cast<unsigned long long>(cold_conflicts));
  printf("%-28s %10llu %10llu\n", "5-input synthesis failures",
         static_cast<unsigned long long>(warm.oracle_failures),
         static_cast<unsigned long long>(cold_failures));
  printf("%-28s %9.1f%% %9.1f%%  (corpus-wide vs. mean of cold sessions)\n",
         "5-cut cache reuse", 100.0 * warm_rate, 100.0 * cold_mean_rate);
  printf("equivalence filter: %s\n", all_equivalent ? "warm == cold" : "MISMATCH");

  const bool reuse_improved = cold_lookups == 0 || warm_rate > cold_mean_rate;
  if (!reuse_improved) {
    fprintf(stderr, "corpus-wide reuse did not beat cold sessions\n");
  }

  if (!json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    for (size_t i = 0; i < corpus.size(); ++i) {
      const auto& flow_report = warm.networks[i].flow;
      bench::BenchRecord record;
      record.name = corpus[i].name;
      record.baseline = {{"size", static_cast<double>(flow_report.size_before)},
                         {"depth", static_cast<double>(flow_report.depth_before)}};
      // Per-network 5-cut attribution is schedule-dependent in a batch (the
      // first network to ask pays the synthesis), so only deterministic
      // metrics are recorded per network; cache metrics are corpus-level.
      record.variants.emplace_back(
          "batch", std::vector<std::pair<std::string, double>>{
                       {"size", static_cast<double>(flow_report.size_after)},
                       {"depth", static_cast<double>(flow_report.depth_after)},
                       {"seconds", flow_report.seconds}});
      record.variants.emplace_back(
          "cold", std::vector<std::pair<std::string, double>>{
                      {"size", static_cast<double>(cold[i].size_after)},
                      {"depth", static_cast<double>(cold[i].depth_after)},
                      {"seconds", cold[i].seconds}});
      records.push_back(std::move(record));
    }
    bench::BenchRecord corpus_record;
    corpus_record.name = "corpus";
    corpus_record.baseline = {
        {"networks", static_cast<double>(corpus.size())},
        {"size", static_cast<double>(warm.size_before)}};
    corpus_record.variants.emplace_back(
        "warm", std::vector<std::pair<std::string, double>>{
                    {"size", static_cast<double>(warm.size_after)},
                    {"cache5_reuse_rate", warm_rate},
                    {"oracle_hit_rate", warm.oracle_hit_rate()},
                    {"syntheses", static_cast<double>(warm.oracle_synthesized)},
                    {"conflicts", static_cast<double>(warm.oracle_conflicts)},
                    {"oracle_failures", static_cast<double>(warm.oracle_failures)},
                    {"seconds", warm.seconds}});
    corpus_record.variants.emplace_back(
        "cold", std::vector<std::pair<std::string, double>>{
                    {"mean_cache5_reuse_rate", cold_mean_rate},
                    {"syntheses", static_cast<double>(cold_synthesized)},
                    {"conflicts", static_cast<double>(cold_conflicts)},
                    {"oracle_failures", static_cast<double>(cold_failures)},
                    {"seconds", cold_seconds}});
    records.push_back(std::move(corpus_record));
    if (bench::write_bench_json(json_path, "corpus_flow",
                                corpus_dir.empty() ? "generated" : "directory",
                                threads, records)) {
      printf("machine-readable results: %s\n", json_path.c_str());
    } else {
      fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return all_equivalent && reuse_improved ? 0 : 1;
}
