// Ablation E: 5-input cuts.  The paper notes that enumerating all NPN classes
// of 5-variable functions is impractical and points to rewriting with a
// dynamically discovered subset (Sec. IV, ref. [9]).  This bench compares
// 4-input rewriting against the 5-input extension (on-demand bounded exact
// synthesis with caching) on the arithmetic suite.

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "suite_common.hpp"

using namespace mighty;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  printf("Ablation: 4-input vs 5-input cut rewriting (variant TF)\n");
  printf("mode: %s\n\n", full ? "full" : "reduced widths (--full for paper sizes)");

  const auto db = exact::Database::load_or_build(exact::default_database_path());
  auto suite = bench::prepare_suite(!full);

  printf("%-12s | %8s | %8s %6s %7s | %8s %6s %7s\n", "Benchmark", "base",
         "k=4 S", "D", "RT", "k=5 S", "D", "RT");
  bench::print_rule(76);
  double ratio4 = 0.0, ratio5 = 0.0;
  for (const auto& benchmark : suite) {
    const uint32_t s0 = benchmark.baseline.count_live_gates();
    printf("%-12s | %8u |", benchmark.name.c_str(), s0);

    // A fresh session per benchmark: every row pays for its own first-seen
    // 5-input functions.
    flow::Session session(db);
    flow::FlowReport four, five;
    flow::Pipeline::parse("TF").run(benchmark.baseline, session, &four);
    printf(" %8u %6u %6.2fs |", four.size_after, four.depth_after, four.seconds);
    fflush(stdout);

    flow::Pipeline::parse("TF5").run(benchmark.baseline, session, &five);
    printf(" %8u %6u %6.2fs\n", five.size_after, five.depth_after, five.seconds);
    ratio4 += static_cast<double>(four.size_after) / s0;
    ratio5 += static_cast<double>(five.size_after) / s0;
    fflush(stdout);
  }
  bench::print_rule(76);
  printf("avg size ratio: k=4 %.3f, k=5 %.3f\n\n", ratio4 / suite.size(),
         ratio5 / suite.size());
  printf("expected shape: k=5 finds additional reductions, paid for by the\n"
         "on-demand synthesis time on first-seen cut functions.\n");
  return 0;
}
