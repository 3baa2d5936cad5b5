// Ablation A: the bottom-up algorithm stores only "a predetermined number of
// best candidates, similar to priority cuts" (paper Sec. IV-B).  This bench
// sweeps that bound and the combination cap to expose the quality/run-time
// trade-off the paper alludes to.

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "suite_common.hpp"

using namespace mighty;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  printf("Ablation: bottom-up candidate-list bound (variant BF)\n\n");

  flow::Session session;
  const auto baseline = algebra::depth_optimize(
      full ? gen::make_multiplier_n(64) : gen::make_multiplier_n(16));
  printf("input: multiplier, %u gates, depth %u\n\n", baseline.count_live_gates(),
         baseline.depth());

  printf("%10s %12s | %8s %6s %8s\n", "candidates", "combinations", "size", "depth",
         "time[s]");
  bench::print_rule(52);
  for (const uint32_t candidates : {1u, 2u, 4u, 8u}) {
    for (const uint32_t combos : {4u, 16u, 64u}) {
      auto params = opt::variant_params("BF");
      params.max_candidates = candidates;
      params.max_combinations = combos;
      flow::FlowReport report;
      flow::Pipeline().rewrite(params, "BF").run(baseline, session, &report);
      printf("%10u %12u | %8u %6u %8.2f\n", candidates, combos, report.size_after,
             report.depth_after, report.seconds);
      fflush(stdout);
    }
  }
  printf("\nexpected shape: more candidates/combinations buy small size gains at\n"
         "superlinear run-time cost, which is why the paper bounds the list.\n");
  return 0;
}
