// Ablation D: iterated functional hashing.  The paper applies the algorithm
// once and notes that "running it several times or combining it with other
// optimization or reshaping algorithms will likely lead to further
// improvements" (Sec. V-C).  This bench measures that with flow::Pipeline
// combinators: a variant iterated to its fixpoint, and rounds of BF
// interleaved with the algebraic size optimization.

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "suite_common.hpp"

using namespace mighty;

namespace {

void print_trajectory(const flow::FlowReport& report) {
  printf("  %5s | %-10s %8s %6s %8s\n", "pass", "name", "size", "depth", "time[s]");
  for (size_t i = 0; i < report.passes.size(); ++i) {
    const auto& p = report.passes[i];
    printf("  %5zu | %-10s %8u %6u %8.2f\n", i + 1, p.name.c_str(), p.size_after,
           p.depth_after, p.seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  printf("Ablation: iterating the functional-hashing pass\n\n");

  flow::Session session;
  session.database();  // load (or build) outside the reported timings
  const auto baseline = flow::Pipeline().depth_opt().run(
      full ? gen::make_sqrt_n(64) : gen::make_sqrt_n(16), session);
  printf("input: square-root, %u gates, depth %u\n\n", baseline.count_live_gates(),
         baseline.depth());

  for (const auto& variant : {"TF", "BF"}) {
    printf("variant %s, iterated to convergence (max 5 passes):\n", variant);
    const auto pipeline =
        flow::Pipeline().rewrite(variant).until_convergence(/*max_rounds=*/5);
    flow::FlowReport report;
    pipeline.run(baseline, session, &report);
    print_trajectory(report);
    printf("  %zu pass(es) until fixpoint\n\n", report.passes.size());
  }

  printf("alternating BF with algebraic size optimization (max 4 rounds):\n");
  const auto alternating =
      flow::Pipeline::interleave({flow::Pipeline().rewrite("BF"),
                                  flow::Pipeline().size_opt()})
          .until_convergence(/*max_rounds=*/4);
  flow::FlowReport report;
  alternating.run(baseline, session, &report);
  print_trajectory(report);
  printf("  script form: %s\n", alternating.to_script().c_str());

  printf("\nexpected shape: most of the gain lands in pass 1; later passes add\n"
         "diminishing returns, supporting the paper's single-pass protocol.\n");
  return 0;
}
