// Exact synthesis from the command line: find a size-minimum and a
// depth-minimum MIG for a given truth table.
//
//   $ ./build/examples/exact_synthesis 3 e8        # <x1 x2 x3>
//   $ ./build/examples/exact_synthesis 4 6996      # 4-input parity
//
// The first argument is the number of variables (up to 4 for quick results,
// more is possible but slow), the second the truth table in hex (LSB =
// function value at the all-zero assignment).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "exact/depth_table.hpp"
#include "exact/exact_synthesis.hpp"

using namespace mighty;

namespace {

void print_chain(const exact::MigChain& chain) {
  if (chain.steps.empty()) {
    printf("  trivial: output = %s%u (0 = const0, 1.. = inputs)\n",
           exact::ref_complemented(chain.output) ? "~" : "",
           exact::ref_of(chain.output));
    return;
  }
  for (uint32_t i = 0; i < chain.size(); ++i) {
    const auto& step = chain.steps[i];
    printf("  %2u := <", chain.num_vars + 1 + i);
    for (int c = 0; c < 3; ++c) {
      const auto l = step.fanin[static_cast<size_t>(c)];
      printf("%s%u%s", exact::ref_complemented(l) ? "~" : "", exact::ref_of(l),
             c < 2 ? " " : "");
    }
    printf(">\n");
  }
  printf("  out = %s%u\n", exact::ref_complemented(chain.output) ? "~" : "",
         exact::ref_of(chain.output));
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    fprintf(stderr, "usage: %s <num_vars> <hex_truth_table>\n", argv[0]);
    return 1;
  };
  if (argc != 3) return usage();

  // `std::stoul(argv[1])` unguarded would abort on "abc" (invalid_argument)
  // or "99999999999999999999" (out_of_range); parse and range-check instead.
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(argv[1], &end, 10);
  if (end == argv[1] || *end != '\0' || parsed < 1 || parsed > 6) {
    fprintf(stderr, "invalid variable count \"%s\": need an integer in 1..6\n",
            argv[1]);
    return usage();
  }
  const auto num_vars = static_cast<uint32_t>(parsed);

  tt::TruthTable f(num_vars);
  try {
    f = tt::TruthTable::from_hex(num_vars, argv[2]);
  } catch (const std::exception& e) {
    fprintf(stderr, "invalid truth table \"%s\": %s\n", argv[2], e.what());
    return usage();
  }
  printf("function: 0x%s over %u variables\n\n", f.to_hex().c_str(), num_vars);

  const auto size_result = exact::synthesize_minimum_mig(f);
  if (size_result.status != exact::SynthesisStatus::success) {
    printf("size-minimum synthesis did not complete\n");
    return 1;
  }
  printf("minimum size: %u majority gates (depth %u)\n", size_result.chain.size(),
         size_result.chain.depth());
  print_chain(size_result.chain);

  if (num_vars <= 4) {
    const auto& table = exact::DepthTable::instance();
    const auto witness = table.witness(f);
    printf("\nminimum depth: %u levels (%u gates as a tree)\n", table.depth(f),
           witness.size());
    print_chain(witness);
  }
  return 0;
}
