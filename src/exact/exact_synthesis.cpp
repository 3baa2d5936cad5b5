#include "exact/exact_synthesis.hpp"

#include <algorithm>
#include <stdexcept>

namespace mighty::exact {

std::optional<MigChain> trivial_chain(const tt::TruthTable& f) {
  MigChain chain;
  chain.num_vars = f.num_vars();
  if (f.is_const0()) {
    chain.output = make_ref_lit(0, false);
    return chain;
  }
  if (f.is_const1()) {
    chain.output = make_ref_lit(0, true);
    return chain;
  }
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    const auto proj = tt::TruthTable::projection(f.num_vars(), v);
    if (f == proj) {
      chain.output = make_ref_lit(v + 1, false);
      return chain;
    }
    if (f == ~proj) {
      chain.output = make_ref_lit(v + 1, true);
      return chain;
    }
  }
  return std::nullopt;
}

SynthesisResult synthesize_minimum_mig(const tt::TruthTable& f,
                                       const SynthesisOptions& options) {
  SynthesisResult result;
  if (const auto trivial = trivial_chain(f)) {
    result.status = SynthesisStatus::success;
    result.chain = *trivial;
    return result;
  }

  for (uint32_t k = std::max(options.min_gates, 1u); k <= options.max_gates; ++k) {
    sat::Solver solver;
    OnehotEncoder encoder(solver, f, k, options.encode);
    encoder.encode();
    const sat::Result r = solver.solve({}, options.conflict_limit);
    result.conflicts_per_step.push_back(solver.stats().conflicts);
    if (r == sat::Result::unknown) {
      result.status = SynthesisStatus::timeout;
      return result;
    }
    if (r == sat::Result::sat) {
      result.chain = encoder.extract();
      if (result.chain.simulate() != f) {
        throw std::logic_error("exact synthesis extracted a non-equivalent chain");
      }
      result.status = SynthesisStatus::success;
      return result;
    }
  }
  result.status = SynthesisStatus::exhausted;
  return result;
}

}  // namespace mighty::exact
