// Fuzz target: the flow-script parser, flow::parse_script (src/flow/parse.cpp).
// Differential property on every accepted script: the canonical form
// to_script() of the pipeline its syntax tree builds must itself parse, and
// be a fixed point — parse(s).to_script() == s.  It must hold as well when
// every convergence round cap of the tree is clamped to c = 1..16, the
// autotuner's canonicalization path.  That round trip is what flow
// deduplication, reporting and autotune reproduction rely on (see
// pipeline.hpp).  Rejected scripts must be rejected with
// std::invalid_argument, never by crash.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "driver.hpp"
#include "flow/pipeline.hpp"

namespace {

using mighty::flow::Pipeline;

void require_fixed_point(const Pipeline& pipeline) {
  const std::string script = pipeline.to_script();
  Pipeline reparsed;
  try {
    reparsed = Pipeline::parse(script);
  } catch (const std::invalid_argument&) {
    FUZZ_REQUIRE(!"canonical script form must re-parse");
  }
  FUZZ_REQUIRE(reparsed.to_script() == script);
  FUZZ_REQUIRE(reparsed.num_passes() == pipeline.num_passes());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 12)) return 0;  // scripts are short; huge ones only cost time
  const std::string text(reinterpret_cast<const char*>(data), size);
  mighty::flow::ScriptTree tree;
  try {
    tree = mighty::flow::parse_script(text);
  } catch (const std::invalid_argument&) {
    return 0;  // clean rejection is the contract for malformed scripts
  }
  require_fixed_point(Pipeline::from_tree(tree));
  for (uint32_t cap = 1; cap <= 16; ++cap) {
    require_fixed_point(Pipeline::from_tree(tree, cap));
  }
  return 0;
}
