// End-to-end arithmetic optimization: generate a multiplier, produce the
// depth-optimized baseline, run every functional-hashing variant as a
// "<variant>; map" job, and compare the mapped results -- the full pipeline
// behind Tables III and IV, one api::LocalService (and therefore one warm
// flow::Session) for the whole run.  Each experiment is a JobRequest, so the
// identical program could target a mighty-serve daemon instead.
//
//   $ ./build/examples/optimize_arithmetic          # 16x16 multiplier
//   $ ./build/examples/optimize_arithmetic 24       # 24x24

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "api/api.hpp"
#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "opt/rewrite.hpp"

using namespace mighty;

namespace {

/// Parses the width argument; `std::stoul` alone would abort the example
/// with an unhandled exception on "abc" or "999999999999".
bool parse_width(const char* text, uint32_t& bits) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || value < 2 || value > 64) return false;
  bits = static_cast<uint32_t>(value);
  return true;
}

std::string to_blif(const mig::Mig& mig) {
  std::ostringstream os;
  io::write_blif(os, mig);
  return os.str();
}

/// Submits one script over `blif` and blocks for the outcome.  Exits the
/// example on failure: every job here is expected to succeed, and a stable
/// ErrorCode plus message is exactly what a user should see when one does
/// not (e.g. a malformed width pushed the wall budget).
api::JobResult run_or_die(api::Service& service, const std::string& name,
                          const std::string& script, const std::string& blif) {
  api::JobRequest request;
  request.name = name;
  request.script = script;
  request.network_blif = blif;
  api::JobResult result = service.result(service.submit(request));
  if (result.code != api::ErrorCode::ok) {
    fprintf(stderr, "job '%s' failed [%s]: %s\n", name.c_str(),
            api::error_code_name(result.code), result.message.c_str());
    exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t bits = 16;
  if (argc > 1 && !parse_width(argv[1], bits)) {
    fprintf(stderr, "usage: %s [bits]   (multiplier width, 2..64; default 16)\n",
            argv[0]);
    return 1;
  }
  printf("generating %ux%u multiplier...\n", bits, bits);
  const auto original = gen::make_multiplier_n(bits);
  printf("  raw        : %6u gates, depth %3u\n", original.count_live_gates(),
         original.depth());

  api::LocalService service;
  service.session().database();  // load (or build) outside the timed region

  const auto base =
      run_or_die(service, "baseline", "depth; map", to_blif(original));
  printf("  depth-opt  : %6u gates, depth %3u\n", base.report.size_after,
         base.report.depth_after);
  const auto* base_map = base.report.last_mapping();
  printf("  mapping    : %6u LUT6, depth %3u\n\n", base_map->num_luts,
         base_map->lut_depth);

  const auto baseline = io::read_blif(base.network_blif);

  printf("%-6s | %8s %5s %7s | %8s %5s | %s\n", "variant", "gates", "depth", "time",
         "LUT6", "depth", "equivalent");
  for (const auto& variant : opt::all_variants()) {
    const auto result =
        run_or_die(service, variant, variant + "; map", base.network_blif);
    const auto optimized = io::read_blif(result.network_blif);
    const auto* mapped = result.report.last_mapping();
    const bool equal = cec::random_simulation_equal(baseline, optimized, 16, 7);
    printf("%-6s | %8u %5u %6.2fs | %8u %5u | %s\n", variant.c_str(),
           result.report.size_after, result.report.depth_after,
           result.report.seconds, mapped->num_luts, mapped->lut_depth,
           equal ? "yes (64x16 random patterns)" : "NO");
  }
  return 0;
}
