// Quickstart: build a small MIG, optimize it with functional hashing, and
// inspect the result.
//
//   $ ./build/examples/quickstart
//
// Walks through the public job API: network construction, a JobRequest
// against the in-process api::LocalService, equivalence checking and BLIF
// export.  The same request, submitted to a mighty-serve daemon through
// serve::RemoteService, returns a bit-identical artifact.

#include <cstdio>
#include <sstream>

#include "api/api.hpp"
#include "cec/cec.hpp"
#include "io/io.hpp"
#include "mig/mig.hpp"
#include "mig/simulation.hpp"

using namespace mighty;

int main() {
  // 1. Build a 2-bit adder from AND/OR/XOR operations -- the kind of
  //    structure a conventional synthesis flow would produce.
  mig::Mig m;
  const auto a0 = m.create_pi();
  const auto a1 = m.create_pi();
  const auto b0 = m.create_pi();
  const auto b1 = m.create_pi();

  const auto s0 = m.create_xor(a0, b0);
  const auto c0 = m.create_and(a0, b0);
  const auto t1 = m.create_xor(a1, b1);
  const auto s1 = m.create_xor(t1, c0);
  const auto c1 = m.create_or(m.create_and(a1, b1), m.create_and(t1, c0));
  m.create_po(s0);
  m.create_po(s1);
  m.create_po(c1);

  printf("initial MIG : %u majority gates, depth %u\n", m.count_live_gates(),
         m.depth());

  // 2. Open the in-process service: it owns one flow::Session, which loads
  //    (or builds once) the database of minimum MIGs for all 222 NPN classes
  //    of 4-variable functions and the replacement oracle every job shares.
  api::LocalService service;
  printf("database    : %zu NPN classes\n",
         service.session().database().num_entries());

  // 3. Describe the work as a JobRequest: the network (as BLIF text), a flow
  //    script, and optional budgets.  "B" is one pass of global bottom-up
  //    functional hashing; on a circuit this small the global variant sees
  //    across the fanout boundaries and recovers the majority-form carries.
  api::JobRequest request;
  request.name = "quickstart";
  request.script = "B";
  {
    std::ostringstream blif;
    io::write_blif(blif, m);
    request.network_blif = blif.str();
  }
  const api::JobResult result = service.result(service.submit(request));
  if (result.code != api::ErrorCode::ok) {
    printf("job failed [%s]: %s\n", api::error_code_name(result.code),
           result.message.c_str());
    return 1;
  }
  printf("optimized   : %u gates, depth %u  (%.1f%% size reduction)\n",
         result.report.size_after, result.report.depth_after,
         100.0 * (result.report.size_before - result.report.size_after) /
             result.report.size_before);

  // 4. Prove the rewrite preserved the function.
  const auto optimized = io::read_blif(result.network_blif);
  const auto cec = cec::check_equivalence(m, optimized);
  printf("equivalence : %s\n",
         cec.status == cec::CecStatus::equivalent ? "proven by SAT" : "FAILED");

  // 5. The result artifact IS the export: BLIF text, ready to write out.
  printf("\nBLIF of the optimized network:\n%s", result.network_blif.c_str());
  return cec.status == cec::CecStatus::equivalent ? 0 : 1;
}
