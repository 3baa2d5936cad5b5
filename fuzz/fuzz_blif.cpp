// Fuzz target: the BLIF reader (src/io/blif.cpp), the widest untrusted
// input surface of the library.  Differential properties on every accepted
// input:
//   1. the parsed network passes the full structural validation
//      (check::validate — a reader must never construct a malformed MIG);
//   2. write_blif -> read_blif round-trips: the re-read network parses,
//      matches PI/PO counts, and is semantically equivalent (simulation
//      check; a mismatch is a definite bug in the reader or writer).
// Rejected inputs must be rejected by exception, never by crash.

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cec/cec.hpp"
#include "check/check.hpp"
#include "driver.hpp"
#include "io/io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;  // keep single inputs cheap
  // Parsed in place: an overread past the fuzzer's buffer is a sanitizer
  // finding, not a silent read of a copy's spare capacity.
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  mighty::mig::Mig parsed;
  try {
    parsed = mighty::io::read_blif(text);
  } catch (const std::runtime_error&) {
    return 0;  // clean rejection is the contract for malformed input
  }

  FUZZ_REQUIRE(mighty::check::validate(parsed).ok());

  std::ostringstream os;
  mighty::io::write_blif(os, parsed, "fuzz");
  mighty::mig::Mig reread;
  try {
    reread = mighty::io::read_blif(os.str());
  } catch (const std::runtime_error&) {
    FUZZ_REQUIRE(!"write_blif output must re-read");
  }
  FUZZ_REQUIRE(reread.num_pis() == parsed.num_pis());
  FUZZ_REQUIRE(reread.num_pos() == parsed.num_pos());
  FUZZ_REQUIRE(mighty::check::validate(reread).ok());
  // Simulation-based equivalence: sound for "different", fast enough to run
  // on every input (a SAT proof of equivalence would dominate the fuzz
  // budget without sharpening the property).
  FUZZ_REQUIRE(mighty::cec::random_simulation_equal(parsed, reread, 8, 0x5eed));
  return 0;
}
