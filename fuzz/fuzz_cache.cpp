// Fuzz target: the persistent 5-input oracle cache loader
// (ReplacementOracle::load_cache over opt::read_cache_file,
// src/opt/oracle.cpp).  The loader promises wholesale validation — a file
// the reader finds any problem with is rejected without touching the
// in-memory cache — so the properties here are that the answer is always
// `loaded` or `malformed` (a stream is never `missing`), that it is
// `loaded` exactly when the reader reports no problem, that a loaded
// stream adopts each of its records, and that loading never crashes.  The
// oracle sits on an empty database: the loader path never consults it.

#include <sstream>
#include <string>

#include "driver.hpp"
#include "exact/database.hpp"
#include "opt/oracle.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  const mighty::exact::Database empty_db;
  mighty::opt::OracleParams params;
  params.enable_five_input = true;
  mighty::opt::ReplacementOracle oracle(empty_db, params);

  std::istringstream is(text);
  const auto result = oracle.load_cache(is);
  std::istringstream again(text);
  const auto file = mighty::opt::read_cache_file(again, params.max_gates);
  using Status = mighty::opt::ReplacementOracle::CacheLoadStatus;
  FUZZ_REQUIRE(result.status != Status::missing);
  FUZZ_REQUIRE((result.status == Status::loaded) == file.problems.empty());
  FUZZ_REQUIRE(result.adopted <= result.entries);
  if (result.status == Status::loaded) {
    // Into a fresh oracle, every record must have been adopted, and the
    // cache must hold exactly those records.
    FUZZ_REQUIRE(result.entries == file.records.size());
    FUZZ_REQUIRE(result.adopted == result.entries);
    FUZZ_REQUIRE(oracle.cache_stats().entries == result.entries);
  } else {
    // Rejection is wholesale: nothing may leak into the cache.
    FUZZ_REQUIRE(oracle.cache_stats().entries == 0);
  }
  return 0;
}
