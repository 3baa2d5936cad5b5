// Fuzz target: the persistent 5-input oracle cache loader
// (ReplacementOracle::load_cache, src/opt/oracle.cpp).  The loader promises
// wholesale validation — a malformed file is rejected without touching the
// in-memory cache — so the property here is that the answer is always
// `loaded` or `malformed` (a stream is never `missing`), that a loaded
// stream reports entries >= adopted, and that loading never crashes.
// `entries` counts NPN-class entries after v1/v2 keys migrate to their
// class representatives, so several lines of one class count once.  The
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
  using Status = mighty::opt::ReplacementOracle::CacheLoadStatus;
  FUZZ_REQUIRE(result.status != Status::missing);
  FUZZ_REQUIRE(result.adopted <= result.entries);
  if (result.status == Status::loaded) {
    // Into a fresh oracle, every parsed entry must have been adopted, and
    // the cache must hold exactly those entries.
    FUZZ_REQUIRE(result.adopted == result.entries);
    FUZZ_REQUIRE(oracle.cache_stats().entries == result.entries);
  } else {
    // Rejection is wholesale: nothing may leak into the cache.
    FUZZ_REQUIRE(oracle.cache_stats().entries == 0);
  }
  return 0;
}
