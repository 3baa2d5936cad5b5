#include "opt/oracle_counts.hpp"

#include <cstdio>

namespace mighty::opt {

OracleCounts& OracleCounts::operator+=(const OracleCounts& other) {
  for (const auto& field : kOracleCountFields) this->*field.count += other.*field.count;
  return *this;
}

double OracleCounts::oracle_hit_rate() const {
  return oracle_rate(oracle_answered, oracle_queries);
}

double OracleCounts::cache5_reuse_rate() const {
  return oracle_rate(oracle_cache5_hits, oracle_cache5_hits + oracle_synthesized);
}

std::string OracleCounts::five_input_line() const {
  if (oracle_synthesized + oracle_cache5_hits == 0) return "";
  char line[192];
  std::snprintf(line, sizeof(line),
                "5-input: %llu syntheses (%llu by construction), %llu failures, "
                "%llu SAT conflicts, %llu cache hits\n",
                static_cast<unsigned long long>(oracle_synthesized),
                static_cast<unsigned long long>(oracle_constructed),
                static_cast<unsigned long long>(oracle_failures),
                static_cast<unsigned long long>(oracle_conflicts),
                static_cast<unsigned long long>(oracle_cache5_hits));
  return line;
}

OracleCounts OracleTally::snapshot() const {
  OracleCounts out;
  for (const auto& field : kOracleCountFields) {
    out.*field.count = (this->*field.tally).load(std::memory_order_relaxed);
  }
  return out;
}

void OracleTally::add(const OracleCounts& counts) {
  for (const auto& field : kOracleCountFields) {
    (this->*field.tally).fetch_add(counts.*field.count, std::memory_order_relaxed);
  }
}

}  // namespace mighty::opt
