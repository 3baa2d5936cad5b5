#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <string>

/// \file oracle_counts.hpp
/// \brief The oracle counter record, inherited by every report that carries
/// oracle activity (RewriteStats, PassStats, FlowReport, BatchReport).
/// kOracleCountFields lists the counters once, in wire order; summing,
/// comparing, snapshotting, encoding and checking all walk that list.

namespace mighty::opt {

/// numerator/denominator, 1.0 when there was no activity: the one
/// convention behind every oracle rate (the CI "_rate" gate compares them).
inline double oracle_rate(uint64_t numerator, uint64_t denominator) {
  return denominator == 0 ? 1.0
                          : static_cast<double>(numerator) / denominator;
}

/// What the replacement oracle did within one scope: a call, pass, flow or
/// batch.
struct OracleCounts {
  uint64_t oracle_queries = 0;
  uint64_t oracle_answered = 0;     ///< queries answered with a replacement
  uint64_t oracle_cache5_hits = 0;  ///< 5-input queries that found their class cached
  uint64_t oracle_synthesized = 0;  ///< classes whose first search a query started
  /// Searches the Theorem-2 chain settled without SAT (a subset of the
  /// syntheses and resumptions).
  uint64_t oracle_constructed = 0;
  uint64_t oracle_failures = 0;   ///< searches that timed out or exhausted max_gates
  uint64_t oracle_conflicts = 0;  ///< SAT conflicts the syntheses spent

  OracleCounts& operator+=(const OracleCounts& other);

  /// Fraction of oracle queries answered with a replacement; 1.0 if none.
  double oracle_hit_rate() const;
  /// Fraction of 5-input cache lookups served without touching the SAT
  /// solver; 1.0 when nothing looked at a 5-input cut.  The number that
  /// grows when a batch's networks share one warm oracle (flow/batch.hpp).
  double cache5_reuse_rate() const;

  /// The record alone, for a report that inherits it: reports compare and
  /// assign their counters through this view, never implicitly.
  const OracleCounts& counts() const { return *this; }
  OracleCounts& counts() { return *this; }

  /// "5-input: ..." summary line (with its newline), or "" when nothing
  /// looked at a 5-input cut.
  std::string five_input_line() const;
};

/// Atomic mirror of OracleCounts: the oracle keeps one tally for its
/// lifetime, and every query/instantiate that is handed a caller-owned tally
/// records into it too.  A pass (or one network of a batch run) owns a tally
/// for exact attribution — global before/after snapshots would interleave
/// arbitrarily once several networks mutate the shared counters
/// concurrently.  Atomic because a single pass already fans out over FFR
/// shards.
struct OracleTally {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> cache5_hits{0};
  std::atomic<uint64_t> synthesized{0};
  std::atomic<uint64_t> constructed{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> conflicts{0};

  OracleCounts snapshot() const;
  void add(const OracleCounts& counts);
};

/// One counter: its report and wire name, and where it lives in the record
/// and in the tally.
struct OracleCountField {
  const char* name;
  uint64_t OracleCounts::* count;
  std::atomic<uint64_t> OracleTally::* tally;
};

/// Every counter, in wire order.
inline constexpr std::array<OracleCountField, 7> kOracleCountFields{{
    {"oracle_queries", &OracleCounts::oracle_queries, &OracleTally::queries},
    {"oracle_answered", &OracleCounts::oracle_answered, &OracleTally::answered},
    {"oracle_cache5_hits", &OracleCounts::oracle_cache5_hits, &OracleTally::cache5_hits},
    {"oracle_synthesized", &OracleCounts::oracle_synthesized, &OracleTally::synthesized},
    {"oracle_constructed", &OracleCounts::oracle_constructed, &OracleTally::constructed},
    {"oracle_failures", &OracleCounts::oracle_failures, &OracleTally::failures},
    {"oracle_conflicts", &OracleCounts::oracle_conflicts, &OracleTally::conflicts},
}};
static_assert(sizeof(OracleCounts) == sizeof(uint64_t) * kOracleCountFields.size(),
              "every OracleCounts member needs its row in kOracleCountFields");

/// Field-wise equality of two records.  Exact type only: two reports that
/// inherit the record compare their counters through counts(), so report ==
/// report does not compile into a counters-only comparison.
template <std::same_as<OracleCounts> T>
bool operator==(const T& a, const T& b) {
  for (const auto& field : kOracleCountFields) {
    if (a.*field.count != b.*field.count) return false;
  }
  return true;
}

}  // namespace mighty::opt
