#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

/// \file control.hpp
/// \brief Cooperative cancellation and resource budgets for pipeline runs.
///
/// A RunControl rides along a Pipeline::run via FlowReport::control and is
/// consulted at every pass boundary — composite passes (repeat, convergence)
/// recurse through run_into, so enforcement reaches every nesting level
/// without threading a parameter through Pass::run.  Checks are cooperative:
/// a pass that is mid-rewrite finishes its pass before the budget verdict
/// lands, which bounds overshoot to one pass.
///
/// The api layer owns one RunControl per job; cancel() from any thread stops
/// the job at the next boundary.

namespace mighty::flow {

struct RunControl {
  /// Set from any thread to stop the run at the next pass boundary
  /// (api::ErrorCode::cancelled).
  std::atomic<bool> cancel{false};

  /// Largest live-gate count an intermediate network may reach; 0 = no cap.
  uint32_t node_budget = 0;

  /// Total SAT-conflict allowance, charged with the conflicts the run's
  /// syntheses actually spent (FlowReport::oracle_conflicts); 0 = no cap.
  uint64_t conflict_budget = 0;

  /// Wall-clock deadline; only consulted when has_deadline is set.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Arms the deadline `seconds` from now (<= 0 disarms).
  void arm_deadline(double seconds) {
    has_deadline = seconds > 0.0;
    if (has_deadline) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds));
    }
  }
};

}  // namespace mighty::flow
