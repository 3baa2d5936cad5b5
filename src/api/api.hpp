#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/error.hpp"
#include "flow/pass.hpp"
#include "flow/session.hpp"

/// \file api.hpp
/// \brief The public job API: one facade over Session/Pipeline for every
/// front end.
///
/// The entry points that grew organically — Pipeline::run for one network,
/// BatchRunner for a corpus, the shell's ad-hoc driver calls — are unified
/// behind Service: a client describes work as a JobRequest (network + flow
/// script + resource budgets), gets back a JobId, and polls or blocks for a
/// JobResult (optimized network + FlowReport + stable ErrorCode).  Two
/// implementations share the contract:
///
///   - api::LocalService — in-process, owns the flow::Session.  The shell
///     and the examples run through this.
///   - serve::RemoteService — the same calls over a unix socket to a
///     mighty-serve daemon (serve/client.hpp), so "local or remote" is a
///     connection choice, not a code path.
///
/// Results are deterministic: the same JobRequest produces a bit-identical
/// optimized BLIF whether it ran in-process or through the daemon (the
/// serve_test e2e asserts exactly this).

namespace mighty::api {

using JobId = uint64_t;

enum class JobState : uint8_t {
  queued = 0,
  running = 1,
  done = 2,       ///< terminal: result.code == ok
  failed = 3,     ///< terminal: result.code names the failure
  cancelled = 4,  ///< terminal: stopped by cancel() or shutdown
};

const char* job_state_name(JobState state);
inline bool is_terminal(JobState state) {
  return state == JobState::done || state == JobState::failed ||
         state == JobState::cancelled;
}

/// One unit of work: a network, a flow script, and optional resource caps.
/// Budgets are enforced at pass boundaries (flow::RunControl), so overshoot
/// is bounded by a single pass.
struct JobRequest {
  std::string name;          ///< client-side label (reporting only)
  std::string script;        ///< flow script, e.g. "TF5; (BFD; size)*; map"
  std::string network_blif;  ///< input network in BLIF text form

  uint32_t node_budget = 0;         ///< max live gates mid-flow; 0 = uncapped
  uint64_t conflict_budget = 0;     ///< total SAT-conflict allowance; 0 = uncapped
  double wall_budget_seconds = 0;   ///< wall-clock cap; <= 0 = uncapped
};

struct JobStatus {
  JobState state = JobState::queued;
};

/// Terminal outcome of a job.  `code == ok` means `network_blif` holds the
/// optimized network and `report` its trajectory; otherwise `message`
/// explains the failure and the artifacts are empty (a partial trajectory
/// may remain in `report` for budget failures).
struct JobResult {
  ErrorCode code = ErrorCode::ok;
  std::string message;
  std::string network_blif;  ///< optimized network (BLIF) when code == ok
  flow::FlowReport report;
};

/// Counters a STATS call reports; session-level, not per-job.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  ///< terminal with code == ok
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t queued = 0;   ///< currently waiting
  uint64_t running = 0;  ///< currently executing

  /// Shared-oracle counters (zero until some job materializes the oracle).
  uint64_t oracle_queries = 0;
  uint64_t oracle_cache5_hits = 0;
  uint64_t oracle_synthesized = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_dirty = 0;

  uint32_t threads = 0;      ///< session parallelism (shards within a job)
  uint32_t job_workers = 0;  ///< concurrent jobs
};

/// Outcome of a cache_load / snapshot of cache_stats.
struct CacheInfo {
  size_t entries = 0;  ///< entries in the in-memory 5-input cache
  size_t dirty = 0;    ///< entries not yet persisted
  size_t adopted = 0;  ///< entries a load newly merged (load only)
  /// Load outcome: "loaded", "missing" or "malformed"; empty for stats.
  std::string status;
};

/// The service contract both the in-process implementation and the daemon
/// client fulfill.  All methods are thread-safe.
class Service {
 public:
  virtual ~Service() = default;

  /// Enqueues a job.  Throws ScriptError (invalid_script) when the script
  /// does not parse, Error(invalid_request) when the request is unusable
  /// (e.g. a session-mutating script on a multi-worker service), and
  /// Error(shutting_down) after shutdown().  Network parsing is part of the
  /// job: a malformed BLIF fails the job with invalid_network.
  virtual JobId submit(const JobRequest& request) = 0;

  /// Current state.  Throws Error(job_not_found) for unknown ids and for
  /// jobs whose result was already collected.
  virtual JobStatus status(JobId id) = 0;

  /// Blocks until the job is terminal, then hands its result over: the
  /// service forgets the job, so a result is collected exactly once.  Of
  /// concurrent callers for one id, one gets the result and the others
  /// throw.  Throws Error(job_not_found) for unknown ids and for jobs
  /// whose result was already collected ("result already collected").
  virtual JobResult result(JobId id) = 0;

  /// Requests cancellation.  Returns true when the call had an effect (the
  /// job was queued, or running and now flagged to stop at the next pass
  /// boundary); false when the job was already terminal.  Throws
  /// Error(job_not_found) for unknown ids and for collected jobs.
  virtual bool cancel(JobId id) = 0;

  virtual ServiceStats stats() = 0;

  /// Stops accepting work, cancels queued jobs (their results carry
  /// shutting_down), waits for running jobs to finish, and persists the
  /// oracle cache.  Idempotent; every later submit throws shutting_down.
  virtual void shutdown() = 0;

  // --- oracle-cache management (in-process services) ---------------------------
  // The daemon owns its cache lifecycle, so RemoteService throws
  // Error(unsupported) for these three.

  /// Points the session at `path` and merges the file into the oracle.
  virtual CacheInfo cache_load(const std::string& path) = 0;
  /// Persists to `path` (or the current path when empty).  Returns entries
  /// written; 0 when nothing is dirty.
  virtual size_t cache_save(const std::string& path) = 0;
  virtual CacheInfo cache_stats() = 0;
};

/// The in-process implementation: owns one flow::Session and a small job
/// queue on `job_workers` threads.  With the default single worker, jobs
/// run strictly in submission order and session-mutating scripts
/// ("parallel:n", "cache:p") are allowed; with more workers such scripts
/// are rejected at submit (invalid_request) because they would reconfigure
/// the engine under concurrent jobs.
///
/// A job stays stored until result() collects it; its input BLIF is
/// released as soon as the job has parsed it.  A job nobody collects keeps
/// its result for the service's lifetime.
class LocalService final : public Service {
 public:
  struct Params {
    flow::SessionParams session;
    uint32_t job_workers = 1;
  };

  LocalService();  ///< default Params
  explicit LocalService(Params params);
  ~LocalService() override;  ///< shutdown() if the owner has not already

  LocalService(const LocalService&) = delete;
  LocalService& operator=(const LocalService&) = delete;

  JobId submit(const JobRequest& request) override;
  JobStatus status(JobId id) override;
  JobResult result(JobId id) override;
  bool cancel(JobId id) override;
  ServiceStats stats() override;
  void shutdown() override;

  CacheInfo cache_load(const std::string& path) override;
  size_t cache_save(const std::string& path) override;
  CacheInfo cache_stats() override;

  /// The underlying session, for owners that need direct access (the
  /// daemon warms the oracle at boot; tests inspect counters).  Do not run
  /// pipelines on it while jobs are in flight.
  flow::Session& session();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mighty::api
