#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "harness.hpp"
#include "tt/truth_table.hpp"

/// \file bench.hpp
/// \brief The repository benchmark: workloads driven through api::Service
/// (and serve::Server/RemoteService), output checks, and per-layer probes.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::string work_dir;       ///< traces, records, sockets, scratch files
  std::string database_path;  ///< the NPN-4 database
};

/// One job of a workload: a network (as the BLIF the service receives) and
/// a flow script.
struct JobSpec {
  std::string name;
  std::string script;
  std::string blif;
};

/// One finished job of the timed phase.
struct JobRecord {
  size_t spec = 0;
  uint32_t lane = 0;
  double latency_s = 0.0;  ///< submit to result
  /// False when the output differs from the first output of its spec (only
  /// that first record keeps its network_blif).
  bool matches_reference = true;
  mighty::api::JobResult result;
};

/// Everything the per-layer probes read from the workload run.
struct ProbeInput {
  const Options* options = nullptr;
  const std::vector<JobSpec>* specs = nullptr;
  const std::vector<JobRecord>* records = nullptr;
  /// Sorted distinct 5-input functions in the oracle cache the workload ran
  /// against (empty when it never synthesized).
  std::vector<mighty::tt::TruthTable> cached5;
  std::string cache_file;        ///< that cache, saved by the service
  double round_wall_s = 0.0;     ///< median untraced round wall time
  uint64_t round_syntheses = 0;  ///< syntheses in one round
  /// Service to probe STATS round trips against, and its socket when it is
  /// already served (empty: the probe serves it itself).
  mighty::api::Service* service = nullptr;
  std::string socket_path;
};

/// Outcome of run_workload: `correct` is false when a job failed, an output
/// was wrong, or a deterministic counter did not repeat.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};
/// Runs the workload named in `options`: set-up, timed phase, output check;
/// fills the end-to-end metrics, and in a traced run the per-layer ones.
RunResult run_workload(const Options& options, Tracer& tracer);

/// Per-layer probes of a traced run (probes.cpp).
void run_probes(const ProbeInput& input, Tracer& tracer, Metrics& out);

/// The workloads this binary knows, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the NPN-4 database at `path` when it is missing: the 222 classes
/// are synthesized on `threads` threads and loaded back through the
/// library's own validating loader.  Returns false on failure.
bool ensure_database(const std::string& path, unsigned threads);

}  // namespace perfbench
