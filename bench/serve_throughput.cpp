// Daemon throughput over the wire (ROADMAP "optimization as a service").
//
// One in-process daemon — api::LocalService behind serve::Server on a unix
// socket — serves the generator corpus to RemoteService clients, in two
// phases:
//
//   * cold — a single client submits every corpus network once; the daemon's
//     shared oracle pays the 5-input synthesis cost here.
//   * warm — `--clients` concurrent connections each resubmit the identical
//     corpus; everything the script queries is already cached, so this
//     phase measures protocol + scheduling overhead, not SAT.
//
// Criteria, self-checked (the binary exits nonzero when any fails):
//
//   * no job fails in either phase;
//   * every warm artifact is bit-identical to its cold counterpart — the
//     transport and job queue change cost, never results;
//   * the warm phase performs zero SAT syntheses (the e2e reuse guarantee
//     serve_test proves once, measured here at throughput scale) — so its
//     5-cut reuse rate, hits / (hits + syntheses), is 1.0.
//
// Flags: --script S (default "TF5;size"), --clients n (default 4),
// --workers n (daemon job workers, default 2), --socket PATH (default a
// pid-unique /tmp path), --json FILE (BENCH_serve.json for the
// tools/check_bench.py gate).

#include <unistd.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "flow/corpus.hpp"
#include "flow/pass.hpp"
#include "io/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace mighty;

namespace {

std::string to_blif(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

struct PhaseOutcome {
  std::vector<std::string> artifacts;  ///< optimized BLIF per job, in order
  uint64_t failures = 0;
  uint64_t size_after = 0;
  double seconds = 0;
};

/// Submits every request up front, then fetches results in order — the same
/// two-beat pattern the shell's `batch` command uses, so the daemon's queue
/// (not client pacing) sets the concurrency.
PhaseOutcome run_client(const std::string& socket_path,
                        const std::vector<api::JobRequest>& requests) {
  PhaseOutcome outcome;
  serve::RemoteService client(socket_path);
  std::vector<api::JobId> ids;
  ids.reserve(requests.size());
  for (const auto& request : requests) ids.push_back(client.submit(request));
  for (const api::JobId id : ids) {
    api::JobResult result = client.result(id);
    if (result.code != api::ErrorCode::ok) {
      fprintf(stderr, "job failed [%s]: %s\n", api::error_code_name(result.code),
              result.message.c_str());
      ++outcome.failures;
      outcome.artifacts.emplace_back();
      continue;
    }
    outcome.size_after += result.report.size_after;
    outcome.artifacts.push_back(std::move(result.network_blif));
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string script = bench::string_flag(argc, argv, "--script", "TF5;size");
  const int clients = bench::int_flag(argc, argv, "--clients", 4);
  const int workers = bench::int_flag(argc, argv, "--workers", 2);
  const std::string socket_path = bench::string_flag(
      argc, argv, "--socket",
      "/tmp/mighty_bench_serve_" + std::to_string(::getpid()) + ".sock");
  const std::string json_path = bench::string_flag(argc, argv, "--json");

  const auto corpus = flow::Corpus::generated_arithmetic();
  std::vector<api::JobRequest> requests;
  requests.reserve(corpus.size());
  for (const auto& entry : corpus) {
    api::JobRequest request;
    request.name = entry.name;
    request.script = script;
    request.network_blif = to_blif(entry.mig);
    requests.push_back(std::move(request));
  }

  printf("Daemon throughput: script \"%s\", %d client%s, %d worker%s, %zu networks\n",
         script.c_str(), clients, clients == 1 ? "" : "s", workers,
         workers == 1 ? "" : "s", corpus.size());

  api::LocalService::Params params;
  params.job_workers = static_cast<uint32_t>(workers > 0 ? workers : 1);
  api::LocalService service(params);
  serve::ServerParams server_params;
  server_params.socket_path = socket_path;
  serve::Server server(service, server_params);

  // --- cold: one client pays the synthesis cost -------------------------------
  bench::Stopwatch cold_watch;
  PhaseOutcome cold = run_client(socket_path, requests);
  cold.seconds = cold_watch.seconds();
  const api::ServiceStats after_cold = service.stats();
  printf("cold: %zu jobs, %llu syntheses, %.2fs\n", requests.size(),
         static_cast<unsigned long long>(after_cold.oracle_synthesized),
         cold.seconds);

  // --- warm: concurrent clients, fully cached oracle --------------------------
  const size_t fleet = static_cast<size_t>(clients > 0 ? clients : 1);
  std::vector<PhaseOutcome> outcomes(fleet);
  bench::Stopwatch warm_watch;
  {
    std::vector<std::thread> threads;
    threads.reserve(fleet);
    for (size_t c = 0; c < fleet; ++c) {
      threads.emplace_back([&, c] { outcomes[c] = run_client(socket_path, requests); });
    }
    for (auto& thread : threads) thread.join();
  }
  const double warm_seconds = warm_watch.seconds();
  const api::ServiceStats after_warm = service.stats();

  // The owner stops the service before the server: the reverse deadlocks on
  // connections still blocked in result().
  service.shutdown();
  server.stop();

  // --- criteria ---------------------------------------------------------------
  PhaseOutcome warm;
  warm.seconds = warm_seconds;
  bool identical = cold.failures == 0;
  for (const auto& outcome : outcomes) {
    warm.failures += outcome.failures;
    warm.size_after += outcome.size_after;
    for (size_t i = 0; i < outcome.artifacts.size(); ++i) {
      if (outcome.artifacts[i] != cold.artifacts[i]) {
        fprintf(stderr, "warm result diverges from cold on %s\n",
                corpus[i].name.c_str());
        identical = false;
      }
    }
  }
  const uint64_t warm_jobs = fleet * requests.size();
  const uint64_t resyntheses =
      after_warm.oracle_synthesized - after_cold.oracle_synthesized;
  // 5-cut reuse: cache hits among the lookups that reached the 5-input
  // cache (4-input queries never do), the same rate FlowReport reports.
  const uint64_t warm_hits =
      after_warm.oracle_cache5_hits - after_cold.oracle_cache5_hits;
  const double reuse_rate = flow::oracle_rate(warm_hits, warm_hits + resyntheses);

  printf("warm: %llu jobs over %zu connections, %llu syntheses, %.1f%% 5-cut "
         "reuse, %.2fs\n",
         static_cast<unsigned long long>(warm_jobs), fleet,
         static_cast<unsigned long long>(resyntheses), 100.0 * reuse_rate,
         warm.seconds);

  const bool no_failures = cold.failures == 0 && warm.failures == 0;
  if (!no_failures) {
    fprintf(stderr, "%llu job(s) failed\n",
            static_cast<unsigned long long>(cold.failures + warm.failures));
  }
  if (!identical) fprintf(stderr, "warm artifacts are not bit-identical to cold\n");
  const bool no_resynthesis = resyntheses == 0;
  if (!no_resynthesis) {
    fprintf(stderr,
            "warm phase re-synthesized %llu function(s) despite the warm oracle\n",
            static_cast<unsigned long long>(resyntheses));
  }

  if (!json_path.empty()) {
    std::vector<bench::BenchRecord> records;
    bench::BenchRecord record;
    record.name = "serve";
    record.baseline = {{"networks", static_cast<double>(corpus.size())},
                       {"clients", static_cast<double>(fleet)},
                       {"workers", static_cast<double>(params.job_workers)}};
    record.variants.emplace_back(
        "cold", std::vector<std::pair<std::string, double>>{
                    {"size", static_cast<double>(cold.size_after)},
                    {"failures", static_cast<double>(cold.failures)},
                    {"seconds", cold.seconds}});
    record.variants.emplace_back(
        "warm", std::vector<std::pair<std::string, double>>{
                    {"size", static_cast<double>(warm.size_after)},
                    {"failures", static_cast<double>(warm.failures)},
                    {"syntheses", static_cast<double>(resyntheses)},
                    {"cache5_reuse_rate", reuse_rate},
                    {"seconds", warm.seconds}});
    records.push_back(std::move(record));
    if (bench::write_bench_json(json_path, "serve_throughput", "generated",
                                static_cast<int>(fleet), records)) {
      printf("machine-readable results: %s\n", json_path.c_str());
    } else {
      fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return no_failures && identical && no_resynthesis ? 0 : 1;
}
