// Tests for the public job API (api/api.hpp): the in-process LocalService
// lifecycle, the stable error taxonomy, and per-job budget enforcement.
//
// Nearly everything here runs algebraic-only scripts ("size", "depth",
// "check", "map"), which never materialize the NPN database.  The conflict
// budget case needs real SAT work, so it runs TF5 — locally and through a
// daemon — and the suite sits behind the database fixture.  The other
// oracle-backed end-to-end paths (bit-identical daemon results, cache
// reuse, Session::persist) live in serve_test.cpp.

#include "api/api.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "opt/oracle.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace mighty::api {
namespace {

std::string blif_of(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

JobRequest request_for(const mig::Mig& m, const std::string& script) {
  JobRequest request;
  request.name = "test";
  request.script = script;
  request.network_blif = blif_of(m);
  return request;
}

/// Runs `call` and expects it to throw Error(job_not_found).
template <typename Call>
void expect_not_found(Call&& call) {
  try {
    call();
    FAIL() << "job id accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::job_not_found);
  }
}

/// Polls status() until the job is terminal and returns that state, so a
/// test can inspect a finished job before collecting its result.
JobState wait_terminal(Service& service, JobId id) {
  for (;;) {
    const JobState state = service.status(id).state;
    if (is_terminal(state)) return state;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A script slow enough that jobs submitted behind it are still queued when
/// we act on them (each repetition walks the whole network; the multiplier
/// gives it thousands of gates to chew on).
JobRequest slow_request() {
  return request_for(gen::make_multiplier_n(10), "(depth; size)*20");
}

TEST(ApiTest, SubmitAndResultRoundTrip) {
  LocalService service;
  const auto m = gen::make_adder_n(8);
  const JobId id = service.submit(request_for(m, "size"));
  EXPECT_EQ(wait_terminal(service, id), JobState::done);
  EXPECT_FALSE(service.cancel(id));
  const JobResult result = service.result(id);

  ASSERT_EQ(result.code, ErrorCode::ok) << result.message;
  EXPECT_EQ(result.report.passes.size(), 1u);
  EXPECT_GT(result.report.size_before, 0u);
  EXPECT_LE(result.report.size_after, result.report.size_before);

  // The artifact parses back to a network with the same interface.
  const auto optimized = io::read_blif(result.network_blif);
  EXPECT_EQ(optimized.num_pis(), m.num_pis());
  EXPECT_EQ(optimized.num_pos(), m.num_pos());

  // Collecting hands the result over: the job is gone.
  expect_not_found([&] { service.status(id); });
  expect_not_found([&] { service.result(id); });
  expect_not_found([&] { service.cancel(id); });
}

TEST(ApiTest, ResultsAreDeterministic) {
  LocalService service;
  const auto request = request_for(gen::make_adder_n(8), "depth; size");
  const JobResult first = service.result(service.submit(request));
  const JobResult second = service.result(service.submit(request));
  ASSERT_EQ(first.code, ErrorCode::ok);
  ASSERT_EQ(second.code, ErrorCode::ok);
  EXPECT_EQ(first.network_blif, second.network_blif);
}

TEST(ApiTest, InvalidScriptThrowsSynchronously) {
  LocalService service;
  const auto request = request_for(gen::make_adder_n(4), "definitely not a script");
  // The documented contract: still a std::invalid_argument...
  EXPECT_THROW(service.submit(request), std::invalid_argument);
  // ...now carrying the stable code.
  try {
    service.submit(request);
    FAIL() << "submit accepted a bogus script";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_script);
  }
}

TEST(ApiTest, OutOfRangeLutSizeIsAnInvalidScript) {
  LocalService service;
  for (const char* script : {"map2", "map7", "TF;map16"}) {
    try {
      service.submit(request_for(gen::make_adder_n(4), script));
      FAIL() << "submit accepted " << script;
    } catch (const ScriptError& e) {
      EXPECT_EQ(e.code(), ErrorCode::invalid_script) << script;
    }
  }
}

TEST(ApiTest, MalformedNetworkFailsTheJob) {
  LocalService service;
  JobRequest request;
  request.script = "size";
  request.network_blif =
      ".model broken\n.inputs a\n.outputs b\n.names a b\nnot a cover\n.end\n";
  const JobResult result = service.result(service.submit(request));
  EXPECT_EQ(result.code, ErrorCode::invalid_network);
  EXPECT_FALSE(result.message.empty());
  EXPECT_TRUE(result.network_blif.empty());
}

TEST(ApiTest, NodeBudgetExceeded) {
  LocalService service;
  auto request = request_for(gen::make_adder_n(8), "size");
  request.node_budget = 3;  // the adder is far bigger than 3 gates
  const JobResult result = service.result(service.submit(request));
  EXPECT_EQ(result.code, ErrorCode::node_budget_exceeded);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ApiTest, WallBudgetExceeded) {
  LocalService service;
  auto request = slow_request();
  request.wall_budget_seconds = 1e-9;
  const JobResult result = service.result(service.submit(request));
  EXPECT_EQ(result.code, ErrorCode::wall_budget_exceeded);
}

TEST(ApiTest, UnknownJobIdsThrowEverywhere) {
  LocalService service;
  expect_not_found([&] { service.status(12345); });
  expect_not_found([&] { service.result(12345); });
  expect_not_found([&] { service.cancel(12345); });
}

TEST(ApiTest, CancelAfterCompletionReturnsFalse) {
  LocalService service;
  const JobId id = service.submit(request_for(gen::make_adder_n(4), "size"));
  ASSERT_EQ(wait_terminal(service, id), JobState::done);
  EXPECT_FALSE(service.cancel(id));
  // The terminal result is unchanged by the attempt.
  EXPECT_EQ(service.status(id).state, JobState::done);
  EXPECT_EQ(service.result(id).code, ErrorCode::ok);
}

TEST(ApiTest, CollectedJobsAreForgotten) {
  LocalService service;
  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(service.submit(request_for(gen::make_adder_n(4), "size")));
  }
  for (const JobId id : ids) EXPECT_EQ(service.result(id).code, ErrorCode::ok);
  for (const JobId id : ids) {
    expect_not_found([&] { service.status(id); });
    expect_not_found([&] { service.result(id); });
    expect_not_found([&] { service.cancel(id); });
  }
  try {
    service.status(ids.front());
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("already collected"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.stats().completed, ids.size());
}

TEST(ApiTest, ConcurrentCollectorsGetTheResultOnce) {
  LocalService service;
  // Both collectors start while the job still runs, so both wait.
  const JobId id = service.submit(slow_request());
  std::atomic<int> collected{0};
  std::atomic<int> not_found{0};
  auto collect = [&] {
    try {
      if (service.result(id).code == ErrorCode::ok) ++collected;
    } catch (const Error& e) {
      if (e.code() == ErrorCode::job_not_found) ++not_found;
    }
  };
  std::thread first(collect);
  std::thread second(collect);
  first.join();
  second.join();
  EXPECT_EQ(collected.load(), 1);
  EXPECT_EQ(not_found.load(), 1);
  expect_not_found([&] { service.status(id); });
}

TEST(ApiTest, CancelQueuedAndRunningJobs) {
  LocalService service;  // one worker: the second job must queue
  const JobId running = service.submit(slow_request());
  const JobId queued = service.submit(request_for(gen::make_adder_n(4), "size"));

  EXPECT_TRUE(service.cancel(queued));
  EXPECT_EQ(service.status(queued).state, JobState::cancelled);
  const JobResult queued_result = service.result(queued);
  EXPECT_EQ(queued_result.code, ErrorCode::cancelled);

  EXPECT_TRUE(service.cancel(running));
  const JobResult running_result = service.result(running);
  EXPECT_EQ(running_result.code, ErrorCode::cancelled);
}

TEST(ApiTest, ShutdownCancelsQueuedAndRefusesNewWork) {
  LocalService service;
  const JobId running = service.submit(slow_request());
  const JobId queued = service.submit(request_for(gen::make_adder_n(4), "size"));
  service.shutdown();

  // The running job was allowed to finish; the queued one never started.
  EXPECT_TRUE(is_terminal(service.status(running).state));
  EXPECT_EQ(service.result(queued).code, ErrorCode::shutting_down);

  try {
    service.submit(request_for(gen::make_adder_n(4), "size"));
    FAIL() << "submit accepted after shutdown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::shutting_down);
  }
  // Idempotent: a second shutdown (and the destructor's) is a no-op.
  EXPECT_NO_THROW(service.shutdown());
}

TEST(ApiTest, MutatingScriptsRejectedOnMultiWorkerService) {
  LocalService::Params params;
  params.job_workers = 2;
  LocalService service(params);
  try {
    service.submit(request_for(gen::make_adder_n(4), "parallel:2; size"));
    FAIL() << "multi-worker service accepted a session-mutating script";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_request);
  }
  // The same script is fine on the default single-worker service.
  LocalService single;
  EXPECT_EQ(single.result(single.submit(
                    request_for(gen::make_adder_n(4), "parallel:2; size")))
                .code,
            ErrorCode::ok);
}

TEST(ApiTest, ConcurrentJobsOnMultiWorkerService) {
  LocalService::Params params;
  params.job_workers = 4;
  LocalService service(params);
  const auto request = request_for(gen::make_adder_n(8), "depth; size");

  std::vector<JobId> ids;
  ids.reserve(16);
  for (int i = 0; i < 16; ++i) ids.push_back(service.submit(request));
  std::string expected;
  for (const JobId id : ids) {
    const JobResult result = service.result(id);
    ASSERT_EQ(result.code, ErrorCode::ok) << result.message;
    if (expected.empty()) expected = result.network_blif;
    // Concurrency must not perturb the artifact.
    EXPECT_EQ(result.network_blif, expected);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ApiTest, StatsTrackOutcomes) {
  LocalService service;
  ASSERT_EQ(service.result(service.submit(request_for(gen::make_adder_n(4), "size")))
                .code,
            ErrorCode::ok);
  JobRequest bad;
  bad.script = "size";
  bad.network_blif = "not blif";
  service.result(service.submit(bad));
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.job_workers, 1u);
}

TEST(ApiTest, CacheCommandsWithoutPathAreInvalidRequests) {
  LocalService service;
  try {
    service.cache_save("");
    FAIL() << "cache_save accepted an empty path on a path-less session";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_request);
  }
  // cache_stats is always available; without a materialized oracle it
  // reports an empty cache rather than touching the database.
  const auto info = service.cache_stats();
  EXPECT_EQ(info.entries, 0u);
  EXPECT_EQ(info.dirty, 0u);
}

// The oracle-level half of the persistence fix: an in-memory cache that
// diverged from its file persists once, then goes quiet.  (The full
// Session::persist path — destructor, service shutdown and daemon SIGTERM
// funneling into one idempotent save — is exercised with a real database in
// serve_test.cpp.)
TEST(ApiTest, OracleSaveIsIdempotentOnCleanCache) {
  const exact::Database empty_db;
  opt::OracleParams params;
  params.enable_five_input = true;
  opt::ReplacementOracle oracle(empty_db, params);

  // Adopt one (failure) entry from a stream: content is clean, but it has
  // never been written to *this* target file.  0000ffff (!x5) represents
  // the class of the projections.
  std::istringstream cache("mighty-mig-5cut-cache v3 1\n0000ffff fail 300 42\n");
  const auto loaded = oracle.load_cache(cache);
  ASSERT_EQ(loaded.status, opt::ReplacementOracle::CacheLoadStatus::loaded);
  ASSERT_EQ(loaded.entries, 1u);

  const std::string path =
      ::testing::TempDir() + "api_persist_" + std::to_string(::getpid()) + ".db";
  // First save targets a file with unknown contents: must write.
  EXPECT_EQ(oracle.save_cache(path), 1u);
  // Second save: nothing dirty, same file — the guard makes it a no-op.
  EXPECT_EQ(oracle.save_cache(path), 0u);
  std::remove(path.c_str());
}

TEST(ApiTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::ok), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::invalid_script), "invalid_script");
  EXPECT_STREQ(error_code_name(ErrorCode::shutting_down), "shutting_down");
  EXPECT_STREQ(error_code_name(ErrorCode::internal), "internal");
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(999)), "?");
}

TEST(ApiTest, ClassifyMapsExceptionFamilies) {
  EXPECT_EQ(classify(Error(ErrorCode::io_error, "x")), ErrorCode::io_error);
  EXPECT_EQ(classify(ScriptError("x")), ErrorCode::invalid_script);
  EXPECT_EQ(classify(std::invalid_argument("x")), ErrorCode::invalid_request);
  EXPECT_EQ(classify(std::logic_error("x")), ErrorCode::check_failed);
  EXPECT_EQ(classify(std::runtime_error("x")), ErrorCode::internal);
}

/// Runs `request` on a cold in-process service, or on a cold daemon through
/// RemoteService: every run starts from an empty oracle cache, so each one
/// spends exactly the same SAT conflicts.
JobResult run_cold(const JobRequest& request, bool remote) {
  LocalService service;
  if (!remote) return service.result(service.submit(request));
  serve::ServerParams params;
  params.socket_path = ::testing::TempDir() + "mighty_api_budget_" +
                       std::to_string(::getpid()) + ".sock";
  serve::Server server(service, params);
  JobResult result;
  {
    serve::RemoteService client(server.socket_path());
    result = client.result(client.submit(request));
  }
  service.shutdown();
  server.stop();
  return result;
}

TEST(ApiTest, ConflictBudgetIsChargedWithConflictsSpent) {
  // Depth-optimized max 4 queries a class (0017e8ff) whose Theorem-2 chain
  // misses the size lower bound, so its synthesis still runs SAT.
  const auto request = request_for(algebra::depth_optimize(gen::make_max_n(4)), "TF5; size");
  const JobResult unbudgeted = run_cold(request, false);
  ASSERT_EQ(unbudgeted.code, ErrorCode::ok) << unbudgeted.message;
  const uint64_t spent = unbudgeted.report.oracle_conflicts;
  ASSERT_GT(spent, 0u);
  uint64_t per_pass = 0;
  for (const auto& pass : unbudgeted.report.passes) per_pass += pass.oracle_conflicts;
  EXPECT_EQ(per_pass, spent);

  for (const bool remote : {false, true}) {
    SCOPED_TRACE(remote ? "remote" : "local");
    auto budgeted = request;
    budgeted.conflict_budget = spent - 1;  // one conflict short
    const JobResult over = run_cold(budgeted, remote);
    EXPECT_EQ(over.code, ErrorCode::conflict_budget_exceeded) << over.message;
    budgeted.conflict_budget = spent;  // exactly what the job spends
    const JobResult within = run_cold(budgeted, remote);
    ASSERT_EQ(within.code, ErrorCode::ok) << within.message;
    EXPECT_EQ(within.network_blif, unbudgeted.network_blif);
    EXPECT_EQ(within.report.oracle_conflicts, spent);
  }
}

}  // namespace
}  // namespace mighty::api
