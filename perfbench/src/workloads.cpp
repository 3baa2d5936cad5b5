// The three workloads, driven exactly as users submit jobs: BLIF text in,
// BLIF text out, through api::LocalService (rewrite4, synth5) or through
// serve::Server and serve::RemoteService clients (serve_warm).
//
// A run is set-up (repeated, median reported), a timed phase of whole
// rounds — one round submits every job of the workload once, in an order
// drawn from the seed — until --seconds have passed, and an output check
// outside the timed region.

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "map/lut_mapper.hpp"
#include "mig/algebra/algebra.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"

namespace perfbench {
namespace {

using namespace mighty;

struct NetworkDef {
  std::string kind;
  uint32_t width = 0;
};

struct JobGroup {
  std::string script;
  std::vector<NetworkDef> networks;
};

struct WorkloadDef {
  std::string name;
  uint32_t session_threads = 1;
  uint32_t job_workers = 1;
  /// 0: one in-process caller submits jobs one at a time; n > 0: n
  /// RemoteService clients in a closed loop against an in-process server.
  uint32_t clients = 0;
  /// A fresh (cold-oracle) service for every round.
  bool cold_per_round = false;
  /// Run every job once during set-up, so the timed phase runs warm.
  bool warm_in_setup = false;
  std::vector<JobGroup> groups;
};

WorkloadDef workload_def(const std::string& name, bool tiny) {
  WorkloadDef def;
  def.name = name;
  if (name == "rewrite4") {
    def.session_threads = 2;
    def.groups.push_back(
        {"TF;BFD;size;map",
         tiny ? std::vector<NetworkDef>{{"adder", 8}, {"max", 4}, {"multiplier", 4}, {"sine", 4}}
              : std::vector<NetworkDef>{{"adder", 32}, {"adder", 64}, {"divider", 8},
                                        {"divider", 10}, {"log2", 2}, {"max", 32},
                                        {"max", 64}, {"multiplier", 8}, {"multiplier", 12},
                                        {"sine", 10}, {"sqrt", 10}, {"square", 16}}});
  } else if (name == "synth5") {
    def.session_threads = 2;
    def.cold_per_round = true;
    def.groups.push_back(
        {"TF5;size",
         tiny ? std::vector<NetworkDef>{{"adder", 4}, {"max", 4}, {"multiplier", 3}}
              : std::vector<NetworkDef>{{"adder", 6}, {"adder", 10}, {"adder", 12},
                                        {"divider", 3}, {"max", 4}, {"multiplier", 3},
                                        {"multiplier", 4}, {"sqrt", 3}, {"square", 4}}});
  } else if (name == "serve_warm") {
    def.job_workers = 2;
    def.clients = 2;
    def.warm_in_setup = true;
    def.groups.push_back({"TF5;size", tiny ? std::vector<NetworkDef>{{"adder", 4}}
                                           : std::vector<NetworkDef>{{"adder", 8},
                                                                     {"multiplier", 4},
                                                                     {"square", 4}}});
    def.groups.push_back(
        {"(TF;BFD;size)*;map",
         tiny ? std::vector<NetworkDef>{{"adder", 4}, {"max", 4}, {"multiplier", 3}}
              : std::vector<NetworkDef>{{"adder", 8}, {"divider", 4}, {"max", 8},
                                        {"multiplier", 4}, {"sine", 4}, {"sqrt", 4}}});
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return def;
}

mig::Mig generate(const NetworkDef& def) {
  const uint32_t w = def.width;
  if (def.kind == "adder") return gen::make_adder_n(w);
  if (def.kind == "divider") return gen::make_divisor_n(w);
  if (def.kind == "log2") return gen::make_log2_n(w);
  if (def.kind == "max") return gen::make_max_n(w);
  if (def.kind == "multiplier") return gen::make_multiplier_n(w);
  if (def.kind == "sine") return gen::make_sine_n(w);
  if (def.kind == "sqrt") return gen::make_sqrt_n(w);
  if (def.kind == "square") return gen::make_square_n(w);
  throw std::invalid_argument("unknown generator '" + def.kind + "'");
}

std::string network_name(const NetworkDef& def) {
  const bool digit_last =
      !def.kind.empty() && std::isdigit(static_cast<unsigned char>(def.kind.back()));
  return def.kind + (digit_last ? "_" : "") + std::to_string(def.width);
}

std::string to_blif(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

mig::Mig from_blif(const std::string& text) {
  std::istringstream is(text);
  return io::read_blif(is);
}

/// Generator output, depth-optimized as the paper's starting points are
/// (the same preparation as flow::Corpus::generated_arithmetic).
std::vector<JobSpec> make_specs(const WorkloadDef& def) {
  std::vector<JobSpec> specs;
  for (const auto& group : def.groups) {
    for (const auto& network : group.networks) {
      JobSpec spec;
      spec.name = network_name(network) + " " + group.script;
      spec.script = group.script;
      spec.blif = to_blif(algebra::depth_optimize(generate(network)));
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// A service with its optional server and clients.  Teardown order matters:
/// clients disconnect, the service stops (waking blocked result() calls),
/// then the server joins its connection threads.
struct Deployment {
  std::unique_ptr<api::LocalService> service;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::RemoteService>> clients;
  std::string socket_path;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;
  ~Deployment() { stop(); }

  void stop() {
    clients.clear();
    if (service) service->shutdown();
    if (server) server->stop();
    server.reset();
    service.reset();
  }
};

Deployment deploy(const WorkloadDef& def, const Options& options) {
  Deployment d;
  api::LocalService::Params params;
  params.session.database_path = options.database_path;
  params.session.threads = def.session_threads;
  params.job_workers = def.job_workers;
  d.service = std::make_unique<api::LocalService>(params);
  // Load the database and create the oracle now, as a service warming up
  // before it takes traffic does; jobs would otherwise do it lazily.
  d.service->session().oracle();
  if (def.clients > 0) {
    d.socket_path = options.work_dir + "/s" + std::to_string(::getpid()) + ".sock";
    serve::ServerParams server_params;
    server_params.socket_path = d.socket_path;
    d.server = std::make_unique<serve::Server>(*d.service, server_params);
    for (uint32_t c = 0; c < def.clients; ++c) {
      d.clients.push_back(std::make_unique<serve::RemoteService>(d.socket_path));
    }
  }
  return d;
}

std::vector<api::JobRequest> make_requests(const std::vector<JobSpec>& specs) {
  std::vector<api::JobRequest> requests;
  for (const auto& spec : specs) {
    api::JobRequest request;
    request.name = spec.name;
    request.script = spec.script;
    request.network_blif = spec.blif;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Per-round deterministic counters; every round of a run must agree.
struct Counters {
  uint64_t size_after = 0;
  uint64_t depth_after = 0;
  uint64_t syntheses = 0;
  uint64_t sat_conflicts = 0;
  bool operator==(const Counters&) const = default;
};

std::string layer_of_pass(const flow::PassStats& pass) {
  if (pass.is_mapping) return "flow.map";
  if (pass.name == "size" || pass.name == "depth") return "flow.algebra";
  if (pass.name == "check") return "flow.check";
  return "flow.rewrite";
}

/// Spans for one job: the job itself (submit to result, layer api) and its
/// passes, reconstructed from JobResult.report and laid out back to back at
/// the end of the job (what precedes them is queueing, BLIF parsing and the
/// protocol).
void trace_job(Tracer& tracer, const JobSpec& spec, const JobRecord& record,
               Clock::time_point start, Clock::time_point end, uint64_t parent,
               uint64_t job) {
  if (!tracer.enabled()) return;
  const auto& report = record.result.report;
  const uint64_t id = tracer.open();
  tracer.record(id, spec.name, "api", start, end, parent, job, record.lane,
                {{"size_after", report.size_after},
                 {"oracle_queries", static_cast<double>(report.oracle_queries)},
                 {"oracle_syntheses", static_cast<double>(report.oracle_synthesized)}});
  double total = 0;
  for (const auto& pass : report.passes) total += pass.seconds;
  auto cursor = end - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(total));
  for (const auto& pass : report.passes) {
    const auto next = cursor + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(pass.seconds));
    tracer.record(tracer.open(), pass.name, layer_of_pass(pass), cursor, next, id, job,
                  record.lane,
                  {{"cuts_evaluated", static_cast<double>(pass.cuts_evaluated)},
                   {"replacements", static_cast<double>(pass.replacements)},
                   {"oracle_cache5_hits", static_cast<double>(pass.oracle_cache5_hits)},
                   {"oracle_syntheses", static_cast<double>(pass.oracle_synthesized)}});
    cursor = next;
  }
}

/// One closed-loop caller: submits the jobs of `order` one at a time and
/// waits for each result.
void run_caller(api::Service& service, const std::vector<api::JobRequest>& requests,
                const std::vector<JobSpec>& specs, const std::vector<size_t>& order,
                uint32_t lane, uint64_t round_span, uint64_t job_base,
                Tracer& tracer, std::vector<JobRecord>& out) {
  uint64_t job = job_base;
  for (const size_t index : order) {
    JobRecord record;
    record.spec = index;
    record.lane = lane;
    const auto start = Clock::now();
    try {
      const api::JobId id = service.submit(requests[index]);
      record.result = service.result(id);
    } catch (const std::exception& e) {
      record.result.code = api::classify(e);
      record.result.message = e.what();
    }
    const auto end = Clock::now();
    record.latency_s = std::chrono::duration<double>(end - start).count();
    trace_job(tracer, specs[index], record, start, end, round_span, ++job);
    out.push_back(std::move(record));
  }
}

struct CacheSnapshot {
  std::vector<tt::TruthTable> functions;  ///< sorted, as the file lists them
  uint64_t conflicts = 0;
};

/// Saves the service's 5-input oracle cache to `path` and reads it back:
/// the file records, per cached function, the SAT conflicts spent on it.
CacheSnapshot snapshot_cache(api::LocalService& service, const std::string& path) {
  CacheSnapshot snapshot;
  if (service.cache_stats().entries == 0) return snapshot;
  service.cache_save(path);
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string hex, status;
    int64_t budget = 0;
    uint64_t conflicts = 0;
    if (!(ls >> hex >> status >> budget >> conflicts)) {
      throw std::runtime_error("unreadable oracle cache line: " + line);
    }
    snapshot.functions.push_back(tt::TruthTable::from_hex(5, hex));
    snapshot.conflicts += conflicts;
  }
  return snapshot;
}

/// FNV-1a, 64 bit, with the length mixed in: the identity of a BLIF text.
std::string text_key(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%016llx-%zx", static_cast<unsigned long long>(h),
                text.size());
  return buffer;
}

/// Output check, outside the timed region.  Every job's BLIF must equal the
/// first output of its spec (results are deterministic; compared after each
/// round), and that output, re-read, must be equivalent to the input the
/// service was given: cec::check_equivalence proves it by SAT; where the
/// proof runs out of its conflict budget the random-simulation filter
/// decides, and the network is named on stderr.  Verdicts are kept under the
/// work directory by the identity of the input and output texts, so a later
/// run that produces the same bytes reuses the verdict instead of re-proving
/// it.
struct CheckOutcome {
  std::vector<bool> spec_ok;
  uint64_t luts_after = 0;
  double seconds = 0.0;
};

CheckOutcome check_outputs(const Options& options, const std::vector<JobSpec>& specs,
                           const std::vector<const std::string*>& reference,
                           Tracer& tracer) {
  ScopedSpan span(tracer, "check outputs", "check");
  const auto start = Clock::now();
  CheckOutcome outcome;
  outcome.spec_ok.assign(specs.size(), false);
  const std::string verdict_path = options.work_dir + "/state/verdicts.txt";
  std::vector<std::string> verdicts;  // "<input key> <output key> proved|simulated"
  {
    std::ifstream is(verdict_path);
    for (std::string line; std::getline(is, line);) verdicts.push_back(line);
  }
  const size_t known = verdicts.size();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (reference[i] == nullptr) {
      fprintf(stderr, "check: %s produced no output\n", specs[i].name.c_str());
      continue;
    }
    const mig::Mig output = from_blif(*reference[i]);
    const std::string key = text_key(specs[i].blif) + " " + text_key(*reference[i]);
    const auto cached = std::find_if(verdicts.begin(), verdicts.end(), [&](const auto& v) {
      return v.compare(0, key.size() + 1, key + " ") == 0;
    });
    std::string how;
    if (cached != verdicts.end()) {
      how = cached->substr(key.size() + 1);
    } else {
      const mig::Mig input = from_blif(specs[i].blif);
      cec::CecOptions cec_options;
      cec_options.conflict_limit = 5000;
      cec_options.seed = options.seed;
      const auto verdict = cec::check_equivalence(input, output, cec_options);
      if (verdict.status == cec::CecStatus::equivalent) {
        how = "proved";
      } else if (verdict.status == cec::CecStatus::unknown &&
                 cec::random_simulation_equal(input, output, 1024, options.seed ^ 0xc0ffee)) {
        how = "simulated";
      }
      if (!how.empty()) verdicts.push_back(key + " " + how);
    }
    if (how.empty()) {
      fprintf(stderr, "check: %s: output NOT equivalent to its input\n",
              specs[i].name.c_str());
      continue;
    }
    if (how == "simulated") {
      fprintf(stderr, "check: %s: SAT proof over budget, random simulation agrees\n",
              specs[i].name.c_str());
    }
    outcome.spec_ok[i] = true;
    outcome.luts_after += map::map_luts(output).num_luts;
  }
  if (verdicts.size() != known) {
    util::write_file_atomically(verdict_path, [&](std::ostream& os) {
      for (const auto& v : verdicts) os << v << '\n';
    });
  }
  outcome.seconds = seconds_since(start);
  return outcome;
}

/// Counters must also repeat across runs of one build: the first run records
/// them under the work directory and later runs compare.
bool check_against_record(const Options& options, const Counters& counters,
                          uint64_t luts_after) {
  const std::string path = options.work_dir + "/state/records-" + options.workload +
                           (options.tiny ? "-tiny" : "") + ".txt";
  std::ostringstream line;
  line << counters.size_after << ' ' << counters.depth_after << ' ' << luts_after << ' '
       << counters.syntheses << ' ' << counters.sat_conflicts;
  std::ifstream is(path);
  std::string recorded;
  if (is && std::getline(is, recorded)) {
    if (recorded != line.str()) {
      fprintf(stderr,
              "deterministic counters differ from an earlier run of this build:\n"
              "  earlier: %s\n  now:     %s\n  (size depth luts syntheses conflicts)\n",
              recorded.c_str(), line.str().c_str());
      return false;
    }
    return true;
  }
  util::write_file_atomically(path, [&](std::ostream& os) { os << line.str() << '\n'; });
  return true;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rewrite4", "synth5", "serve_warm"};
  return names;
}

RunResult run_workload(const Options& options, Tracer& tracer) {
  const WorkloadDef def = workload_def(options.workload, options.tiny);
  const bool traced_run = tracer.enabled();
  RunResult out;

  // --- set-up: corpus generation, BLIF serialization, database load,
  // service start (and for serve_warm, the cache warm-up); repeated, and the
  // median reported.
  const int setups = def.warm_in_setup ? 3 : 9;
  std::vector<double> setup_times;
  std::vector<JobSpec> specs;
  std::vector<api::JobRequest> requests;
  Deployment deployment;
  for (int rep = 0; rep < setups; ++rep) {
    deployment.stop();
    ScopedSpan span(tracer, "setup", "bench");
    const auto start = Clock::now();
    specs = make_specs(def);
    requests = make_requests(specs);
    deployment = deploy(def, options);
    if (def.warm_in_setup) {
      for (const auto& request : requests) {
        deployment.service->result(deployment.service->submit(request));
      }
    }
    setup_times.push_back(seconds_since(start));
  }
  out.end_to_end.add("setup_s", median(setup_times), "s");

  // --- timed phase: whole rounds until the time is up.
  Rng rng(options.seed);
  std::vector<JobRecord> records;
  std::vector<double> round_walls, traced_walls, round_cpus;
  std::vector<Counters> round_counters;
  std::vector<double> rewrite_s, algebra_s, map_s;
  uint64_t cuts_evaluated = 0, replacements = 0, failures5 = 0;
  api::ServiceStats round_delta;
  CacheSnapshot cache;
  const std::string cache_path =
      options.work_dir + "/oracle-" + std::to_string(::getpid()) + ".cache";
  constexpr uint32_t kMinRounds = 3;
  constexpr uint32_t kMaxRounds = 100000;
  // Per spec, the index of the record holding its first output; records
  // are only appended, so indices stay valid.
  constexpr size_t kNone = SIZE_MAX;
  std::vector<size_t> reference(specs.size(), kNone);
  const auto phase_start = Clock::now();
  for (uint32_t round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds && seconds_since(phase_start) >= options.seconds) break;
    if (def.cold_per_round && round > 0) {
      deployment.stop();
      deployment = deploy(def, options);
    }
    // Traced runs alternate traced and untraced rounds; the difference of
    // their median wall times is the tracing overhead.
    tracer.set_enabled(traced_run && round % 2 == 1);
    api::LocalService& service = *deployment.service;
    const api::ServiceStats before = service.stats();
    const size_t first_record = records.size();
    const double cpu_start = process_cpu_seconds();
    ScopedSpan round_span(tracer, "round " + std::to_string(round), "bench");
    const auto start = Clock::now();
    const uint64_t job_base = static_cast<uint64_t>(round) * 1000000;
    if (def.clients == 0) {
      std::vector<size_t> order(specs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      run_caller(service, requests, specs, order, 0, round_span.id(), job_base,
                 tracer, records);
    } else {
      // Closed loop: every client runs the whole mix in its own order.
      std::vector<std::vector<size_t>> orders(def.clients);
      for (auto& order : orders) {
        order.resize(specs.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
      }
      std::vector<std::vector<JobRecord>> lanes(def.clients);
      std::vector<std::thread> threads;
      for (uint32_t c = 0; c < def.clients; ++c) {
        threads.emplace_back([&, c] {
          run_caller(*deployment.clients[c], requests, specs, orders[c], c,
                     round_span.id(), job_base + c * 100000, tracer, lanes[c]);
        });
      }
      for (auto& thread : threads) thread.join();
      for (auto& lane : lanes) {
        for (auto& record : lane) records.push_back(std::move(record));
      }
    }
    const double wall = seconds_since(start);
    (tracer.enabled() ? traced_walls : round_walls).push_back(wall);
    round_cpus.push_back(process_cpu_seconds() - cpu_start);
    const api::ServiceStats after = service.stats();

    Counters counters;
    double rewrite = 0, algebra = 0, mapping = 0;
    for (size_t r = first_record; r < records.size(); ++r) {
      // Every output must repeat its spec's first one; only that one is
      // kept, so memory stays flat over the run.
      auto& result = records[r].result;
      if (result.code == api::ErrorCode::ok) {
        const size_t spec = records[r].spec;
        if (reference[spec] == kNone) {
          reference[spec] = r;
        } else {
          records[r].matches_reference =
              result.network_blif == records[reference[spec]].result.network_blif;
          std::string().swap(result.network_blif);
        }
      }
      const auto& report = result.report;
      // Closed-loop clients each run the whole mix: count one client's share.
      if (records[r].lane != 0) continue;
      counters.size_after += report.size_after;
      counters.depth_after += report.depth_after;
      for (const auto& pass : report.passes) {
        const std::string layer = layer_of_pass(pass);
        (layer == "flow.map" ? mapping : layer == "flow.algebra" ? algebra : rewrite) +=
            pass.seconds;
      }
      if (round == 0) {
        cuts_evaluated += report.cuts_evaluated();
        replacements += report.replacements();
        failures5 += report.oracle_failures;
      }
    }
    rewrite_s.push_back(rewrite);
    algebra_s.push_back(algebra);
    map_s.push_back(mapping);
    counters.syntheses = after.oracle_synthesized - before.oracle_synthesized;
    if (def.cold_per_round || round == 0) cache = snapshot_cache(service, cache_path);
    counters.sat_conflicts = cache.conflicts;
    if (round == 0) {
      round_delta.oracle_queries = after.oracle_queries - before.oracle_queries;
      round_delta.oracle_cache5_hits = after.oracle_cache5_hits - before.oracle_cache5_hits;
      round_delta.oracle_synthesized = counters.syntheses;
      round_delta.cache_entries = after.cache_entries;
    }
    round_counters.push_back(counters);
  }
  tracer.set_enabled(traced_run);
  const double phase_s = seconds_since(phase_start);
  if (round_walls.empty()) round_walls = traced_walls;

  // --- output check and determinism.
  std::vector<const std::string*> outputs(specs.size(), nullptr);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (reference[i] != kNone) outputs[i] = &records[reference[i]].result.network_blif;
  }
  const CheckOutcome check = check_outputs(options, specs, outputs, tracer);
  std::vector<double> latencies, queue_waits;
  for (const auto& record : records) {
    ++out.attempted;
    const bool ok = record.result.code == api::ErrorCode::ok && check.spec_ok[record.spec] &&
                    record.matches_reference;
    if (!ok) {
      ++out.failed;
      if (record.result.code != api::ErrorCode::ok) {
        fprintf(stderr, "job %s failed [%s]: %s\n", specs[record.spec].name.c_str(),
                api::error_code_name(record.result.code), record.result.message.c_str());
      }
    }
    latencies.push_back(record.latency_s);
    queue_waits.push_back(record.latency_s - record.result.report.seconds);
  }
  for (const auto& counters : round_counters) {
    if (!(counters == round_counters.front())) {
      fprintf(stderr, "deterministic counters differ between rounds of one run\n");
      out.correct = false;
    }
  }
  const Counters& counters = round_counters.front();
  if (out.failed == 0 &&
      !check_against_record(options, counters, check.luts_after)) {
    out.correct = false;
  }
  if (def.warm_in_setup && counters.syntheses != 0) {
    fprintf(stderr, "warm workload synthesized %llu functions in the timed phase\n",
            static_cast<unsigned long long>(counters.syntheses));
    out.correct = false;
  }
  if (out.failed != 0) out.correct = false;
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<double> own;
    for (const auto& record : records) {
      if (record.spec == i) own.push_back(record.latency_s);
    }
    fprintf(stderr, "  %-36s median %.4fs over %zu jobs\n", specs[i].name.c_str(),
            median(own), own.size());
  }
  fprintf(stderr,
          "%s: %zu rounds, %llu jobs in %.2fs (untraced round wall min %.4fs, median "
          "%.4fs, max %.4fs); check %.2fs; correct: %s\n",
          def.name.c_str(), round_counters.size(),
          static_cast<unsigned long long>(out.attempted), phase_s, quantile(round_walls, 0),
          median(round_walls), quantile(round_walls, 1), check.seconds,
          out.correct ? "yes" : "no");

  double job_seconds = 0;
  for (const double w : round_walls) job_seconds += w;
  for (const double w : traced_walls) job_seconds += w;
  Metrics& e2e = out.end_to_end;
  e2e.add("wall_s", median(round_walls), "s");
  e2e.add("cpu_s", median(round_cpus), "s");
  e2e.add("jobs_per_s", ratio(static_cast<double>(records.size()), job_seconds), "1/s");
  e2e.add("job_p50_s", quantile(latencies, 0.50), "s");
  e2e.add("job_p95_s", quantile(latencies, 0.95), "s");
  e2e.add("size_after", static_cast<double>(counters.size_after), "count");
  e2e.add("depth_after", static_cast<double>(counters.depth_after), "count");
  e2e.add("luts_after", static_cast<double>(check.luts_after), "count");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (!traced_run) {
    deployment.stop();
    std::remove(cache_path.c_str());
    return out;
  }

  // --- traced run: per-layer metrics.
  Metrics& layers = out.per_layer;
  layers.add("trace.overhead_s", median(traced_walls) - median(round_walls), "s");
  layers.add("failed_share", ratio(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted)),
             "ratio");
  layers.add("sat_conflicts", static_cast<double>(counters.sat_conflicts), "count");
  layers.add("flow.rewrite_s", median(rewrite_s), "s");
  layers.add("flow.algebra_s", median(algebra_s), "s");
  layers.add("flow.map_s", median(map_s), "s");
  layers.add("flow.cuts_evaluated", static_cast<double>(cuts_evaluated), "count");
  layers.add("flow.replacements", static_cast<double>(replacements), "count");
  layers.add("oracle.queries", static_cast<double>(round_delta.oracle_queries), "count");
  layers.add("oracle.cache5_hits", static_cast<double>(round_delta.oracle_cache5_hits),
             "count");
  layers.add("oracle.syntheses", static_cast<double>(round_delta.oracle_synthesized),
             "count");
  layers.add("oracle.failures", static_cast<double>(failures5), "count");
  // Reuse of the 5-input cache only: 4-input queries never reach it.
  layers.add("oracle.reuse5_rate",
             flow::oracle_rate(round_delta.oracle_cache5_hits,
                               round_delta.oracle_cache5_hits + round_delta.oracle_synthesized),
             "ratio");
  layers.add("oracle.cache_entries", static_cast<double>(round_delta.cache_entries), "count");
  layers.add("api.queue_wait_p50_s", quantile(queue_waits, 0.5), "s");

  ProbeInput probe;
  probe.options = &options;
  probe.specs = &specs;
  probe.records = &records;
  probe.cached5 = cache.functions;
  probe.cache_file = cache.functions.empty() ? std::string() : cache_path;
  probe.round_wall_s = median(round_walls);
  probe.round_syntheses = counters.syntheses;
  probe.service = deployment.service.get();
  probe.socket_path = deployment.socket_path;
  run_probes(probe, tracer, layers);
  deployment.stop();
  std::remove(cache_path.c_str());
  return out;
}

}  // namespace perfbench
