// Per-layer probes of a traced run.  Each probe calls one layer's public
// functions directly, on inputs taken from the workload just run (its
// networks, its oracle cache, its job results), and records a span per call
// group.  Which end-to-end metric each probe should move, and on which
// workload, is in perfbench/README.md.

#include <unistd.h>

#include <sstream>
#include <thread>

#include "bench.hpp"
#include "exact/database.hpp"
#include "exact/encoding_onehot.hpp"
#include "exact/exact_synthesis.hpp"
#include "io/io.hpp"
#include "map/lut_mapper.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/cuts.hpp"
#include "mig/ffr.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"
#include "opt/oracle.hpp"
#include "sat/solver.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace mighty;

/// The oracle's defaults for on-demand 5-input synthesis.
exact::SynthesisOptions oracle_synthesis_options() {
  const opt::OracleParams oracle;
  exact::SynthesisOptions options;
  options.max_gates = oracle.max_gates;
  options.conflict_limit = oracle.synthesis_conflict_limit;
  return options;
}

exact::Database load_database(const std::string& path) {
  auto db = exact::Database::load(path);
  if (!db) throw std::runtime_error("cannot load the NPN database at " + path);
  return std::move(*db);
}

/// Runs `body` (one full pass over a probe's inputs) at least `min_reps`
/// times and until `min_s` have passed; returns the median pass time.
template <typename F>
double median_pass(F&& body, int min_reps = 3, double min_s = 0.2) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps || seconds_since(start) < min_s) {
    const auto pass = Clock::now();
    body();
    times.push_back(seconds_since(pass));
    if (times.size() >= 200) break;
  }
  return median(times);
}

struct Networks {
  std::vector<std::string> blifs;  ///< distinct inputs of the workload
  std::vector<mig::Mig> migs;
  size_t bytes = 0;
};

Networks distinct_networks(const std::vector<JobSpec>& specs) {
  Networks n;
  for (const auto& spec : specs) {
    bool seen = false;
    for (const auto& blif : n.blifs) seen = seen || blif == spec.blif;
    if (seen) continue;
    n.blifs.push_back(spec.blif);
    n.bytes += spec.blif.size();
  }
  for (const auto& blif : n.blifs) {
    std::istringstream is(blif);
    n.migs.push_back(io::read_blif(is));
  }
  return n;
}

void probe_io(const Networks& nets, Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "io probe", "io");
  const double read_s = median_pass([&] {
    for (const auto& blif : nets.blifs) {
      std::istringstream is(blif);
      const mig::Mig m = io::read_blif(is);
      if (m.num_pis() == 0) throw std::runtime_error("empty network");
    }
  });
  const double write_s = median_pass([&] {
    for (const auto& m : nets.migs) {
      std::ostringstream os;
      io::write_blif(os, m);
      if (os.str().empty()) throw std::runtime_error("empty BLIF");
    }
  });
  out.add("io.read_blif_s", read_s, "s");
  out.add("io.write_blif_s", write_s, "s");
  out.add("io.blif_mb_per_s", ratio(static_cast<double>(nets.bytes) / 1e6, read_s), "MB/s");
}

/// Cut functions harvested by the cut probe for the later probes.
struct CutFunctions {
  std::vector<tt::TruthTable> four;  ///< 4-input cut functions, in node order
  std::vector<tt::TruthTable> five;  ///< sorted distinct functions of full support 5
};

/// Cut enumeration as the FFR rewriting drivers run it (cuts confined to
/// fanout-free regions), at k = 4 and k = 5, then cut simulation.
CutFunctions probe_cuts(const Networks& nets, Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "cut probe", "mig");
  CutFunctions functions;
  uint64_t cuts4 = 0, cuts5 = 0, sims = 0;
  double enum4_s = 0, enum5_s = 0, sim_s = 0;
  constexpr size_t kMaxFunctions4 = 200000;
  constexpr size_t kMaxFunctions5 = 50000;
  for (const auto& m : nets.migs) {
    const auto boundary = ffr::ffr_boundary(ffr::compute_ffrs(m));
    cuts::CutEnumerationParams params;
    params.boundary = &boundary;
    std::vector<std::vector<cuts::Cut>> sets4, sets5;
    params.cut_size = 4;
    enum4_s += median_pass([&] { sets4 = cuts::enumerate_cuts(m, params); }, 3, 0.0);
    params.cut_size = 5;
    enum5_s += median_pass([&] { sets5 = cuts::enumerate_cuts(m, params); }, 3, 0.0);
    cuts4 += cuts::total_cut_count(sets4);
    cuts5 += cuts::total_cut_count(sets5);

    const auto start = Clock::now();
    for (uint32_t node = 0; node < m.num_nodes(); ++node) {
      if (!m.is_gate(node)) continue;
      for (const auto& cut : sets4[node]) {
        if (cut.size < 2 || functions.four.size() >= kMaxFunctions4) continue;
        const auto f = mig::simulate_cut(m, node, cut.leaf_vector());
        ++sims;
        functions.four.push_back(f.num_vars() < 4 ? f.extend(4) : f);
      }
    }
    sim_s += seconds_since(start);
    for (uint32_t node = 0; node < m.num_nodes(); ++node) {
      if (!m.is_gate(node)) continue;
      for (const auto& cut : sets5[node]) {
        if (cut.size != 5 || functions.five.size() >= kMaxFunctions5) continue;
        functions.five.push_back(mig::simulate_cut(m, node, cut.leaf_vector()));
      }
    }
  }
  std::vector<tt::TruthTable> full_support;
  for (const auto& f : functions.five) {
    bool full = true;
    for (uint32_t v = 0; v < 5; ++v) full = full && f.depends_on(v);
    if (full) full_support.push_back(f);
  }
  std::sort(full_support.begin(), full_support.end(),
            [](const auto& a, const auto& b) { return a.bits() < b.bits(); });
  full_support.erase(std::unique(full_support.begin(), full_support.end()),
                     full_support.end());
  functions.five = std::move(full_support);

  out.add("mig.cuts4", static_cast<double>(cuts4), "count");
  out.add("mig.cut_enum4_s", enum4_s, "s");
  out.add("mig.cuts5", static_cast<double>(cuts5), "count");
  out.add("mig.cut_enum5_s", enum5_s, "s");
  out.add("mig.cut_sims_per_s", ratio(static_cast<double>(sims), sim_s), "1/s");
  return functions;
}

void probe_npn_and_database(const std::string& db_path,
                            const std::vector<tt::TruthTable>& functions, Tracer& tracer,
                            Metrics& out) {
  ScopedSpan span(tracer, "npn/database probe", "npn");
  std::vector<double> loads;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan load_span(tracer, "Database::load", "exact", span.id());
    const auto start = Clock::now();
    load_database(db_path);
    loads.push_back(seconds_since(start));
  }
  out.add("exact.db_load_s", median(loads), "s");

  const size_t n_canon = std::min<size_t>(functions.size(), 2000);
  const double canon_s = median_pass([&] {
    for (size_t i = 0; i < n_canon; ++i) {
      if (npn::canonize(functions[i]).representative.num_vars() != 4) {
        throw std::runtime_error("canonization lost variables");
      }
    }
  });
  out.add("npn.canonize_per_s", ratio(static_cast<double>(n_canon), canon_s), "1/s");

  // Lookups on a freshly loaded database: the first sight of a function
  // canonizes, repeats hit the lookup memo — as in a rewriting pass.
  const auto lookup_all = [&](const exact::Database& db, size_t offset) {
    for (size_t i = 0; i < functions.size(); ++i) {
      const auto& f = functions[(i + offset) % functions.size()];
      if (db.lookup(f).entry == nullptr) throw std::runtime_error("lookup miss");
    }
  };
  {
    ScopedSpan lookup_span(tracer, "Database::lookup x1", "exact", span.id());
    const exact::Database db = load_database(db_path);
    const auto start = Clock::now();
    lookup_all(db, 0);
    out.add("exact.db_lookups_per_s",
            ratio(static_cast<double>(functions.size()), seconds_since(start)), "1/s");
  }
  {
    ScopedSpan lookup_span(tracer, "Database::lookup x2", "exact", span.id());
    const exact::Database db = load_database(db_path);
    const auto start = Clock::now();
    std::thread other([&] { lookup_all(db, functions.size() / 2); });
    lookup_all(db, 0);
    other.join();
    out.add("exact.db_lookups_per_s_contended",
            ratio(2.0 * static_cast<double>(functions.size()), seconds_since(start)), "1/s");
  }
}

/// Mean time of one ReplacementOracle::query that hits: against the
/// workload's own 5-input cache when it has one, else 4-input lookups.
void probe_oracle_hits(const ProbeInput& in, const std::vector<tt::TruthTable>& four,
                       Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "oracle hit probe", "oracle");
  const exact::Database db = load_database(in.options->database_path);
  opt::OracleParams params;
  params.enable_five_input = true;
  opt::ReplacementOracle oracle(db, params);
  std::vector<tt::TruthTable> queries;
  if (!in.cache_file.empty()) {
    if (oracle.load_cache(in.cache_file).status !=
        opt::ReplacementOracle::CacheLoadStatus::loaded) {
      throw std::runtime_error("cannot reload the workload's oracle cache");
    }
    queries = in.cached5;
  } else {
    queries.assign(four.begin(), four.begin() + std::min<size_t>(four.size(), 20000));
  }
  for (const auto& f : queries) oracle.query(f);  // warm the lookup memo
  const uint64_t synthesized = oracle.synthesized_count();
  const double pass_s = median_pass([&] {
    for (const auto& f : queries) oracle.query(f);
  });
  if (oracle.synthesized_count() != synthesized) {
    throw std::runtime_error("oracle hit probe synthesized: the cache was not warm");
  }
  out.add("oracle.hit_s", ratio(pass_s, static_cast<double>(queries.size())), "s");
}

struct Replay {
  tt::TruthTable f;
  exact::SynthesisResult result;
  double seconds = 0.0;
};

/// Replays exact synthesis with the oracle's budget on the workload's 5-input
/// functions (seeded order), up to a time budget.
std::vector<Replay> probe_exact(const ProbeInput& in, const std::vector<tt::TruthTable>& five,
                                Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "exact synthesis replay", "exact");
  std::vector<tt::TruthTable> functions = in.cached5.empty() ? five : in.cached5;
  Rng rng(in.options->seed ^ 0xe8ac7);
  rng.shuffle(functions);
  const double budget_s = std::min(20.0, std::max(2.0, 1.5 * in.round_wall_s));
  const auto options = oracle_synthesis_options();
  std::vector<Replay> replays;
  uint64_t conflicts = 0, timeout_conflicts = 0, problems = 0, timeouts = 0;
  double total_s = 0;
  const auto start = Clock::now();
  for (const auto& f : functions) {
    if (seconds_since(start) >= budget_s) break;
    ScopedSpan one(tracer, "synthesize " + f.to_hex(), "exact", span.id());
    Replay replay;
    replay.f = f;
    const auto t0 = Clock::now();
    replay.result = exact::synthesize_minimum_mig(f, options);
    replay.seconds = seconds_since(t0);
    uint64_t c = 0;
    for (const uint64_t step : replay.result.conflicts_per_step) c += step;
    conflicts += c;
    problems += replay.result.conflicts_per_step.size();
    if (replay.result.status == exact::SynthesisStatus::timeout) {
      ++timeouts;
      timeout_conflicts += c;
    }
    one.count("conflicts", static_cast<double>(c));
    one.count("problems", static_cast<double>(replay.result.conflicts_per_step.size()));
    total_s += replay.seconds;
    replays.push_back(std::move(replay));
  }
  const double n = static_cast<double>(replays.size());
  out.add("exact.syntheses_per_s", ratio(n, total_s), "1/s");
  out.add("exact.conflicts_per_synthesis", ratio(static_cast<double>(conflicts), n), "count");
  out.add("exact.problems_per_synthesis", ratio(static_cast<double>(problems), n), "count");
  out.add("exact.timeout_share", ratio(static_cast<double>(timeouts), n), "ratio");
  out.add("exact.timeout_conflict_share",
          ratio(static_cast<double>(timeout_conflicts), static_cast<double>(conflicts)),
          "ratio");
  // Share of a round's wall time the workload's syntheses account for, at
  // the replayed mean cost per synthesis.
  out.add("exact.share_of_wall",
          ratio(static_cast<double>(in.round_syntheses) * ratio(total_s, n), in.round_wall_s),
          "ratio");
  return replays;
}

/// The SAT core alone: one-hot encodings at the minimum gate count (SAT) and
/// one below it (UNSAT), each into a fresh solver.
void probe_sat(const std::vector<Replay>& replays, Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "sat probe", "sat");
  const int64_t limit = oracle_synthesis_options().conflict_limit;
  constexpr size_t kSample = 8;
  sat::SolverStats total;
  double solve_s = 0;
  size_t sampled = 0;
  for (const auto& replay : replays) {
    if (sampled == kSample) break;
    if (replay.result.status != exact::SynthesisStatus::success) continue;
    const uint32_t k = replay.result.chain.size();
    if (k == 0) continue;
    ++sampled;
    for (const uint32_t gates : {k, k - 1}) {
      if (gates == 0) continue;
      sat::Solver solver;
      exact::OnehotEncoder encoder(solver, replay.f, gates);
      encoder.encode();
      ScopedSpan one(tracer, "solve k=" + std::to_string(gates), "sat", span.id());
      const auto start = Clock::now();
      solver.solve({}, limit);
      solve_s += seconds_since(start);
      const sat::SolverStats& stats = solver.stats();
      one.count("conflicts", static_cast<double>(stats.conflicts));
      one.count("decisions", static_cast<double>(stats.decisions));
      one.count("propagations", static_cast<double>(stats.propagations));
      total.conflicts += stats.conflicts;
      total.decisions += stats.decisions;
      total.propagations += stats.propagations;
    }
  }
  out.add("sat.propagations", static_cast<double>(total.propagations), "count");
  out.add("sat.decisions", static_cast<double>(total.decisions), "count");
  out.add("sat.solve_s", solve_s, "s");
  out.add("sat.propagations_per_s", ratio(static_cast<double>(total.propagations), solve_s),
          "1/s");
  out.add("sat.conflicts_per_s", ratio(static_cast<double>(total.conflicts), solve_s), "1/s");
}

void probe_algebra_and_map(const Networks& nets, Tracer& tracer, Metrics& out) {
  {
    ScopedSpan span(tracer, "algebra::size_optimize", "algebra");
    out.add("algebra.size_opt_s", median_pass([&] {
              for (const auto& m : nets.migs) algebra::size_optimize(m);
            }, 1, 0.0),
            "s");
  }
  ScopedSpan span(tracer, "map::map_luts", "map");
  uint64_t luts = 0;
  const double map_s = median_pass([&] {
    luts = 0;
    for (const auto& m : nets.migs) luts += map::map_luts(m).num_luts;
  }, 1, 0.0);
  out.add("map.map_s", map_s, "s");
  out.add("map.luts", static_cast<double>(luts), "count");
}

void probe_serve(const ProbeInput& in, Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "serve probe", "serve");
  {
    // STATS round trips: against the workload's own server when it has one,
    // else through a server started here over the workload's service.
    std::unique_ptr<serve::Server> server;
    std::string socket = in.socket_path;
    if (socket.empty()) {
      socket = in.options->work_dir + "/p" + std::to_string(::getpid()) + ".sock";
      serve::ServerParams params;
      params.socket_path = socket;
      server = std::make_unique<serve::Server>(*in.service, params);
    }
    {
      serve::RemoteService client(socket);
      std::vector<double> rtts;
      for (int i = 0; i < 200; ++i) {
        const auto start = Clock::now();
        client.stats();
        rtts.push_back(seconds_since(start));
      }
      out.add("serve.rtt_s", median(rtts), "s");
    }
    if (server) server->stop();
  }
  const api::JobResult* largest = nullptr;
  for (const auto& record : *in.records) {
    if (largest == nullptr ||
        record.result.network_blif.size() > largest->network_blif.size()) {
      largest = &record.result;
    }
  }
  out.add("serve.result_codec_s", largest == nullptr ? 0.0 : median_pass([&] {
    const auto payload = serve::encode_result_ok(*largest);
    if (serve::decode_result_ok(payload).network_blif.size() !=
        largest->network_blif.size()) {
      throw std::runtime_error("result codec round trip changed the network");
    }
  }),
          "s");
}

}  // namespace

void run_probes(const ProbeInput& in, Tracer& tracer, Metrics& out) {
  ScopedSpan span(tracer, "per-layer probes", "bench");
  const Networks nets = distinct_networks(*in.specs);
  probe_io(nets, tracer, out);
  const CutFunctions functions = probe_cuts(nets, tracer, out);
  probe_npn_and_database(in.options->database_path, functions.four, tracer, out);
  probe_oracle_hits(in, functions.four, tracer, out);
  const auto replays = probe_exact(in, functions.five, tracer, out);
  probe_sat(replays, tracer, out);
  probe_algebra_and_map(nets, tracer, out);
  probe_serve(in, tracer, out);
}

}  // namespace perfbench
