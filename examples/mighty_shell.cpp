// An interactive (or scripted) mini-shell over the library, in the spirit of
// ABC / CirKit: load a network, optimize, map, verify, export.
//
//   $ ./build/examples/mighty_shell
//   mighty> gen multiplier 16
//   mighty> flow depth; TF; (BFD; size)*; map
//   mighty> cec
//   mighty> write_blif /tmp/out.blif
//
// Or non-interactively:  echo "gen adder 32; fh TF; ps" | ./build/examples/mighty_shell
//
// Every optimization command is a JobRequest against a mighty::api::Service —
// by default the in-process api::LocalService (one warm flow::Session for the
// shell's lifetime), or, after `connect <socket>`, a mighty-serve daemon over
// the wire.  Local and remote take the identical code path, and the daemon's
// results are bit-identical to in-process runs.

#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cec/cec.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/cuts.hpp"
#include "mig/mig.hpp"
#include "serve/client.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"

using namespace mighty;

namespace {

std::string to_blif(const mig::Mig& mig) {
  std::ostringstream os;
  io::write_blif(os, mig);
  return os.str();
}

struct Shell {
  std::optional<mig::Mig> current;
  std::optional<mig::Mig> original;  ///< snapshot for cec
  api::LocalService local;
  std::unique_ptr<serve::RemoteService> remote;

  /// Where jobs go: the daemon when connected, the in-process service
  /// otherwise.  Same contract either way.
  api::Service& service() { return remote ? *static_cast<api::Service*>(remote.get()) : local; }
  const char* service_name() const { return remote ? "daemon" : "local"; }

  bool require_network() {
    if (!current) {
      printf("no network loaded; use `gen` or `read_blif`\n");
      return false;
    }
    return true;
  }

  void print_stats(const char* tag) {
    printf("%s: pis=%u pos=%u gates=%u depth=%u\n", tag, current->num_pis(),
           current->num_pos(), current->count_live_gates(), current->depth());
  }

  /// Submits the current network with `script` as one job, waits for the
  /// result, prints the trajectory and (when `adopt`) replaces the current
  /// network with the optimized artifact.  Returns false when the job failed.
  bool run_job(const std::string& script, bool adopt) {
    api::JobRequest request;
    request.name = "shell";
    request.script = script;
    request.network_blif = to_blif(*current);
    const api::JobId id = service().submit(request);
    const api::JobResult result = service().result(id);
    if (result.code != api::ErrorCode::ok) {
      printf("error [%s]: %s\n", api::error_code_name(result.code),
             result.message.c_str());
      return false;
    }
    fputs(result.report.summary().c_str(), stdout);
    if (adopt) {
      current = io::read_blif(result.network_blif);
    }
    return true;
  }

  void command(const std::string& line);
};

void Shell::command(const std::string& line) {
  std::istringstream is(line);
  std::string cmd;
  if (!(is >> cmd)) return;

  if (cmd == "help") {
    printf(
        "commands:\n"
        "  gen <adder|divisor|log2|max|multiplier|sine|sqrt|square> [width]\n"
        "  read_blif <path> | write_blif <path> | write_verilog <path> | "
        "write_dot <path>\n"
        "  ps                    network statistics\n"
        "  check                 validate structural invariants of the network\n"
        "                        (also a flow-script word: `flow TF; check`)\n"
        "  depth_opt | size_opt  algebraic optimization (refs. [3], [4])\n"
        "  fh [variant]          functional hashing (default BF; T/TD/TF/TFD/B/...)\n"
        "  flow <script>         run a flow script, e.g.  TF;(BFD;size)*;map\n"
        "                        (x*3 repeats, x* iterates to convergence,\n"
        "                        parallel:4 runs later passes on 4 threads)\n"
        "  batch <dir|gen> <script>\n"
        "                        run a flow script over a whole corpus (every\n"
        "                        .blif in <dir>, or the built-in generator\n"
        "                        corpus), one job per network on the service\n"
        "  autotune <size|depth|product> [dir|gen]\n"
        "                        search the flow-script grammar for the best\n"
        "                        flow under an objective (corpus as in batch;\n"
        "                        default gen); prints the Pareto front and the\n"
        "                        winning script — rerun it with `flow <script>`\n"
        "  connect <socket>      send later jobs to a mighty-serve daemon\n"
        "  disconnect            go back to the in-process service\n"
        "  shutdown              ask the connected daemon to shut down\n"
        "  stats                 service counters (jobs, oracle, cache)\n"
        "  threads [n]           set/show session parallelism (deterministic)\n"
        "  cache load <path>     merge a persistent 5-input oracle cache\n"
        "  cache save [path]     persist the oracle cache (also on exit)\n"
        "  cache stats           show oracle cache size and dirty entries\n"
        "  map [k]               k-LUT mapping, k = 3..6 (default 6)\n"
        "  cec                   SAT equivalence vs. the originally loaded network\n"
        "  snapshot              make the current network the cec reference\n"
        "  quit\n");
    return;
  }
  if (cmd == "gen") {
    std::string kind;
    uint32_t width = 0;
    is >> kind >> width;
    if (kind == "adder") {
      current = width ? gen::make_adder_n(width) : gen::make_adder();
    } else if (kind == "divisor") {
      current = width ? gen::make_divisor_n(width) : gen::make_divisor();
    } else if (kind == "log2") {
      current = width ? gen::make_log2_n(width) : gen::make_log2();
    } else if (kind == "max") {
      current = width ? gen::make_max_n(width) : gen::make_max();
    } else if (kind == "multiplier") {
      current = width ? gen::make_multiplier_n(width) : gen::make_multiplier();
    } else if (kind == "sine") {
      current = width ? gen::make_sine_n(width) : gen::make_sine();
    } else if (kind == "sqrt") {
      current = width ? gen::make_sqrt_n(width) : gen::make_sqrt();
    } else if (kind == "square") {
      current = width ? gen::make_square_n(width) : gen::make_square();
    } else {
      printf("unknown generator '%s'\n", kind.c_str());
      return;
    }
    original = current;
    print_stats("generated");
    return;
  }
  if (cmd == "connect") {
    std::string path;
    is >> path;
    if (path.empty()) {
      printf("usage: connect <socket path>\n");
      return;
    }
    try {
      remote = std::make_unique<serve::RemoteService>(path);
      const auto s = remote->stats();
      printf("connected to %s (%llu jobs served, %llu cached syntheses)\n",
             path.c_str(), static_cast<unsigned long long>(s.submitted),
             static_cast<unsigned long long>(s.cache_entries));
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    return;
  }
  if (cmd == "disconnect") {
    if (!remote) {
      printf("not connected\n");
      return;
    }
    remote.reset();
    printf("back to the in-process service\n");
    return;
  }
  if (cmd == "shutdown") {
    if (!remote) {
      printf("not connected to a daemon (the local service stops on quit)\n");
      return;
    }
    try {
      remote->shutdown();
      printf("daemon is shutting down (cache persisted)\n");
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    remote.reset();
    return;
  }
  if (cmd == "stats") {
    try {
      const auto s = service().stats();
      printf("%s service: %llu submitted, %llu done, %llu failed, %llu "
             "cancelled (%llu queued, %llu running) on %u job worker%s x %u "
             "thread%s\n",
             service_name(), static_cast<unsigned long long>(s.submitted),
             static_cast<unsigned long long>(s.completed),
             static_cast<unsigned long long>(s.failed),
             static_cast<unsigned long long>(s.cancelled),
             static_cast<unsigned long long>(s.queued),
             static_cast<unsigned long long>(s.running), s.job_workers,
             s.job_workers == 1 ? "" : "s", s.threads,
             s.threads == 1 ? "" : "s");
      printf("oracle: %llu queries, %llu cache hits, %llu synthesized; cache "
             "%llu entries (%llu dirty)\n",
             static_cast<unsigned long long>(s.oracle_queries),
             static_cast<unsigned long long>(s.oracle_cache5_hits),
             static_cast<unsigned long long>(s.oracle_synthesized),
             static_cast<unsigned long long>(s.cache_entries),
             static_cast<unsigned long long>(s.cache_dirty));
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    return;
  }
  if (cmd == "threads") {
    uint32_t n = 0;
    if (is >> n) {
      if (n == 0 || n > util::ThreadPool::kMaxParallelism) {
        printf("thread count must be between 1 and %u\n",
               util::ThreadPool::kMaxParallelism);
        return;
      }
      local.session().set_threads(n);
    }
    printf("session parallelism: %u thread%s (results are identical at any "
           "count)\n", local.session().threads(),
           local.session().threads() == 1 ? "" : "s");
    return;
  }
  if (cmd == "cache") {
    std::string sub, path;
    is >> sub >> path;
    try {
      if (sub == "load") {
        if (path.empty()) {
          printf("usage: cache load <path>\n");
          return;
        }
        const auto info = service().cache_load(path);
        if (info.status == "missing") {
          printf("no cache file at %s yet (it will be created on save)\n",
                 path.c_str());
        } else if (info.status == "malformed") {
          printf("rejected malformed cache %s (next save rewrites it)\n",
                 path.c_str());
        } else {
          printf("loaded: %zu entr%s in the cache (%zu newly adopted) from %s\n",
                 info.entries, info.entries == 1 ? "y" : "ies", info.adopted,
                 path.c_str());
        }
      } else if (sub == "save") {
        const size_t written = service().cache_save(path);
        if (written == 0) {
          printf("nothing new to save (cache is up to date)\n");
        } else {
          printf("saved %zu entr%s\n", written, written == 1 ? "y" : "ies");
        }
      } else if (sub == "stats") {
        const auto info = service().cache_stats();
        printf("5-input cache (%s service): %zu entries, %zu dirty\n",
               service_name(), info.entries, info.dirty);
      } else {
        printf("usage: cache <load|save|stats> [path]\n");
      }
    } catch (const api::Error& e) {
      printf("error [%s]: %s\n", api::error_code_name(e.code()), e.what());
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    return;
  }
  if (cmd == "batch") {
    // Corpus-level execution needs no `current` network: it brings its own.
    // One job per network, all submitted before the first result is fetched,
    // so a multi-worker service (or the daemon) runs them concurrently.
    std::string source, script;
    is >> source;
    std::getline(is, script);
    if (source.empty() || script.find_first_not_of(" \t") == std::string::npos) {
      printf("usage: batch <dir|gen> <script>\n");
      return;
    }
    try {
      const auto corpus = source == "gen" ? flow::Corpus::generated_arithmetic()
                                          : flow::Corpus::from_directory(source);
      if (corpus.empty()) {
        printf("corpus '%s' contains no networks\n", source.c_str());
        return;
      }
      std::vector<api::JobId> ids;
      ids.reserve(corpus.size());
      for (size_t i = 0; i < corpus.size(); ++i) {
        api::JobRequest request;
        request.name = corpus[i].name;
        request.script = script;
        request.network_blif = to_blif(corpus[i].mig);
        ids.push_back(service().submit(request));
      }
      uint32_t gates_before = 0, gates_after = 0, failures = 0;
      for (size_t i = 0; i < corpus.size(); ++i) {
        const auto result = service().result(ids[i]);
        if (result.code != api::ErrorCode::ok) {
          printf("%-16s error [%s]: %s\n", corpus[i].name.c_str(),
                 api::error_code_name(result.code), result.message.c_str());
          ++failures;
          continue;
        }
        printf("%-16s %6u -> %5u gates, %4u -> %3u depth, %6.2fs\n",
               corpus[i].name.c_str(), result.report.size_before,
               result.report.size_after, result.report.depth_before,
               result.report.depth_after, result.report.seconds);
        gates_before += result.report.size_before;
        gates_after += result.report.size_after;
      }
      printf("batch total: %u -> %u gates over %zu network%s, %u failure%s\n",
             gates_before, gates_after, corpus.size(),
             corpus.size() == 1 ? "" : "s", failures, failures == 1 ? "" : "s");
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    return;
  }
  if (cmd == "autotune") {
    // Autotune explores many candidate flows against the in-process session;
    // it stays a local driver (rerun the winner anywhere with `flow`).
    std::string objective, source;
    is >> objective >> source;
    if (objective.empty()) {
      printf("usage: autotune <size|depth|product> [dir|gen]\n");
      return;
    }
    if (source.empty()) source = "gen";
    flow::TuneParams params;
    params.objective = flow::parse_objective(objective);
    params.population = 8;
    params.generations = 1;
    const auto corpus = source == "gen" ? flow::Corpus::generated_arithmetic()
                                        : flow::Corpus::from_directory(source);
    if (corpus.empty()) {
      printf("corpus '%s' contains no networks\n", source.c_str());
      return;
    }
    printf("tuning %s over %zu network%s (population %u, this takes a while)...\n",
           flow::objective_name(params.objective), corpus.size(),
           corpus.size() == 1 ? "" : "s", params.population);
    flow::TuneReport report;
    flow::Autotuner(local.session(), params).tune(corpus, &report);
    fputs(report.summary().c_str(), stdout);
    return;
  }
  if (cmd == "read_blif") {
    std::string path;
    is >> path;
    try {
      current = io::read_blif_file(path);
      original = current;
      print_stats("loaded");
    } catch (const std::exception& e) {
      printf("error: %s\n", e.what());
    }
    return;
  }
  if (!require_network()) return;

  if (cmd == "ps") {
    print_stats("network");
  } else if (cmd == "check") {
    // The "check" script word: full validation on the service (throws into
    // the job result on violation).  The network is not adopted — check is
    // an assertion, not a transformation.
    if (run_job("check", /*adopt=*/false)) printf("all invariants hold\n");
  } else if (cmd == "depth_opt") {
    run_job("depth", /*adopt=*/true);
  } else if (cmd == "size_opt") {
    run_job("size", /*adopt=*/true);
  } else if (cmd == "fh") {
    std::string variant = "BF";
    is >> variant;
    run_job(variant, /*adopt=*/true);
  } else if (cmd == "flow") {
    std::string script;
    std::getline(is, script);
    run_job(script, /*adopt=*/true);
  } else if (cmd == "map") {
    uint32_t lut_size = 6;
    is >> lut_size;
    if (!is) lut_size = 6;
    if (lut_size < 3 || lut_size > cuts::Cut::max_size) {
      printf("LUT size must be between 3 and %u\n", cuts::Cut::max_size);
      return;
    }
    run_job("map" + std::to_string(lut_size), /*adopt=*/false);
  } else if (cmd == "cec") {
    if (!original) {
      printf("no reference network\n");
      return;
    }
    const auto r = cec::check_equivalence(*original, *current);
    switch (r.status) {
      case cec::CecStatus::equivalent:
        printf("equivalent (SAT proof)\n");
        break;
      case cec::CecStatus::not_equivalent:
        printf("NOT equivalent!\n");
        break;
      case cec::CecStatus::unknown:
        printf("unknown (budget exhausted)\n");
        break;
    }
  } else if (cmd == "snapshot") {
    original = current;
    printf("reference updated\n");
  } else if (cmd == "write_blif") {
    std::string path;
    is >> path;
    io::write_blif_file(path, *current);
    printf("written %s\n", path.c_str());
  } else if (cmd == "write_verilog") {
    std::string path;
    is >> path;
    util::write_file_atomically(
        path, [&](std::ostream& os) { io::write_verilog(os, *current); });
    printf("written %s\n", path.c_str());
  } else if (cmd == "write_dot") {
    std::string path;
    is >> path;
    util::write_file_atomically(
        path, [&](std::ostream& os) { io::write_dot(os, *current); });
    printf("written %s\n", path.c_str());
  } else {
    printf("unknown command '%s' (try `help`)\n", cmd.c_str());
  }
}

}  // namespace

int main() {
  Shell shell;
  const bool interactive = isatty(0);
  if (interactive) printf("mighty shell -- `help` for commands\n");
  std::string line;
  while (true) {
    if (interactive) {
      printf("mighty> ");
      fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    // Commands may be ;-chained; `flow` and `batch` commands swallow the
    // rest of the line, since their scripts use ';' as the pass separator.
    size_t start = 0;
    while (start <= line.size()) {
      const size_t word = line.find_first_not_of(" \t", start);
      bool swallows_line = false;
      for (const std::string head : {"flow", "batch"}) {
        if (word != std::string::npos && line.compare(word, head.size(), head) == 0 &&
            (word + head.size() == line.size() || line[word + head.size()] == ' ' ||
             line[word + head.size()] == '\t')) {
          swallows_line = true;
        }
      }
      // No command may take the REPL down with it: a bad script, an
      // unreadable corpus/cache path or an out-of-range argument prints its
      // message and leaves the session — and its warm oracle — alive.
      const auto dispatch = [&shell](const std::string& text) {
        try {
          shell.command(text);
        } catch (const api::Error& e) {
          printf("error [%s]: %s\n", api::error_code_name(e.code()), e.what());
        } catch (const std::exception& e) {
          printf("error: %s\n", e.what());
        }
      };
      if (swallows_line) {
        dispatch(line.substr(word));
        break;
      }
      const size_t semi = line.find(';', start);
      const std::string part = line.substr(start, semi - start);
      if (part == "quit" || part == "exit") return 0;
      dispatch(part);
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  return 0;
}
