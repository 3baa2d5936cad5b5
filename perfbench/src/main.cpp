// perfbench: the repository benchmark binary.
//
//   perfbench --workload rewrite4|synth5|serve_warm --seed N --seconds S
//             --trace 0|1 --work-dir DIR --db PATH [--tiny]
//   perfbench --build-db PATH
//
// Prints the metrics as a table, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced (with the trace written to
// DIR/trace-<workload>-seed<N>.json).  perfbench/run.py builds and runs it.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "exact/database.hpp"
#include "npn/npn.hpp"
#include "util/atomic_file.hpp"

namespace perfbench {

std::vector<std::pair<std::string, double>> Tracer::self_seconds_by_layer() const {
  mighty::util::MutexLock lock(mutex_);
  std::vector<std::pair<uint64_t, double>> child_us;  // (parent id, summed child time)
  for (const auto& span : spans_) {
    if (span.parent != 0) child_us.emplace_back(span.parent, span.dur_us);
  }
  std::sort(child_us.begin(), child_us.end());
  std::vector<std::pair<std::string, double>> layers;
  for (const auto& span : spans_) {
    double children = 0;
    auto it = std::lower_bound(child_us.begin(), child_us.end(),
                               std::make_pair(span.id, -std::numeric_limits<double>::infinity()));
    for (; it != child_us.end() && it->first == span.id; ++it) children += it->second;
    const double self_s = std::max(0.0, span.dur_us - children) * 1e-6;
    bool found = false;
    for (auto& [layer, seconds] : layers) {
      if (layer == span.layer) {
        seconds += self_s;
        found = true;
      }
    }
    if (!found) layers.emplace_back(span.layer, self_s);
  }
  return layers;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

}  // namespace

void Tracer::write(const std::string& path) const {
  mighty::util::MutexLock lock(mutex_);
  mighty::util::write_file_atomically(path, [&](std::ostream& os) {
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const auto& span : spans_) {
      os << (first ? "" : ",\n") << "{\"name\": " << json_string(span.name)
         << ", \"cat\": " << json_string(span.layer) << ", \"ph\": \"X\", \"pid\": 1"
         << ", \"tid\": " << span.lane << ", \"ts\": " << json_number(span.start_us)
         << ", \"dur\": " << json_number(span.dur_us) << ", \"args\": {\"id\": " << span.id
         << ", \"parent\": " << span.parent << ", \"job\": " << span.job;
      for (const auto& [name, value] : span.counts) {
        os << ", " << json_string(name) << ": " << json_number(value);
      }
      os << "}}";
      first = false;
    }
    os << "\n]}\n";
  });
}

bool ensure_database(const std::string& path, unsigned threads) {
  using namespace mighty;
  if (exact::Database::load(path)) return true;
  // Database::build synthesizes the 222 classes one after another; the same
  // syntheses spread over threads take about the time of the hardest class.
  const auto classes = npn::enumerate_classes(4);
  std::vector<exact::SynthesisResult> results(classes.size());
  std::vector<double> seconds(classes.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < classes.size(); i = next++) {
        const auto start = Clock::now();
        results[i] = exact::synthesize_minimum_mig(classes[i], exact::SynthesisOptions{});
        seconds[i] = seconds_since(start);
        if (results[i].status != exact::SynthesisStatus::success) failed = true;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (!failed) {
    // The library's on-disk format (Database::save); the load below
    // validates every line, and a format change falls back to the
    // library's own sequential build.
    util::write_file_atomically(path, [&](std::ostream& os) {
      os << std::setprecision(std::numeric_limits<double>::max_digits10);
      os << "mighty-mig-npn4-db v1 " << classes.size() << '\n';
      for (size_t i = 0; i < classes.size(); ++i) {
        uint64_t conflicts = 0;
        for (const uint64_t c : results[i].conflicts_per_step) conflicts += c;
        os << classes[i].to_hex() << ' ' << conflicts << ' ' << seconds[i] << ' '
           << results[i].chain.to_string() << '\n';
      }
    });
    if (const auto db = exact::Database::load(path); db && db->num_entries() == 222) {
      return true;
    }
    std::remove(path.c_str());
  }
  return exact::Database::load_or_build(path).num_entries() == 222;
}

}  // namespace perfbench

namespace {

std::string flag(int argc, char** argv, const char* name, const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

void usage() {
  fprintf(stderr,
          "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
          "--work-dir DIR --db PATH [--tiny]\n"
          "       perfbench --build-db PATH\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (const std::string db = flag(argc, argv, "--build-db", ""); !db.empty()) {
      const bool ok = ensure_database(db, std::thread::hardware_concurrency());
      fprintf(stderr, "NPN-4 database %s: %s\n", db.c_str(), ok ? "ready" : "FAILED");
      return ok ? 0 : 1;
    }
    Options options;
    options.workload = flag(argc, argv, "--workload", "");
    options.seed = std::stoull(flag(argc, argv, "--seed", "1"));
    options.seconds = std::stod(flag(argc, argv, "--seconds", "10"));
    options.trace = flag(argc, argv, "--trace", "0") == "1";
    options.tiny = has_flag(argc, argv, "--tiny");
    options.work_dir = flag(argc, argv, "--work-dir", "");
    options.database_path = flag(argc, argv, "--db", "");
    bool known = false;
    for (const auto& name : workload_names()) known = known || name == options.workload;
    if (!known || options.work_dir.empty() || options.database_path.empty() ||
        !(options.seconds > 0)) {
      usage();
      return 2;
    }

    Tracer tracer(options.trace);
    const RunResult result = run_workload(options, tracer);
    const Metrics& metrics = options.trace ? result.per_layer : result.end_to_end;

    if (options.trace) {
      const std::string trace_path = options.work_dir + "/trace-" + options.workload +
                                     "-seed" + std::to_string(options.seed) + ".json";
      tracer.write(trace_path);
      fprintf(stderr, "trace: %zu spans in %s; self time by layer:\n", tracer.span_count(),
              trace_path.c_str());
      for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
        fprintf(stderr, "  %-14s %10.4f s\n", layer.c_str(), seconds);
      }
    }

    for (const auto& m : metrics.entries()) {
      printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream json;
    json << "{\"correct\": " << (result.correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
         << ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics.entries()) {
      json << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
           << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
      first = false;
    }
    json << "}}";
    printf("%s\n", json.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
