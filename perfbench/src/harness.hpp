#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

/// \file harness.hpp
/// \brief Measurement plumbing shared by the workloads and the per-layer
/// probes: clocks, quantiles, a seeded generator, the metric list the binary
/// prints, and the in-memory span recorder of traced runs.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user+sys CPU seconds so far (all threads).
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

/// Peak resident set size of the process in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

inline double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// splitmix64: a small seeded generator whose stream is identical on every
/// platform (std::shuffle and the std distributions are not).
class Rng {
public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t below(uint64_t bound) { return bound == 0 ? 0 : next() % bound; }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<size_t>(below(i))]);
    }
  }

private:
  uint64_t state_;
};

/// Metrics in emission order, each with its unit.
class Metrics {
public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Entry>& entries() const { return entries_; }

private:
  std::vector<Entry> entries_;
};

/// Named counts attached to a span (work done inside it).
using Counts = std::vector<std::pair<std::string, double>>;

/// In-memory span recorder for traced runs.  Spans are recorded by the
/// benchmark around its own calls into each layer (nothing inside the
/// library is instrumented), carry the counts of the work they covered, and
/// are written out once, at the end, as Chrome trace-event JSON.  A disabled
/// tracer records nothing.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  struct Span {
    std::string name;
    std::string layer;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t job = 0;     ///< spans of one job share this; 0 = none
    uint32_t lane = 0;    ///< client / thread lane
    double start_us = 0.0;
    double dur_us = 0.0;
    Counts counts;
  };

  /// Reserves a span id up front, so children can name their parent before
  /// it ends (0 when disabled).
  uint64_t open() {
    if (!enabled_) return 0;
    mighty::util::MutexLock lock(mutex_);
    return ++next_id_;
  }

  /// Records a finished span under an id from open().
  void record(uint64_t id, const std::string& name, const std::string& layer,
              Clock::time_point start, Clock::time_point end, uint64_t parent = 0,
              uint64_t job = 0, uint32_t lane = 0, Counts counts = {}) {
    if (!enabled_ || id == 0) return;
    Span span;
    span.counts = std::move(counts);
    span.name = name;
    span.layer = layer;
    span.id = id;
    span.parent = parent;
    span.job = job;
    span.lane = lane;
    span.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
    span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    mighty::util::MutexLock lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Self time per layer: each span's duration minus that of its direct
  /// children, summed per layer in first-seen layer order.
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

  /// Writes the Chrome trace-event JSON (atomically).  Throws on I/O errors.
  void write(const std::string& path) const;

  size_t span_count() const {
    mighty::util::MutexLock lock(mutex_);
    return spans_.size();
  }

private:
  bool enabled_;
  Clock::time_point origin_;
  mutable mighty::util::Mutex mutex_;
  std::vector<Span> spans_ MIGHTY_GUARDED_BY(mutex_);
  uint64_t next_id_ MIGHTY_GUARDED_BY(mutex_) = 0;
};

/// RAII span: records from construction to destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer, uint64_t parent = 0,
             uint64_t job = 0, uint32_t lane = 0)
      : tracer_(tracer),
        name_(std::move(name)),
        layer_(std::move(layer)),
        id_(tracer.open()),
        parent_(parent),
        job_(job),
        lane_(lane),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    tracer_.record(id_, name_, layer_, start_, Clock::now(), parent_, job_, lane_,
                   std::move(counts_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void count(std::string name, double value) { counts_.emplace_back(std::move(name), value); }

private:
  Tracer& tracer_;
  std::string name_;
  std::string layer_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t job_;
  uint32_t lane_;
  Clock::time_point start_;
  Counts counts_;
};

}  // namespace perfbench
