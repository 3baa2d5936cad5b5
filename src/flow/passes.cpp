#include <algorithm>
#include <cctype>
#include <chrono>
#include <stdexcept>

#include "check/check.hpp"
#include "flow/pass.hpp"
#include "flow/session.hpp"

namespace mighty::flow {

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Functional hashing through the session's shared oracle.
class RewritePass final : public Pass {
public:
  RewritePass(const opt::RewriteParams& params, std::string name)
      : params_(params), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport& report) const override {
    opt::RewriteStats stats;
    // The session's worker pool is injected at run time, so one Pipeline can
    // serve sessions of any parallelism (results are identical either way).
    opt::RewriteParams params = params_;
    params.pool = session.worker_pool();
    auto result = opt::functional_hashing(mig, session.oracle(), params, &stats);

    PassStats entry;
    entry.name = name_;
    entry.size_before = stats.size_before;
    entry.size_after = stats.size_after;
    entry.depth_before = stats.depth_before;
    entry.depth_after = stats.depth_after;
    entry.cuts_evaluated = stats.cuts_evaluated;
    entry.replacements = stats.replacements;
    // Per-call tally, not lifetime-counter deltas: exact attribution even
    // while other networks of a batch hammer the same shared oracle.
    entry.counts() = stats.counts();
    entry.seconds = stats.seconds;
    report.passes.push_back(std::move(entry));
    return result;
  }

  bool uses_oracle() const override { return true; }


private:
  opt::RewriteParams params_;
  std::string name_;
};

class SizePass final : public Pass {
public:
  explicit SizePass(const algebra::SizeOptParams& params) : params_(params) {}

  std::string name() const override { return "size"; }

  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport& report) const override {
    const auto start = std::chrono::steady_clock::now();
    algebra::AlgebraStats stats;
    algebra::SizeOptParams params = params_;
    params.pool = session.worker_pool();
    auto result = algebra::size_optimize(mig, params, &stats);
    PassStats entry;
    entry.name = name();
    entry.size_before = stats.size_before;
    entry.size_after = stats.size_after;
    entry.depth_before = stats.depth_before;
    entry.depth_after = stats.depth_after;
    entry.seconds = seconds_since(start);
    report.passes.push_back(std::move(entry));
    return result;
  }


private:
  algebra::SizeOptParams params_;
};

class DepthPass final : public Pass {
public:
  explicit DepthPass(const algebra::DepthOptParams& params) : params_(params) {}

  std::string name() const override { return "depth"; }

  mig::Mig run(const mig::Mig& mig, Session&, FlowReport& report) const override {
    const auto start = std::chrono::steady_clock::now();
    algebra::AlgebraStats stats;
    auto result = algebra::depth_optimize(mig, params_, &stats);
    PassStats entry;
    entry.name = name();
    entry.size_before = stats.size_before;
    entry.size_after = stats.size_after;
    entry.depth_before = stats.depth_before;
    entry.depth_after = stats.depth_after;
    entry.seconds = seconds_since(start);
    report.passes.push_back(std::move(entry));
    return result;
  }


private:
  algebra::DepthOptParams params_;
};

/// Analysis pass: maps onto k-LUTs for reporting and passes the MIG through.
class LutMapPass final : public Pass {
public:
  explicit LutMapPass(const map::MapParams& params) : params_(params) {}

  std::string name() const override {
    return params_.lut_size == 6 ? "map" : "map" + std::to_string(params_.lut_size);
  }

  mig::Mig run(const mig::Mig& mig, Session&, FlowReport& report) const override {
    const auto start = std::chrono::steady_clock::now();
    const auto mapping = map::map_luts(mig, params_);
    PassStats entry;
    entry.name = name();
    entry.size_before = entry.size_after = mig.count_live_gates();
    entry.depth_before = entry.depth_after = mig.depth();
    entry.is_mapping = true;
    entry.num_luts = mapping.num_luts;
    entry.lut_depth = mapping.depth;
    entry.seconds = seconds_since(start);
    report.passes.push_back(std::move(entry));
    return mig;
  }


private:
  map::MapParams params_;
};

/// Execution directive: "parallel:n" adjusts the session's thread count and
/// leaves both the network and the trajectory untouched.
class ParallelPass final : public Pass {
public:
  explicit ParallelPass(uint32_t threads) : threads_(threads) {}

  std::string name() const override {
    return "parallel:" + std::to_string(threads_);
  }

  mig::Mig run(const mig::Mig& mig, Session& session, FlowReport&) const override {
    session.set_threads(threads_);
    return mig;
  }

  bool mutates_session() const override { return true; }


private:
  uint32_t threads_;
};

/// Session directive: "cache:<path>" attaches the persistent 5-input oracle
/// cache.  Like ParallelPass it reconfigures the session, not the network.
class CachePass final : public Pass {
public:
  explicit CachePass(std::string path) : path_(std::move(path)) {}

  std::string name() const override { return "cache:" + path_; }

  mig::Mig run(const mig::Mig& mig, Session& session, FlowReport&) const override {
    // Attach once: inside a repeated pipeline the path is unchanged after
    // the first round, and the file must not be re-parsed every iteration.
    if (session.cache_path() != path_) {
      session.set_cache_path(path_);
      // A live oracle merges now; a lazy one merges when it materializes.
      if (session.oracle_if_created() != nullptr) session.load_cache();
    }
    return mig;
  }

  bool mutates_session() const override { return true; }


private:
  std::string path_;
};

/// Explicit validation point: the "check" script word runs the full
/// invariant suite on the current network no matter what the session's
/// between-pass level is, so scripts can assert well-formedness exactly
/// where it matters (after an untrusted reader, before an expensive flow).
class CheckPass final : public Pass {
public:
  std::string name() const override { return "check"; }

  mig::Mig run(const mig::Mig& mig, Session&, FlowReport& report) const override {
    const auto start = std::chrono::steady_clock::now();
    const auto result = check::validate_at(mig, /*full=*/true);
    PassStats entry;
    entry.name = name();
    entry.size_before = entry.size_after = mig.count_live_gates();
    entry.depth_before = entry.depth_after = mig.depth();
    entry.seconds = seconds_since(start);
    report.passes.push_back(std::move(entry));
    if (!result.ok()) {
      throw std::logic_error("check failed:\n" + result.summary());
    }
    return mig;
  }
};

}  // namespace

std::shared_ptr<const Pass> make_rewrite_pass(const std::string& variant) {
  std::string canonical = variant;
  std::transform(canonical.begin(), canonical.end(), canonical.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  // A trailing '5' selects the 5-input-cut extension of the variant ("TF5"),
  // served by the session's shared synthesis cache — the flavor whose work
  // batch runs amortize corpus-wide.
  opt::RewriteParams params;
  if (canonical.size() > 1 && canonical.back() == '5') {
    params = opt::variant_params(canonical.substr(0, canonical.size() - 1));
    params.five_input_cuts = true;
  } else {
    params = opt::variant_params(canonical);
  }
  return std::make_shared<RewritePass>(params, std::move(canonical));
}

std::shared_ptr<const Pass> make_rewrite_pass(const opt::RewriteParams& params,
                                              std::string name) {
  return std::make_shared<RewritePass>(params, std::move(name));
}

std::shared_ptr<const Pass> make_size_pass(const algebra::SizeOptParams& params) {
  return std::make_shared<SizePass>(params);
}

std::shared_ptr<const Pass> make_depth_pass(const algebra::DepthOptParams& params) {
  return std::make_shared<DepthPass>(params);
}

std::shared_ptr<const Pass> make_lut_map_pass(const map::MapParams& params) {
  return std::make_shared<LutMapPass>(params);
}

std::shared_ptr<const Pass> make_parallel_pass(uint32_t threads) {
  return std::make_shared<ParallelPass>(threads == 0 ? 1 : threads);
}

std::shared_ptr<const Pass> make_cache_pass(std::string path) {
  return std::make_shared<CachePass>(std::move(path));
}

std::shared_ptr<const Pass> make_check_pass() {
  return std::make_shared<CheckPass>();
}

}  // namespace mighty::flow
