#include "flow/session.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

namespace mighty::flow {

Session::Session(exact::Database db, SessionParams params)
    : params_(std::move(params)), database_(std::move(db)) {}

Session::~Session() {
  // Autosave is best effort: destructors must not throw, and losing a save
  // only costs the next process its warm start, never correctness.  Routed
  // through persist() so a daemon whose signal handler already persisted
  // does not race (or redundantly rewrite) the same file here.
  try {
    persist();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: oracle cache autosave to %s failed: %s\n",
                 params_.oracle_cache_path.c_str(), e.what());
  }
}

std::string Session::database_path() const {
  return params_.database_path.empty() ? exact::default_database_path()
                                       : params_.database_path;
}

const exact::Database& Session::database() {
  if (!database_) {
    database_ = exact::Database::load_or_build(database_path(), params_.synthesis);
  }
  return *database_;
}

opt::ReplacementOracle& Session::oracle() {
  if (!oracle_) {
    oracle_.emplace(database(), params_.oracle);
    // Warm-start from the persisted cache the moment the oracle exists, so
    // the very first pass already reuses other processes' syntheses.
    if (!params_.oracle_cache_path.empty()) merge_cache_file();
  }
  return *oracle_;
}

void Session::set_cache_path(std::string path) {
  // Recording only — no I/O.  The merge happens when the oracle
  // materializes or through an explicit load_cache(); a side-effectful
  // setter would make `cache save <new-path>` read the destination file
  // and double-parse every `cache load`.
  params_.oracle_cache_path = std::move(path);
}

opt::ReplacementOracle::CacheLoadResult Session::load_cache() {
  if (params_.oracle_cache_path.empty()) return {};
  if (!oracle_) {
    // Materializing the oracle already merges the file (and reports its
    // result); calling oracle() here and merging again would double-parse
    // and always report "0 adopted".
    oracle_.emplace(database(), params_.oracle);
  }
  return merge_cache_file();
}

opt::ReplacementOracle::CacheLoadResult Session::merge_cache_file() {
  const auto result = oracle_->load_cache(params_.oracle_cache_path);
  if (result.status == opt::ReplacementOracle::CacheLoadStatus::malformed) {
    std::fprintf(stderr, "warning: ignoring malformed oracle cache %s\n",
                 params_.oracle_cache_path.c_str());
  }
  return result;
}

size_t Session::save_cache() {
  if (params_.oracle_cache_path.empty() || !oracle_) return 0;
  return oracle_->save_cache(params_.oracle_cache_path);
}

size_t Session::persist() {
  // One mutex serializes every shutdown path (destructor, service shutdown,
  // SIGTERM) into the same save; the oracle's dirty tracking then turns the
  // losers of the race into no-ops instead of duplicate writes.
  const util::MutexLock lock(persist_mutex_);
  return save_cache();
}

void Session::set_threads(uint32_t threads) {
  if (threads == 0) threads = 1;
  // Same ceiling the script grammar enforces; C++ callers get clamped
  // rather than an absurd spawn attempt.
  threads = std::min(threads, util::ThreadPool::kMaxParallelism);
  if (threads == params_.threads) return;
  params_.threads = threads;
  pool_.reset();  // re-materializes lazily at the new width
}

util::ThreadPool* Session::worker_pool() {
  if (threads() == 1) return nullptr;
  if (!pool_ || pool_->parallelism() != threads()) {
    pool_ = std::make_unique<util::ThreadPool>(threads());
  }
  return pool_.get();
}

}  // namespace mighty::flow
