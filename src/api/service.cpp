#include "api/api.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/control.hpp"
#include "flow/pipeline.hpp"
#include "io/io.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace mighty::api {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::failed: return "failed";
    case JobState::cancelled: return "cancelled";
  }
  return "?";
}

struct LocalService::Impl {
  struct Job {
    JobId id = 0;
    JobRequest request;
    flow::Pipeline pipeline;  ///< parsed at submit: script errors are sync
    flow::RunControl control;
    JobState state = JobState::queued;
    JobResult result;
  };

  explicit Impl(Params params) : params_(std::move(params)), session_(params_.session) {
    params_.job_workers = std::clamp<uint32_t>(params_.job_workers, 1,
                                               util::ThreadPool::kMaxParallelism);
    // The spawned workers immediately contend on mutex_ in worker_loop, so
    // holding it while filling workers_ only delays their first queue check.
    util::MutexLock lock(mutex_);
    workers_.reserve(params_.job_workers);
    for (uint32_t i = 0; i < params_.job_workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  JobId submit(const JobRequest& request) {
    // Parse before taking the lock: a bad script is the submitter's error
    // and reports synchronously (ScriptError -> invalid_script).
    flow::Pipeline pipeline = flow::Pipeline::parse(request.script);
    util::MutexLock lock(mutex_);
    if (stopping_) {
      throw Error(ErrorCode::shutting_down, "service is shutting down");
    }
    if (params_.job_workers > 1 && pipeline.mutates_session()) {
      throw Error(ErrorCode::invalid_request,
                  "session directives ('parallel:', 'cache:') require a "
                  "single-worker service: they reconfigure the engine under "
                  "every concurrent job");
    }
    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->request = request;
    job->pipeline = std::move(pipeline);
    jobs_.emplace(job->id, job);
    queue_.push_back(job);
    ++submitted_;
    queue_cv_.notify_one();
    return job->id;
  }

  JobStatus status(JobId id) {
    util::MutexLock lock(mutex_);
    return JobStatus{find_locked(id)->state};
  }

  JobResult result(JobId id) {
    util::MutexLock lock(mutex_);
    auto job = find_locked(id);
    while (!is_terminal(job->state)) done_cv_.wait(lock);
    // Of several callers waiting here, the first to wake collects; the job
    // is then gone for every later call.
    if (jobs_.erase(id) == 0) throw collected_error(id);
    return std::move(job->result);
  }

  bool cancel(JobId id) {
    util::MutexLock lock(mutex_);
    auto job = find_locked(id);
    if (is_terminal(job->state)) return false;
    if (job->state == JobState::queued) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), job), queue_.end());
      finalize_locked(*job, JobState::cancelled,
                      {ErrorCode::cancelled, "cancelled before start", {}, {}});
      return true;
    }
    // Running: flag it; the pipeline stops at its next pass boundary.
    job->control.cancel.store(true, std::memory_order_relaxed);
    return true;
  }

  ServiceStats stats() {
    ServiceStats s;
    {
      util::MutexLock lock(mutex_);
      s.submitted = submitted_;
      s.completed = completed_;
      s.failed = failed_;
      s.cancelled = cancelled_;
      s.queued = queue_.size();
      s.running = running_;
    }
    if (const auto* oracle = session_.oracle_if_created()) {
      s.oracle_queries = oracle->queries();
      s.oracle_cache5_hits = oracle->cache5_hits();
      s.oracle_synthesized = oracle->synthesized_count();
      const auto cache = oracle->cache_stats();
      s.cache_entries = cache.entries;
      s.cache_dirty = cache.dirty;
    }
    s.threads = session_.threads();
    s.job_workers = params_.job_workers;
    return s;
  }

  void shutdown() {
    std::vector<std::thread> workers;
    {
      util::MutexLock lock(mutex_);
      stopping_ = true;
      for (auto& job : queue_) {
        finalize_locked(*job, JobState::cancelled,
                        {ErrorCode::shutting_down,
                         "service shut down before the job started",
                         {},
                         {}});
      }
      queue_.clear();
      workers.swap(workers_);  // empty on repeat calls: idempotent
    }
    queue_cv_.notify_all();
    for (auto& worker : workers) worker.join();
    // After the last job: the single choke point every shutdown path shares
    // (the Session destructor persists again and no-ops on clean state).
    session_.persist();
  }

  CacheInfo cache_load(const std::string& path) {
    const util::WriterLock lock(session_rw_);
    if (!path.empty()) session_.set_cache_path(path);
    if (session_.cache_path().empty()) {
      throw Error(ErrorCode::invalid_request, "no cache path set");
    }
    const auto loaded = session_.load_cache();
    CacheInfo info;
    info.adopted = loaded.adopted;
    switch (loaded.status) {
      case opt::ReplacementOracle::CacheLoadStatus::loaded:
        info.status = "loaded";
        break;
      case opt::ReplacementOracle::CacheLoadStatus::missing:
        info.status = "missing";
        break;
      case opt::ReplacementOracle::CacheLoadStatus::malformed:
        info.status = "malformed";
        break;
    }
    fill_cache_counts(info);
    return info;
  }

  size_t cache_save(const std::string& path) {
    const util::WriterLock lock(session_rw_);
    if (!path.empty()) session_.set_cache_path(path);
    if (session_.cache_path().empty()) {
      throw Error(ErrorCode::invalid_request, "no cache path set");
    }
    return session_.save_cache();
  }

  CacheInfo cache_stats() {
    CacheInfo info;
    fill_cache_counts(info);
    return info;
  }

  void fill_cache_counts(CacheInfo& info) {
    if (const auto* oracle = session_.oracle_if_created()) {
      const auto cache = oracle->cache_stats();
      info.entries = cache.entries;
      info.dirty = cache.dirty;
    }
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        util::MutexLock lock(mutex_);
        while (!stopping_ && queue_.empty()) queue_cv_.wait(lock);
        if (queue_.empty()) return;  // only true here when stopping
        job = queue_.front();
        queue_.pop_front();
        if (job->state != JobState::queued) continue;  // raced with cancel
        job->state = JobState::running;
        ++running_;
      }
      run_job(*job);
    }
  }

  void run_job(Job& job) {
    JobResult res;
    try {
      // Parsed in place and released with this statement: the text is never
      // read again, but the job stays stored until its result is collected.
      const mig::Mig input = io::read_blif(std::exchange(job.request.network_blif, {}));
      if (job.pipeline.uses_oracle() && session_.oracle_if_created() == nullptr) {
        // Lazy oracle/database init is single-threaded by design; take the
        // session exclusively for the first materialization.
        const util::WriterLock init(session_rw_);
        if (job.pipeline.uses_oracle()) session_.oracle();
      }
      const util::SharedLock run(session_rw_);
      job.control.arm_deadline(job.request.wall_budget_seconds);
      job.control.node_budget = job.request.node_budget;
      job.control.conflict_budget = job.request.conflict_budget;
      const mig::Mig optimized =
          job.pipeline.run(input, session_, &res.report, &job.control);
      std::ostringstream out;
      // Fixed model name: the artifact must be bit-identical across local
      // and remote runs, and a client-chosen name would be spliced verbatim
      // into BLIF text.
      io::write_blif(out, optimized);
      res.network_blif = out.str();
      res.code = ErrorCode::ok;
    } catch (const std::exception& e) {
      res.code = classify(e);
      res.message = e.what();
    }
    const JobState state = res.code == ErrorCode::ok ? JobState::done
                           : res.code == ErrorCode::cancelled
                               ? JobState::cancelled
                               : JobState::failed;
    util::MutexLock lock(mutex_);
    --running_;
    finalize_locked(job, state, std::move(res));
  }

  // --- helpers (mutex_ held, enforced by MIGHTY_REQUIRES) ---------------------

  std::shared_ptr<Job> find_locked(JobId id) MIGHTY_REQUIRES(mutex_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) return it->second;
    // Ids are issued in order and a job leaves jobs_ only when collected.
    if (id != 0 && id < next_id_) throw collected_error(id);
    throw Error(ErrorCode::job_not_found, "no job " + std::to_string(id));
  }

  static Error collected_error(JobId id) {
    return Error(ErrorCode::job_not_found,
                 "job " + std::to_string(id) + ": result already collected");
  }

  void finalize_locked(Job& job, JobState state, JobResult result) MIGHTY_REQUIRES(mutex_) {
    job.state = state;
    job.result = std::move(result);
    if (state == JobState::done) ++completed_;
    if (state == JobState::failed) ++failed_;
    if (state == JobState::cancelled) ++cancelled_;
    done_cv_.notify_all();
  }

  Params params_;
  flow::Session session_;
  /// Jobs hold this shared while running; the one-time oracle
  /// materialization and the cache commands take it exclusively.
  util::SharedMutex session_rw_{util::LockRank::api_service_session};

  util::Mutex mutex_{util::LockRank::api_service_jobs};
  util::CondVar queue_cv_;  ///< workers wait for work / stop
  util::CondVar done_cv_;   ///< result() waits for terminal states
  // A Job's state/result are guarded by mutex_ too, but through the
  // shared_ptr in jobs_ — a per-field annotation cannot name the guard from
  // inside the nested struct, so the contract is enforced at the access
  // sites: only *_locked helpers and lock-holding scopes touch them.
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_ MIGHTY_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<Job>> queue_ MIGHTY_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_ MIGHTY_GUARDED_BY(mutex_);
  JobId next_id_ MIGHTY_GUARDED_BY(mutex_) = 1;
  bool stopping_ MIGHTY_GUARDED_BY(mutex_) = false;
  uint64_t submitted_ MIGHTY_GUARDED_BY(mutex_) = 0;
  uint64_t completed_ MIGHTY_GUARDED_BY(mutex_) = 0;
  uint64_t failed_ MIGHTY_GUARDED_BY(mutex_) = 0;
  uint64_t cancelled_ MIGHTY_GUARDED_BY(mutex_) = 0;
  uint64_t running_ MIGHTY_GUARDED_BY(mutex_) = 0;
};

LocalService::LocalService() : LocalService(Params{}) {}

LocalService::LocalService(Params params)
    : impl_(std::make_unique<Impl>(std::move(params))) {}

LocalService::~LocalService() {
  try {
    impl_->shutdown();
  } catch (...) {  // NOLINT(bugprone-empty-catch) destructor must not throw
  }
}

JobId LocalService::submit(const JobRequest& request) { return impl_->submit(request); }
JobStatus LocalService::status(JobId id) { return impl_->status(id); }
JobResult LocalService::result(JobId id) { return impl_->result(id); }
bool LocalService::cancel(JobId id) { return impl_->cancel(id); }
ServiceStats LocalService::stats() { return impl_->stats(); }
void LocalService::shutdown() { impl_->shutdown(); }
CacheInfo LocalService::cache_load(const std::string& path) {
  return impl_->cache_load(path);
}
size_t LocalService::cache_save(const std::string& path) {
  return impl_->cache_save(path);
}
CacheInfo LocalService::cache_stats() { return impl_->cache_stats(); }
flow::Session& LocalService::session() { return impl_->session_; }

}  // namespace mighty::api
