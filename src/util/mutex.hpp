#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/annotations.hpp"
#include "util/assert.hpp"

/// \file mutex.hpp
/// \brief Capability-annotated lock types: the only mutexes src/ uses.
///
/// util::Mutex / util::SharedMutex / util::CondVar wrap their std
/// counterparts with two layers of checking:
///
///  * **Compile time** — the types carry Clang thread-safety capability
///    attributes (util/annotations.hpp), so data declared
///    `MIGHTY_GUARDED_BY(mutex_)` cannot be touched without the lock, and
///    `MIGHTY_REQUIRES(mutex_)` helpers cannot be called without it.  The CI
///    leg building with `-Wthread-safety -Wthread-safety-beta -Werror`
///    rejects any violation; tests/annotations_negative/ proves the analysis
///    is live.
///
///  * **Run time (Debug)** — every Mutex carries a LockRank from the
///    documented hierarchy (docs/concurrency.md), and acquisitions maintain a
///    process-global acquisition-order graph: acquiring rank B while holding
///    rank A records the edge A->B, and an acquisition that would close a
///    cycle (a lock-order inversion — deadlock potential, even if this run
///    never deadlocks) aborts via MIGHTY_ASSERT naming both ranks.  The
///    checker compiles out under NDEBUG / MIGHTY_UNCHECKED, and disables
///    itself under ThreadSanitizer: its internal graph lock would add
///    happens-before edges between unrelated threads and mask real races
///    from the TSan CI leg.
///
/// Scoped wrappers replace std::lock_guard/unique_lock/shared_lock:
/// `MutexLock` (exclusive, relockable, works with CondVar), `WriterLock`
/// (exclusive on a SharedMutex) and `SharedLock` (shared).  Bare
/// lock()/unlock() calls outside a wrapper are reserved for patterns the
/// wrappers cannot express and need a reason in a comment.

namespace mighty::util {

/// The documented lock hierarchy, outermost first: a thread may only acquire
/// a mutex whose rank it has already been *observed* to acquire before — the
/// Debug checker learns edges dynamically and rejects inversions, so the
/// enum order is documentation while the graph is the mechanism.  `none`
/// opts a mutex out of order tracking (tests, leaf-only locals); every
/// production mutex in src/ names its rank.  See docs/concurrency.md.
enum class LockRank : uint8_t {
  none = 0,                  ///< untracked
  serve_server_join,         ///< serve::Server stop() serialization
  serve_server_connections,  ///< serve::Server connection table
  serve_client,              ///< serve::RemoteService roundtrip serialization
  api_service_jobs,          ///< api::LocalService job table + queue
  api_service_session,       ///< api::LocalService session read/write gate
  flow_session_persist,      ///< flow::Session::persist() choke point
  oracle_persist,            ///< opt::ReplacementOracle persisted-path state
  oracle_stripe,             ///< opt::ReplacementOracle 5-cut cache stripes
  pool_queue,                ///< util::ThreadPool queue + group states
  pool_for_job,              ///< util::ThreadPool per-parallel_for job state
  test_outer,                ///< reserved for tests/lock_order_test.cpp
  test_inner,                ///< reserved for tests/lock_order_test.cpp
  count
};

/// Human-readable rank name for diagnostics.
const char* lock_rank_name(LockRank rank);

// The runtime lock-order checker is a Debug facility: NDEBUG and
// MIGHTY_UNCHECKED compile it out, and ThreadSanitizer builds disable it so
// the checker's own synchronization cannot hide races from TSan.
#if defined(__SANITIZE_THREAD__)
#define MIGHTY_LOCK_ORDER_CHECKS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MIGHTY_LOCK_ORDER_CHECKS 0
#endif
#endif
#if !defined(MIGHTY_LOCK_ORDER_CHECKS)
#if !defined(NDEBUG) && !defined(MIGHTY_UNCHECKED)
#define MIGHTY_LOCK_ORDER_CHECKS 1
#else
#define MIGHTY_LOCK_ORDER_CHECKS 0
#endif
#endif

namespace lock_order {

/// True when acquisitions feed the order graph and inversions abort.
inline constexpr bool kEnabled = MIGHTY_LOCK_ORDER_CHECKS != 0;

#if MIGHTY_LOCK_ORDER_CHECKS
/// Called by Mutex/SharedMutex before blocking on the underlying lock:
/// records held->rank edges and aborts on a same-rank acquisition or a
/// cycle-closing inversion.  `none` is ignored.
void note_acquire(LockRank rank);
/// Called after releasing: drops the rank from this thread's held set.
void note_release(LockRank rank);
/// Test introspection: has the edge before->after been observed?
bool observed(LockRank before, LockRank after);
#else
inline void note_acquire(LockRank) {}
inline void note_release(LockRank) {}
inline bool observed(LockRank, LockRank) { return false; }
#endif

}  // namespace lock_order

/// Exclusive mutex with a capability annotation and a lock-order rank.
class MIGHTY_CAPABILITY("mutex") Mutex {
public:
  explicit Mutex(LockRank rank = LockRank::none) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MIGHTY_ACQUIRE() {
    lock_order::note_acquire(rank_);  // before blocking: report, don't hang
    m_.lock();
    set_owner();
  }

  void unlock() MIGHTY_RELEASE() {
    clear_owner();
    m_.unlock();
    lock_order::note_release(rank_);
  }

  /// Tells the compile-time analysis this mutex is held — used where a
  /// capability expression cannot be spelled at the access site (e.g. data
  /// guarded through a back-pointer the analysis cannot alias).  In Debug
  /// builds the claim is verified: the calling thread must actually hold
  /// the lock.
  void assert_held() const MIGHTY_ASSERT_CAPABILITY(this) {
#if MIGHTY_LOCK_ORDER_CHECKS
    MIGHTY_ASSERT(owner_.load(std::memory_order_relaxed) == thread_hash() &&
                  "assert_held: mutex is not held by this thread");
#endif
  }

  LockRank rank() const { return rank_; }

private:
#if MIGHTY_LOCK_ORDER_CHECKS
  static size_t thread_hash() {
    const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return h == 0 ? 1 : h;  // 0 is the "unowned" sentinel
  }
  void set_owner() { owner_.store(thread_hash(), std::memory_order_relaxed); }
  void clear_owner() { owner_.store(0, std::memory_order_relaxed); }
#else
  static void set_owner() {}
  static void clear_owner() {}
#endif

  std::mutex m_;
  const LockRank rank_;
#if MIGHTY_LOCK_ORDER_CHECKS
  std::atomic<size_t> owner_{0};
#endif
};

/// Reader/writer mutex.  Shared acquisitions participate in lock-order
/// tracking with the same rank as exclusive ones (an inversion through a
/// shared hold deadlocks just as surely once a writer queues up).
class MIGHTY_CAPABILITY("shared_mutex") SharedMutex {
public:
  explicit SharedMutex(LockRank rank = LockRank::none) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MIGHTY_ACQUIRE() {
    lock_order::note_acquire(rank_);
    m_.lock();
  }
  void unlock() MIGHTY_RELEASE() {
    m_.unlock();
    lock_order::note_release(rank_);
  }
  void lock_shared() MIGHTY_ACQUIRE_SHARED() {
    lock_order::note_acquire(rank_);
    m_.lock_shared();
  }
  void unlock_shared() MIGHTY_RELEASE_SHARED() {
    m_.unlock_shared();
    lock_order::note_release(rank_);
  }

private:
  std::shared_mutex m_;
  const LockRank rank_;
};

/// Scoped exclusive lock on a Mutex; replaces std::lock_guard and
/// std::unique_lock.  Relockable (unlock()/lock()) so wait loops and
/// drop-the-lock-around-work patterns keep their annotations, and CondVar
/// waits on it directly.
class MIGHTY_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex& mu) MIGHTY_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    held_ = true;
  }

  ~MutexLock() MIGHTY_RELEASE() {
    if (held_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() MIGHTY_RELEASE() {
    mu_->unlock();
    held_ = false;
  }

  void lock() MIGHTY_ACQUIRE() {
    mu_->lock();
    held_ = true;
  }

private:
  Mutex* mu_;
  bool held_;
};

/// Scoped exclusive lock on a SharedMutex (the writer side).
class MIGHTY_SCOPED_CAPABILITY WriterLock {
public:
  explicit WriterLock(SharedMutex& mu) MIGHTY_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~WriterLock() MIGHTY_RELEASE() { mu_->unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

private:
  SharedMutex* mu_;
};

/// Scoped shared lock on a SharedMutex (the reader side).
class MIGHTY_SCOPED_CAPABILITY SharedLock {
public:
  explicit SharedLock(SharedMutex& mu) MIGHTY_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~SharedLock() MIGHTY_RELEASE() { mu_->unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

private:
  SharedMutex* mu_;
};

/// Condition variable paired with util::Mutex.  Waits take the scoped
/// MutexLock, so releasing and reacquiring during the wait flows through the
/// annotated (and order-tracked) Mutex methods.  Callers use explicit
/// predicate loops —
///     while (!predicate) cv.wait(lock);
/// — rather than a predicate lambda: the thread-safety analysis checks the
/// guarded reads in the loop condition directly in the scope that holds the
/// lock, where a lambda body would lose the capability context.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, waits, and reacquires before returning.
  /// The capability state is unchanged across the call, which is exactly
  /// what the analysis (correctly) assumes of an unannotated function.
  void wait(MutexLock& lock) { cv_.wait(lock); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

private:
  // condition_variable_any drives the lock through MutexLock::lock()/
  // unlock(), keeping ownership bookkeeping and order tracking truthful
  // while the wait has the mutex dropped.
  std::condition_variable_any cv_;
};

}  // namespace mighty::util
