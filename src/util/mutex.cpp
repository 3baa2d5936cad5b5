#include "util/mutex.hpp"

#include <cstdio>
#include <vector>

namespace mighty::util {

const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::none: return "none";
    case LockRank::serve_server_join: return "serve::Server::join_mutex_";
    case LockRank::serve_server_connections: return "serve::Server::connections_mutex_";
    case LockRank::serve_client: return "serve::RemoteService::mutex_";
    case LockRank::api_service_jobs: return "api::LocalService::mutex_";
    case LockRank::api_service_session: return "api::LocalService::session_rw_";
    case LockRank::flow_session_persist: return "flow::Session::persist_mutex_";
    case LockRank::oracle_persist: return "opt::ReplacementOracle::persist_mutex_";
    case LockRank::oracle_stripe: return "opt::ReplacementOracle stripe";
    case LockRank::pool_queue: return "util::ThreadPool::mutex_";
    case LockRank::pool_for_job: return "util::ThreadPool ForJob::mutex";
    case LockRank::test_outer: return "test_outer";
    case LockRank::test_inner: return "test_inner";
    case LockRank::count: break;
  }
  return "?";
}

#if MIGHTY_LOCK_ORDER_CHECKS

namespace lock_order {

namespace {

constexpr size_t kRanks = static_cast<size_t>(LockRank::count);
static_assert(kRanks <= 32, "edge masks below are uint32_t bitsets");

/// The process-global acquisition-order graph: bit `b` of `edges[a]` means
/// "a lock of rank a was held while rank b was acquired" has been observed.
/// Guarded by a raw std::mutex, deliberately not a util::Mutex — the checker
/// must not recurse into itself, and this lock is a leaf held only inside
/// the note_* functions.
std::mutex graph_mutex;
uint32_t edges[kRanks];  // zero-initialized

/// The ranks this thread currently holds, in acquisition order.  Tracked
/// per-thread, so concurrent holders of the same rank (cache stripes under
/// different threads) never interact.  A plain vector: the stack is at most
/// a handful deep, and the checker only runs in Debug builds.
thread_local std::vector<LockRank> held;

/// Is `to` reachable from `from` following observed edges?  Iterative DFS
/// over at most kRanks nodes; called with graph_mutex held.
bool reachable(size_t from, size_t to) {
  uint32_t visited = 0;
  uint32_t frontier = edges[from];
  while (frontier != 0) {
    if ((frontier >> to) & 1u) return true;
    visited |= frontier;
    uint32_t next = 0;
    for (size_t node = 0; node < kRanks; ++node) {
      if ((frontier >> node) & 1u) next |= edges[node];
    }
    frontier = next & ~visited;
  }
  return false;
}

}  // namespace

void note_acquire(LockRank rank) {
  if (rank == LockRank::none) return;
  const size_t r = static_cast<size_t>(rank);
  {
    const std::lock_guard<std::mutex> lock(graph_mutex);
    for (const LockRank held_rank : held) {
      const size_t h = static_cast<size_t>(held_rank);
      if (held_rank == rank) {
        std::fprintf(stderr,
                     "lock-order violation: thread acquires a second lock of "
                     "rank '%s' while already holding one (same-rank nesting "
                     "has no defined order)\n",
                     lock_rank_name(rank));
        MIGHTY_ASSERT(!"lock-order inversion: same-rank nesting");
      }
      // Adding h -> r: if r already reaches h, some thread acquired these
      // ranks in the opposite nesting — the classic ABBA deadlock shape.
      if (reachable(r, h)) {
        std::fprintf(stderr,
                     "lock-order inversion: acquiring '%s' while holding "
                     "'%s', but the opposite order was observed before "
                     "(deadlock potential; see docs/concurrency.md)\n",
                     lock_rank_name(rank), lock_rank_name(held_rank));
        MIGHTY_ASSERT(!"lock-order inversion: cycle in acquisition graph");
      }
      edges[h] |= 1u << r;
    }
  }
  held.push_back(rank);
}

void note_release(LockRank rank) {
  if (rank == LockRank::none) return;
  // Out-of-order release is legal (unique_lock-style juggling), so remove
  // the most recent matching entry rather than popping the top.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == rank) {
      held.erase(std::next(it).base());
      return;
    }
  }
  MIGHTY_ASSERT(!"lock-order tracking: released a rank this thread does not hold");
}

bool observed(LockRank before, LockRank after) {
  const std::lock_guard<std::mutex> lock(graph_mutex);
  return (edges[static_cast<size_t>(before)] >>
          static_cast<size_t>(after)) & 1u;
}

}  // namespace lock_order

#endif  // MIGHTY_LOCK_ORDER_CHECKS

}  // namespace mighty::util
