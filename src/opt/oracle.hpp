#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exact/database.hpp"
#include "mig/mig.hpp"
#include "opt/oracle_counts.hpp"
#include "tt/truth_table.hpp"
#include "util/mutex.hpp"

/// \file oracle.hpp
/// \brief Uniform replacement oracle for the rewriting drivers.
///
/// Answers "what is the minimum MIG for this cut function, and how deep is
/// each input in it?" for functions of up to five variables.  Both paths
/// hash by NPN class (paper Sec. II-D): the function is canonized, the class
/// representative's chain is looked up, and the answer reads that chain
/// through the function's transform (exact::ClassChain):
///
///  * support <= 4: the precomputed NPN-4 database (exact minima, instant);
///  * support == 5: on-demand bounded exact synthesis of the class
///    representative, cached once per NPN-5 class.  The paper notes that
///    enumerating all NPN classes beyond four variables is impractical and
///    that 5-input rewriting works on a dynamically discovered subset
///    (Sec. IV, ref. [9]); this oracle is that mechanism.  Synthesis is
///    budgeted in SAT conflicts per decision problem and in gate count:
///    `max_gates` caps every search, and a query may pass a tighter size
///    bound — a replacement only pays when it is smaller than the cut's
///    cone, so the top-down drivers stop the size loop where no chain could
///    win.  A search stopped by such a bound is cached as *open* ("no chain
///    below L gates") and resumed at L by a later query with a larger bound,
///    so every (class, gate count) decision problem is solved at most once.
///    Every search starts at the class's size lower bound
///    (`exact::size_lower_bound`: cofactors, variable identifications and
///    first-gate elimination, read off the NPN-4 database), skipping gate
///    counts that cannot succeed, and a query bounded below it is answered
///    without SAT.  The other half is constructive: before the SAT call the
///    representative's Theorem-2 chain (`exact::shannon_chain`) is built,
///    and when it has exactly as many gates as the search's start it is a
///    proven minimum, cached as an ordinary success with 0 conflicts.  SAT
///    runs only for the classes where that chain is larger, and without
///    the encoding's support-usage clause (`exact::EncodeOptions`): the
///    function constraint already forces every input to be read, and on
///    cut functions the clause only slows the solver down.  Failures
///    (timeouts, or no chain within max_gates) are cached as "no
///    replacement" together with the budget that produced them, and are
///    re-attempted when queried under a strictly larger conflict budget.
///    Chain, open bound, failure and size bound are all facts about the
///    class, so one member's search serves every other member.  The
///    representative is synthesized rather than the member that happens to
///    ask first, so the cached chain does not depend on which of two
///    concurrent shards arrives first.
///
/// The 5-input cache persists to disk (save_cache / load_cache): a versioned
/// text file alongside the NPN-4 database, one line per class — hex truth
/// table of the representative, record kind (ok / fail / open), the
/// synthesis budget in force, the conflicts spent, then the chain of an `ok`
/// line or the lower bound of an `open` line.  read_cache_file is the one
/// reader of that file and lists its rules; load_cache and the artifact
/// linter (check::lint_cache_file) both go through it.  Loading unions the
/// file with the in-memory cache (success beats failure beats open; among
/// failures the larger budget wins, among open entries the larger lower
/// bound), so sessions warm-start across processes the same way a batch run
/// warm-starts across networks.  Dirty-entry tracking lets save_cache skip
/// the write when nothing changed since the last save/load.
///
/// The oracle is shared by every shard of a parallel pass, so query() and
/// instantiate() are safe to call concurrently: the 5-input cache is striped
/// by class (each stripe a mutex-guarded map, with synthesis performed under
/// the stripe lock so a decision problem is solved exactly once no matter
/// how many shards race for it), and the accounting is atomic.  Because
/// answers are a pure function of the queried function's class, its
/// transform and the size bound, and the decision problems solved for a
/// class are the same whichever query reaches them first, cache behavior
/// and every counter are identical whether one thread queries or eight do.

namespace mighty::opt {

struct OracleParams {
  /// Allow on-demand 5-input synthesis (otherwise only the 4-input database).
  bool enable_five_input = false;
  /// Conflict budget per synthesis decision problem: -1 (unlimited) or >= 1,
  /// the budgets a cache file can record (see read_cache_file).
  int64_t synthesis_conflict_limit = 20000;
  /// Gate cap for on-demand synthesis.  A query's own size bound (the
  /// caller's "only useful if smaller than the cone") tightens it further.
  uint32_t max_gates = 9;
};

/// What the 5-input cache knows about one NPN class, keyed by the class
/// representative; `chain` realizes the representative.  `budget` is the
/// conflict limit in force when the record was produced: -1 means unlimited
/// — for a failure that encodes "proved absent within max_gates, never
/// retry", while a finite budget on a failure marks a timeout that a later
/// query under a larger budget re-attempts.  `lower` > 0 marks an open
/// record: no chain has fewer than `lower` gates, and the search stopped
/// there.  `conflicts` is the solver effort spent producing the record
/// (summed over decision problems, accumulated across retries and
/// resumptions).
struct CacheRecord {
  std::optional<exact::MigChain> chain;  ///< nullopt = no replacement (yet)
  int64_t budget = 0;
  uint64_t conflicts = 0;
  uint32_t lower = 0;

  bool open() const { return !chain && lower > 0; }
  /// Merge rank of two records of one class: success beats failure beats
  /// open; between failures the larger budget wins, between open records
  /// the larger lower bound.  On a tie the holder stays — between two
  /// successes too, since both are proven minima of the same class.
  bool outranks(const CacheRecord& holder) const;
};

/// One thing wrong with a cache file, at a 1-based line (the header is 1).
struct CacheProblem {
  enum class Kind {
    header,         ///< bad magic or version, or an unreadable header
    entry,          ///< malformed, duplicate or inconsistent line
    not_canonical,  ///< key not its class representative, or a chain not
                    ///< in its canonical serialization
    budget,         ///< fail/open budget neither -1 nor >= 1
    count,          ///< the header's count differs from the lines that follow
  };
  Kind kind;
  uint32_t line;
  std::string message;
};

/// A cache file as read_cache_file sees it: the records of its valid lines
/// in file order, keyed by representative bits, and every problem.
struct CacheFile {
  std::vector<std::pair<uint64_t, CacheRecord>> records;
  std::vector<CacheProblem> problems;
};

/// The one reader of the 5-input cache file.  Its rules:
///
///  * the header is `mighty-mig-5cut-cache v3 <count>`; any other magic or
///    version is a header problem and ends the read, and `<count>` equals
///    the number of non-blank lines that follow;
///  * a line is `<key> <kind> <budget> <conflicts> ...`; the key is exactly
///    8 hex digits, appears once, and is its own NPN class representative;
///  * an `ok` line ends with a 5-variable chain that realizes the key,
///    written exactly as MigChain::to_string writes it;
///  * a `fail` line ends after the conflicts, and an `open` line after one
///    lower bound between 2 (the support bound) and `max_gates` (a search
///    that reaches the cap ends in ok or fail, never open);
///  * a `fail` or `open` line records a budget of -1 or >= 1: failures are
///    retried under a strictly larger budget, so 0 or below would freeze a
///    class whose search never ran.
///
/// Reading goes on past a bad line, so every problem is listed; a line
/// with a problem yields no record.
CacheFile read_cache_file(std::istream& is, uint32_t max_gates);

class ReplacementOracle {
public:
  /// Throws std::invalid_argument for a conflict budget outside -1 / >= 1.
  ReplacementOracle(const exact::Database& db, const OracleParams& params = {});

  struct Info {
    uint32_t size = 0;   ///< gates of the minimum (or best-known) realization
    uint32_t depth = 0;  ///< its depth
    /// Longest path from cut-function variable v to the output; -1 if unused.
    std::vector<int> input_depths;
  };

  /// No size bound: the minimum, however large (up to max_gates).
  static constexpr uint32_t kUnbounded = UINT32_MAX;

  /// Returns the replacement structure for a cut function over at most five
  /// variables (in cut-leaf order), or std::nullopt if no structure is known
  /// within the budgets.  `max_size` is the largest structure the caller
  /// can use: 4-input lookups are instant and answer regardless, while a
  /// 5-input query runs only the decision problems up to it and returns
  /// std::nullopt when the minimum is larger.  One whose bound is below the
  /// support bound (two gates for five inputs) or the class's size
  /// lower bound returns without changing the cache, unless a cached chain
  /// fits it: it is neither a hit nor a synthesis, whether it runs before or
  /// after the query that fills the cache.  Thread-safe.  When `tally` is
  /// given, the call's counter increments are mirrored into it.
  std::optional<Info> query(const tt::TruthTable& f, OracleTally* tally = nullptr,
                            uint32_t max_size = kUnbounded);

  /// Builds the replacement in `mig`; `leaves[v]` drives variable v of f.
  /// Must only be called after a successful query for the same function.
  /// Thread-safe as long as no other thread touches the same `mig`.
  mig::Signal instantiate(const tt::TruthTable& f, mig::Mig& mig,
                          const std::vector<mig::Signal>& leaves,
                          OracleTally* tally = nullptr);

  // --- persistence of the 5-input cache -------------------------------------

  /// Aggregate view of the 5-input cache for reporting.
  struct CacheStats {
    size_t entries = 0;    ///< cached NPN classes (successes + failures + open)
    size_t successes = 0;  ///< classes with a known replacement chain
    size_t failures = 0;   ///< classes cached as "no replacement"
    size_t open = 0;       ///< classes whose search a size bound stopped
    size_t dirty = 0;      ///< entries not yet persisted by save_cache
  };
  CacheStats cache_stats() const;

  enum class CacheLoadStatus {
    loaded,    ///< file parsed and merged
    missing,   ///< no file at `path` (a fresh cache; not an error)
    malformed  ///< rejected: read_cache_file reported a problem
  };
  struct CacheLoadResult {
    CacheLoadStatus status = CacheLoadStatus::missing;
    size_t entries = 0;  ///< records in the file
    size_t adopted = 0;  ///< entries that changed or extended the in-memory cache
  };

  /// Merges the cache file at `path` into the in-memory 5-input cache.  The
  /// file is read wholesale before any merge: a file that read_cache_file
  /// (under this oracle's `max_gates`) finds any problem with is rejected
  /// without touching the cache.
  /// Merge semantics: unknown classes are adopted; a success on disk
  /// replaces an in-memory failure or open entry (never the reverse), and a
  /// failure replaces an open entry; between two failures the larger budget
  /// wins, between two open entries the larger lower bound; between two
  /// successes the in-memory chain is kept (both are proven minima, and
  /// replacing it would dangle outstanding pointers).  Adopted entries are
  /// clean; surviving in-memory entries keep their dirty bit.  Thread-safe.
  CacheLoadResult load_cache(const std::string& path);
  /// Same validation and merge over an already-open stream (in-memory
  /// buffers, fuzz harnesses); a stream is never "missing", only malformed.
  CacheLoadResult load_cache(std::istream& is);

  /// Persists the whole 5-input cache to `path` (crash-safe: temp file +
  /// atomic rename; entries sorted by representative so the file is
  /// deterministic).  Skipped entirely — returning 0 — when no entry is
  /// dirty and `path` is known to hold exactly this cache already (the last
  /// successful save or whole-file load went there), so repeated autosaves
  /// of an unchanged cache never rewrite the file while saves to a new
  /// location always write.  Returns the number of entries written and
  /// marks them clean.  Thread-safe.
  size_t save_cache(const std::string& path);

  /// Classes whose first decision problem a query started / queries that
  /// reached a timeout or exhausted max_gates (for reporting).
  uint64_t synthesized_count() const { return read(totals_.synthesized); }
  uint64_t synthesis_failures() const { return read(totals_.failures); }
  /// Searches answered by the Theorem-2 chain, which met the size lower
  /// bound and so needed no SAT.
  uint64_t constructed_count() const { return read(totals_.constructed); }

  /// Query accounting across the oracle's lifetime (flows share one oracle
  /// over many passes, so these measure cross-pass cache effectiveness).
  uint64_t queries() const { return read(totals_.queries); }
  /// Queries answered with a replacement structure (4-input lookups always
  /// hit; 5-input queries hit when cached or synthesized within budget).
  uint64_t answered() const { return read(totals_.answered); }
  /// 5-input queries that found their class cached — answered from the
  /// cache, or resuming an open entry's search.
  uint64_t cache5_hits() const { return read(totals_.cache5_hits); }
  /// SAT conflicts spent on on-demand synthesis.
  uint64_t sat_conflicts() const { return read(totals_.conflicts); }

private:
  /// Shared core of both load_cache overloads; an empty `path` means the
  /// stream has no on-disk identity for the clean-skip bookkeeping.
  CacheLoadResult load_cache_stream(std::istream& is, const std::string& path);

  /// A class record plus whether it diverged from the last save/load.
  struct CacheEntry : CacheRecord {
    bool dirty = true;
  };

  static uint64_t read(const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  /// One lock-striped slice of the 5-input cache, keyed by class
  /// representative.  16 stripes keep cross-shard contention negligible
  /// while a per-stripe lock makes "look up or synthesize" a single atomic
  /// step for the whole class.
  struct CacheStripe {
    mutable util::Mutex mutex{util::LockRank::oracle_stripe};  ///< cache_stats() locks from const
    std::unordered_map<uint64_t, CacheEntry> map MIGHTY_GUARDED_BY(mutex);
  };
  static constexpr size_t kCacheStripes = 16;

  CacheStripe& stripe_for(uint64_t key) {
    return cache5_[(key * 0x9e3779b97f4a7c15ull) >> 60 & (kCacheStripes - 1)];
  }

  /// The chain of f5's NPN class read through f5's transform, or a null
  /// chain when no chain of at most `max_size` gates is known or found.
  /// Chains are created once and only ever replaced by a success overwriting
  /// a failure or open entry (never erased), and unordered_map never moves
  /// its elements, so the returned pointer stays valid after the stripe lock
  /// is released.
  exact::ClassChain five_input_chain(const tt::TruthTable& f5, uint32_t max_size,
                                     OracleTally* tally);

  const exact::Database& db_;
  OracleParams params_;
  std::array<CacheStripe, kCacheStripes> cache5_;
  /// Path whose on-disk contents are known to equal the in-memory cache —
  /// set by a successful save, or by a load that filled an empty cache
  /// wholesale; cleared when a load changes memory without that guarantee.
  /// Together with the dirty bits this gates save_cache's clean-skip, so a
  /// save to a *different* path never silently keeps a stale file.
  std::string persisted_path_ MIGHTY_GUARDED_BY(persist_mutex_);
  util::Mutex persist_mutex_{util::LockRank::oracle_persist};
  /// Lifetime accounting: every counter bump lands here as well as in the
  /// caller's tally.
  OracleTally totals_;
};

}  // namespace mighty::opt
