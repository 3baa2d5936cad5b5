#include "opt/oracle.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "exact/bounds.hpp"
#include "exact/exact_synthesis.hpp"
#include "opt/rewrite.hpp"
#include "util/atomic_file.hpp"

namespace mighty::opt {

namespace {

constexpr const char* kCacheMagic = "mighty-mig-5cut-cache";
/// Keys are NPN class representatives.
constexpr const char* kCacheVersion = "v3";

/// k gates reach at most 2k + 1 inputs, so a function of full 5-variable
/// support needs at least two: the first decision problem worth solving.
constexpr uint32_t kSupportBound = 2;

/// Bumps a lifetime counter and its optional per-scope mirror.
void bump(OracleTally& totals, OracleTally* tally,
          std::atomic<uint64_t> OracleTally::* member, uint64_t amount = 1) {
  (totals.*member).fetch_add(amount, std::memory_order_relaxed);
  if (tally != nullptr) (tally->*member).fetch_add(amount, std::memory_order_relaxed);
}

/// Orders conflict budgets with -1 (unlimited) on top, so "retry when
/// queried under a strictly larger budget" and "the larger failure budget
/// wins a merge" share one comparison.
int64_t budget_rank(int64_t budget) {
  return budget < 0 ? std::numeric_limits<int64_t>::max() : budget;
}

uint64_t total_conflicts(const exact::SynthesisResult& result) {
  uint64_t total = 0;
  for (const uint64_t c : result.conflicts_per_step) total += c;
  return total;
}

}  // namespace

bool CacheRecord::outranks(const CacheRecord& holder) const {
  if (chain) return !holder.chain;
  if (!open()) {
    return !holder.chain &&
           (holder.open() || budget_rank(budget) > budget_rank(holder.budget));
  }
  return holder.open() && lower > holder.lower;
}

ReplacementOracle::ReplacementOracle(const exact::Database& db,
                                     const OracleParams& params)
    : db_(db), params_(params) {
  // Every cache line records the budget, and the reader rejects any other:
  // an oracle running under one would write files it cannot load back.
  if (params.synthesis_conflict_limit == 0 || params.synthesis_conflict_limit < -1) {
    throw std::invalid_argument("synthesis_conflict_limit must be -1 or >= 1, got " +
                                std::to_string(params.synthesis_conflict_limit));
  }
}

exact::ClassChain ReplacementOracle::five_input_chain(const tt::TruthTable& f5,
                                                     uint32_t max_size, OracleTally* tally) {
  // No 5-input chain fits below the support bound: answer without touching
  // the cache, so such queries never count as hits or syntheses.
  if (max_size < kSupportBound) return {};
  const uint32_t last = std::min(max_size, params_.max_gates);
  // Every fact below is a fact about f5's NPN class: the search runs on the
  // representative, and the answer reads its chain through f5's transform.
  const auto canon = npn::canonize(f5);
  const tt::TruthTable& rep = canon.representative;
  const auto answer = [&canon](const exact::MigChain& chain) {
    return exact::ClassChain{&chain, npn::inverse(canon.transform)};
  };
  const uint64_t key = rep.bits();
  CacheStripe& stripe = stripe_for(key);
  // Synthesis runs under the stripe lock: concurrent queries for the same
  // class would otherwise both pay the SAT solver, and the hit/synthesis
  // counters would depend on thread interleaving.  Classes in other
  // stripes proceed unhindered.
  util::MutexLock lock(stripe.mutex);
  const auto it = stripe.map.find(key);
  if (it != stripe.map.end() && it->second.chain && it->second.chain->size() <= max_size) {
    bump(totals_, tally, &OracleTally::cache5_hits);
    return answer(*it->second.chain);
  }
  // Every other query returns nothing or runs a search; only these pay for
  // the size lower bound.  Like the support bound, a bound above the query's
  // limit answers it without touching the cache or any counter, whatever
  // the cache holds, so the counters do not depend on which query for a
  // class happens to run first.
  const uint32_t bound = exact::size_lower_bound(db_, rep);
  if (bound > last) return {};
  uint32_t first = std::max(kSupportBound, bound);
  bool resumed = false;
  if (it != stripe.map.end()) {
    const CacheEntry& cached = it->second;
    // A failure recorded under a smaller conflict budget is not an answer
    // for a query with a larger one — persisted caches would otherwise
    // freeze the failures of low-budget sessions forever; the retry starts
    // over.  An open entry resumes where its search stopped.  Everything
    // else is a plain hit.
    const bool retry = !cached.chain && !cached.open() &&
                       budget_rank(params_.synthesis_conflict_limit) >
                           budget_rank(cached.budget);
    if (!retry) {
      bump(totals_, tally, &OracleTally::cache5_hits);
      if (!cached.open() || cached.lower > last) return {};
      first = std::max(first, cached.lower);
      resumed = true;
    }
  }
  if (!resumed) bump(totals_, tally, &OracleTally::synthesized);

  // No chain has fewer than `first` gates, so a Theorem-2 chain of exactly
  // `first` gates is a minimum: the satisfiable problem needs no search.
  exact::SynthesisResult result;
  auto shannon = exact::shannon_chain(db_, rep);
  if (shannon.size() == first) {
    if (shannon.simulate() != rep) {
      throw std::logic_error("Shannon construction built a non-equivalent chain");
    }
    bump(totals_, tally, &OracleTally::constructed);
    result.status = exact::SynthesisStatus::success;
    result.chain = std::move(shannon);
  } else {
    exact::SynthesisOptions options;
    options.min_gates = first;
    options.max_gates = last;
    options.conflict_limit = params_.synthesis_conflict_limit;
    // The function constraint already forces every support variable to be
    // read, so the support clause prunes nothing; on these searches it only
    // slows the solver down.
    options.encode.support_usage = false;
    result = exact::synthesize_minimum_mig(rep, options);
  }
  const uint64_t conflicts = total_conflicts(result);
  bump(totals_, tally, &OracleTally::conflicts, conflicts);

  CacheEntry& entry = it != stripe.map.end() ? it->second : stripe.map[key];
  entry.conflicts += conflicts;  // retries and resumptions accumulate effort
  entry.budget = params_.synthesis_conflict_limit;
  entry.lower = 0;
  entry.dirty = true;
  if (result.status == exact::SynthesisStatus::success) {
    entry.chain = result.chain;
    return answer(*entry.chain);
  }
  if (result.status == exact::SynthesisStatus::exhausted && last < params_.max_gates) {
    // Every problem up to the query's bound came back UNSAT: not a failure,
    // just no chain small enough yet.  A later, larger bound resumes here.
    entry.lower = last + 1;
    return {};
  }
  bump(totals_, tally, &OracleTally::failures);
  // "exhausted" up to max_gates is a definitive no that no conflict budget
  // overturns; record it as an unlimited-budget failure so it is never
  // retried.  A timeout keeps the finite budget so a richer session can try
  // again.
  if (result.status == exact::SynthesisStatus::exhausted) entry.budget = -1;
  return {};
}

std::optional<ReplacementOracle::Info> ReplacementOracle::query(const tt::TruthTable& f,
                                                                OracleTally* tally,
                                                                uint32_t max_size) {
  bump(totals_, tally, &OracleTally::queries);
  // Size, depth and per-variable input depths of a class chain read as the
  // queried function; `vars[v]` is the query variable that variable v of the
  // chain's member stands for.
  const auto describe = [&f](const exact::ClassChain& chain,
                             const std::vector<uint32_t>& vars) {
    Info info;
    info.size = chain.chain->size();
    info.depth = chain.chain->depth();
    info.input_depths.assign(f.num_vars(), -1);
    const auto depths = chain_input_depths(*chain.chain);
    for (uint32_t i = 0; i < depths.size(); ++i) {
      if (depths[i] >= 0 && chain.leaf(i) < vars.size()) {
        info.input_depths[vars[chain.leaf(i)]] = depths[i];
      }
    }
    return info;
  };

  std::vector<uint32_t> old_vars;
  const auto g = f.shrink_to_support(old_vars);
  if (g.num_vars() <= 4) {
    bump(totals_, tally, &OracleTally::answered);
    return describe(db_.lookup(g.extend(4)).class_chain(), old_vars);
  }

  if (!params_.enable_five_input || f.num_vars() > 5) return std::nullopt;
  const auto chain = five_input_chain(f, max_size, tally);
  if (chain.chain == nullptr) return std::nullopt;
  bump(totals_, tally, &OracleTally::answered);
  return describe(chain, {0, 1, 2, 3, 4});
}

ReplacementOracle::CacheStats ReplacementOracle::cache_stats() const {
  CacheStats stats;
  for (const auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    stats.entries += stripe.map.size();
    // mighty-lint: allow(nondeterministic-iteration): pure counting — every entry contributes commutatively to the tallies, so visit order cannot reach the result
    for (const auto& [key, entry] : stripe.map) {
      (void)key;
      if (entry.chain) {
        ++stats.successes;
      } else if (entry.open()) {
        ++stats.open;
      } else {
        ++stats.failures;
      }
      if (entry.dirty) ++stats.dirty;
    }
  }
  return stats;
}

CacheFile read_cache_file(std::istream& is, uint32_t max_gates) {
  using Kind = CacheProblem::Kind;
  CacheFile file;
  const auto problem = [&file](Kind kind, uint32_t line, std::string message) {
    file.problems.push_back({kind, line, std::move(message)});
  };

  std::string header;
  std::getline(is, header);
  std::istringstream hs(header);
  std::string magic, version;
  size_t count = 0;
  if (!(hs >> magic >> version >> count) || magic != kCacheMagic || version != kCacheVersion) {
    problem(Kind::header, 1,
            "bad header \"" + header + "\" (expected \"" + kCacheMagic + ' ' + kCacheVersion +
                " <count>\")");
    return file;
  }

  std::unordered_set<uint64_t> seen;
  size_t lines = 0;
  std::string line;
  for (uint32_t number = 2; std::getline(is, line); ++number) {
    if (line.empty()) continue;
    ++lines;
    const size_t problems_before = file.problems.size();
    std::istringstream ls(line);
    std::string hex, kind;
    CacheRecord record;
    if (!(ls >> hex >> kind >> record.budget >> record.conflicts)) {
      problem(Kind::entry, number, "malformed line \"" + line + '"');
      continue;
    }
    // 5-variable truth tables are exactly 8 hex digits; from_hex would
    // silently mask a longer string onto the wrong function.
    if (hex.size() != 8) {
      problem(Kind::entry, number, "key must be 8 hex digits, got \"" + hex + '"');
      continue;
    }
    tt::TruthTable f(5);
    try {
      f = tt::TruthTable::from_hex(5, hex);
    } catch (const std::exception&) {
      problem(Kind::entry, number, "unparsable key \"" + hex + '"');
      continue;
    }
    if (!seen.insert(f.bits()).second) problem(Kind::entry, number, "duplicate key 0x" + hex);
    if (npn::canonize(f).representative != f) {
      problem(Kind::not_canonical, number,
              "key 0x" + hex + " is not its NPN class representative");
    }

    if (kind == "ok") {
      std::string rest;
      std::getline(ls, rest);
      try {
        record.chain = exact::MigChain::from_string(rest);
      } catch (const std::exception&) {
        problem(Kind::entry, number, "unparsable chain for 0x" + hex);
        continue;
      }
      if (record.chain->num_vars != 5 || record.chain->simulate() != f) {
        problem(Kind::entry, number, "chain does not realize key 0x" + hex);
        continue;
      }
      // The line must be exactly the chain's serialization: trailing
      // garbage would round-trip differently than it parsed.
      const auto start = rest.find_first_not_of(' ');
      if (start == std::string::npos || rest.substr(start) != record.chain->to_string()) {
        problem(Kind::not_canonical, number,
                "chain for 0x" + hex + " is not in canonical serialization");
      }
    } else if (kind == "fail" || kind == "open") {
      const bool open = kind == "open";
      const std::string what = open ? "open record" : "failure";
      if (open) {
        int64_t lower = 0;
        if (!(ls >> lower)) {
          problem(Kind::entry, number, what + " for 0x" + hex + " lacks its lower bound");
        } else if (lower < kSupportBound || lower > static_cast<int64_t>(max_gates)) {
          problem(Kind::entry, number,
                  what + " for 0x" + hex + " has lower bound " + std::to_string(lower) +
                      " (must be " + std::to_string(kSupportBound) + ".." +
                      std::to_string(max_gates) + ")");
        } else {
          record.lower = static_cast<uint32_t>(lower);
        }
      }
      std::string extra;
      if (ls >> extra) {
        problem(Kind::entry, number, "trailing tokens after " + what + " for 0x" + hex);
      }
      if (record.budget != -1 && record.budget < 1) {
        problem(Kind::budget, number,
                what + " for 0x" + hex + " recorded under budget " +
                    std::to_string(record.budget) + " (must be -1 or >= 1)");
      }
    } else {
      problem(Kind::entry, number, "unknown record kind \"" + kind + "\" for 0x" + hex);
    }
    if (file.problems.size() == problems_before) {
      file.records.emplace_back(f.bits(), std::move(record));
    }
  }
  if (lines != count) {
    problem(Kind::count, 1,
            "header promises " + std::to_string(count) + " entries, file has " +
                std::to_string(lines));
  }
  return file;
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache(const std::string& path) {
  std::ifstream is(path);
  if (!is) return {CacheLoadStatus::missing, 0, 0};
  return load_cache_stream(is, path);
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache(std::istream& is) {
  // A stream has no on-disk identity, so the clean-skip bookkeeping below
  // can never claim "persisted at path X" for it.
  return load_cache_stream(is, std::string());
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache_stream(
    std::istream& is, const std::string& path) {
  // Read the whole file before merging anything: a corrupted, truncated or
  // duplicate-carrying cache must be rejected without leaving a partially
  // merged in-memory state behind.
  auto file = read_cache_file(is, params_.max_gates);
  if (!file.problems.empty()) return {CacheLoadStatus::malformed, 0, 0};

  CacheLoadResult result{CacheLoadStatus::loaded, file.records.size(), 0};
  for (auto& [key, record] : file.records) {
    // Disk content is by definition persisted.
    CacheEntry disk{std::move(record), false};
    CacheStripe& stripe = stripe_for(key);
    util::MutexLock lock(stripe.mutex);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
      stripe.map.emplace(key, std::move(disk));
      ++result.adopted;
    } else if (disk.outranks(it->second)) {
      // Between two successes the in-memory chain stays: replacing it would
      // dangle the pointers five_input_chain hands out.
      it->second = std::move(disk);
      ++result.adopted;
    }
  }

  // Update what the clean-skip in save_cache may rely on.  Memory equals
  // the file exactly when every file entry was adopted and nothing else was
  // cached; a load that merely changed memory invalidates any previous
  // "path X holds this cache" claim, and a no-op load leaves it intact.
  size_t total = 0;
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    total += stripe.map.size();
  }
  {
    util::MutexLock lock(persist_mutex_);
    if (!path.empty() && result.adopted == result.entries && total == result.entries) {
      persisted_path_ = path;
    } else if (result.adopted > 0) {
      persisted_path_.clear();
    }
  }
  return result;
}

size_t ReplacementOracle::save_cache(const std::string& path) {
  // Snapshot under the stripe locks; entries sorted by truth table so the
  // file contents are deterministic regardless of hashing or thread
  // interleaving.  The write itself is crash-safe (temp file + rename), so
  // a reader — or a crash — never sees a truncated cache.
  std::map<uint64_t, CacheEntry> snapshot;
  size_t dirty = 0;
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    // mighty-lint: allow(nondeterministic-iteration): snapshot collection — the ordered map sorts by key, before anything order-sensitive reads it
    for (const auto& [key, entry] : stripe.map) {
      if (entry.dirty) ++dirty;
      snapshot.emplace(key, entry);
    }
  }
  // Dirty tracking: an autosave of a cache whose every entry already came
  // from (or went to) exactly this file must not rewrite it.  A different
  // target path always gets a write — its current contents are unknown and
  // skipping would silently keep a stale file there.
  {
    util::MutexLock lock(persist_mutex_);
    if (dirty == 0 && path == persisted_path_ && std::ifstream(path).good()) return 0;
  }
  util::write_file_atomically(path, [&snapshot](std::ostream& os) {
    os << kCacheMagic << ' ' << kCacheVersion << ' ' << snapshot.size() << '\n';
    for (const auto& [key, entry] : snapshot) {
      const auto f = tt::TruthTable(5, key);
      os << f.to_hex() << ' ' << (entry.chain ? "ok" : entry.open() ? "open" : "fail")
         << ' ' << entry.budget << ' ' << entry.conflicts;
      if (entry.chain) os << ' ' << entry.chain->to_string();
      if (entry.open()) os << ' ' << entry.lower;
      os << '\n';
    }
  });

  // Only now — after the rename succeeded — mark what was written as clean.
  // Entries mutated since the snapshot keep their dirty bit because their
  // content no longer matches the snapshot's.
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    // mighty-lint: allow(nondeterministic-iteration): per-entry dirty-bit clear — each entry is judged against the sorted snapshot independently of every other
    for (auto& [key, entry] : stripe.map) {
      const auto it = snapshot.find(key);
      if (it != snapshot.end() && it->second.chain == entry.chain &&
          it->second.budget == entry.budget && it->second.conflicts == entry.conflicts &&
          it->second.lower == entry.lower) {
        entry.dirty = false;
      }
    }
  }
  {
    util::MutexLock lock(persist_mutex_);
    persisted_path_ = path;
  }
  return snapshot.size();
}

mig::Signal ReplacementOracle::instantiate(const tt::TruthTable& f, mig::Mig& mig,
                                           const std::vector<mig::Signal>& leaves,
                                           OracleTally* tally) {
  std::vector<uint32_t> old_vars;
  const auto g = f.shrink_to_support(old_vars);
  if (g.num_vars() <= 4) {
    std::vector<mig::Signal> mapped(4, mig.get_constant(false));
    for (uint32_t i = 0; i < old_vars.size(); ++i) {
      mapped[i] = leaves[old_vars[i]];
    }
    return db_.instantiate(g.extend(4), mig, mapped);
  }
  const auto chain = five_input_chain(f, kUnbounded, tally);
  if (chain.chain == nullptr) {
    throw std::logic_error("instantiate called without a successful query");
  }
  return chain.instantiate(mig, leaves);
}

}  // namespace mighty::opt
