#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exact/chain.hpp"
#include "exact/exact_synthesis.hpp"
#include "npn/npn.hpp"
#include "tt/truth_table.hpp"

/// \file database.hpp
/// \brief The precomputed database of minimum MIGs for all 222 NPN classes of
/// 4-variable functions (paper Sec. IV, V-A).
///
/// Functional hashing replaces 4-input cuts with precomputed minimum
/// representations; since MIG size is invariant under input/output negation
/// and input permutation, one minimum chain per NPN class suffices.

namespace mighty::exact {

struct DatabaseEntry {
  tt::TruthTable representative;  ///< NPN class representative (4 variables)
  MigChain chain;                 ///< minimum-size chain for the representative
  /// Conflicts spent across the size loop when the entry was built.
  uint64_t conflicts = 0;
  /// Wall-clock seconds spent building the entry.
  double build_seconds = 0.0;
};

/// The entries and their index, nothing else: lookups canonize through one
/// process-wide table (database.cpp), so a Database copies and moves as a
/// plain value.
class Database {
public:
  /// Builds the database by exact synthesis over all 222 class
  /// representatives.  `options` tunes the underlying synthesis (budget,
  /// encoding).  Throws std::runtime_error if any class fails to synthesize
  /// within the options' limits.
  static Database build(const SynthesisOptions& options = {});

  /// Loads from the text file written by save(); returns std::nullopt if the
  /// file does not exist or is malformed.
  static std::optional<Database> load(const std::string& path);
  /// Same validation over an already-open stream (in-memory buffers, fuzz
  /// harnesses, sockets); a stream is never "missing", only malformed.
  static std::optional<Database> load(std::istream& is);

  /// Loads `path` if present, otherwise builds and saves to `path`.
  static Database load_or_build(const std::string& path,
                                const SynthesisOptions& options = {});

  void save(const std::string& path) const;

  /// Looks up the minimum chain for an arbitrary function of up to 4
  /// variables.  Returns the NPN canonization result alongside the entry, so
  /// the caller can instantiate the stored chain with transformed leaves:
  ///   f == apply(entry.representative, inverse(transform)).
  /// Thread-safe and lock-free: the canonization of each of the 2^16
  /// functions is computed on its first lookup in the process and read back
  /// from a table of atomic words ever after.
  struct LookupResult {
    const DatabaseEntry* entry;
    npn::Transform transform;  ///< canonizing transform of the query

    /// The entry's chain read as the queried function.
    ClassChain class_chain() const { return {&entry->chain, npn::inverse(transform)}; }
  };
  LookupResult lookup(const tt::TruthTable& f) const;

  /// Builds f on top of the given leaf signals inside `mig`, using the stored
  /// minimum chain, honoring the NPN transform.  `leaves[i]` drives variable
  /// i of f.  Unused leaves are ignored.
  mig::Signal instantiate(const tt::TruthTable& f, mig::Mig& mig,
                          const std::vector<mig::Signal>& leaves) const;

  const std::vector<DatabaseEntry>& entries() const { return entries_; }
  size_t num_entries() const { return entries_.size(); }

  /// Histogram of entry sizes (index = number of majority gates); reproduces
  /// the "Classes" column of Table I.
  std::vector<uint32_t> size_histogram() const;

private:
  std::vector<DatabaseEntry> entries_;
  std::unordered_map<uint64_t, size_t> index_;  ///< representative bits -> entry
};

/// Default on-disk location used by tools, benches and tests: the
/// MIGHTY_DB_PATH environment variable when set, else "data/mig_npn4.db"
/// relative to the current directory.
std::string default_database_path();

}  // namespace mighty::exact
