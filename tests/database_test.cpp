#include "exact/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "npn/npn.hpp"
#include "test_util.hpp"

/// The NPN-4 database as a value: its lock-free canonization table agrees
/// with npn::canonize, stays consistent under concurrent lookups, and
/// copies/moves answer from their own entries.  Then file I/O: crash-safe
/// (atomic) saves, lossless build_seconds round trips, and rejection of
/// corrupted files.  Loads the shared prebuilt database (npndb fixture) and
/// re-saves it into a scratch directory, so no synthesis runs here.

namespace mighty::exact {
namespace {

namespace fs = std::filesystem;

const Database& db() {
  static const Database instance = Database::load_or_build(default_database_path());
  return instance;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

void write_lines(const fs::path& path, const std::vector<std::string>& lines) {
  std::ofstream os(path);
  for (const auto& line : lines) os << line << '\n';
}

using testutil::ScratchDir;

/// lookup(f) against the unmemoized reference, twice: the first call finds
/// the table slot empty (no earlier test in this binary looks these
/// functions up) and fills it, the second reads it back.
void expect_lookup_matches_canonize(const tt::TruthTable& f4) {
  const auto expected = npn::canonize(f4);
  for (const char* slot : {"cold", "warm"}) {
    const auto result = db().lookup(f4);
    EXPECT_EQ(result.entry->representative, expected.representative)
        << "f=0x" << f4.to_hex() << " (" << slot << ")";
    EXPECT_EQ(result.transform, expected.transform)
        << "f=0x" << f4.to_hex() << " (" << slot << ")";
  }
}

TEST(DatabaseLookupTest, MatchesCanonizeColdAndWarm) {
  for (uint64_t bits = 0; bits < (1u << 16); bits += 7) {
    expect_lookup_matches_canonize(tt::TruthTable(4, bits));
  }
  for (uint32_t n = 0; n <= 3; ++n) {
    for (uint64_t bits = 0; bits < (uint64_t{1} << (1u << n)); ++bits) {
      const tt::TruthTable f(n, bits);
      expect_lookup_matches_canonize(f.extend(4));
      // A narrower query is extended to four variables first.
      EXPECT_EQ(db().lookup(f).transform, npn::canonize(f.extend(4)).transform);
    }
  }
}

TEST(DatabaseLookupTest, ConcurrentLookupsAgreeWithSingleThreaded) {
  // Functions none of the other tests look up, so the threads race on empty
  // slots (labelled `parallel`: the ThreadSanitizer leg covers the atomics).
  std::vector<tt::TruthTable> functions;
  for (uint64_t bits = 1; bits < (1u << 16); bits += 7) functions.emplace_back(4, bits);
  std::shuffle(functions.begin(), functions.end(), std::mt19937(13));
  functions.resize(4096);

  const Database& shared = db();
  using Results = std::vector<Database::LookupResult>;
  const auto lookup_all = [&](Results& out) {
    for (const auto& f : functions) out.push_back(shared.lookup(f));
  };
  std::vector<Results> per_thread(3);
  std::vector<std::thread> threads;
  for (auto& results : per_thread) threads.emplace_back(lookup_all, std::ref(results));
  for (auto& thread : threads) thread.join();

  Results single;
  lookup_all(single);
  for (const auto& results : per_thread) {
    ASSERT_EQ(results.size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(results[i].entry, single[i].entry) << "f=0x" << functions[i].to_hex();
      EXPECT_EQ(results[i].transform, single[i].transform) << "f=0x" << functions[i].to_hex();
    }
  }
}

TEST(DatabaseLookupTest, CopiesAndMovesAnswerFromTheirOwnEntries) {
  const auto owns = [](const Database& d, const DatabaseEntry* entry) {
    return std::any_of(d.entries().begin(), d.entries().end(),
                       [&](const DatabaseEntry& e) { return &e == entry; });
  };
  const std::vector<tt::TruthTable> functions{
      tt::TruthTable(4, 0x6996), tt::TruthTable(4, 0x1ee1), tt::TruthTable(4, 0x0017)};
  Database original = db();
  for (const auto& f : functions) ASSERT_TRUE(owns(original, original.lookup(f).entry));

  const Database copy = original;
  const Database moved = std::move(original);
  for (const auto& f : functions) {
    const auto from_copy = copy.lookup(f);
    const auto from_moved = moved.lookup(f);
    EXPECT_TRUE(owns(copy, from_copy.entry)) << "f=0x" << f.to_hex();
    EXPECT_TRUE(owns(moved, from_moved.entry)) << "f=0x" << f.to_hex();
    EXPECT_EQ(from_copy.entry->representative, from_moved.entry->representative);
    EXPECT_EQ(from_copy.transform, from_moved.transform);
  }
}


TEST(DatabaseIoTest, SaveLoadRoundTripIsExact) {
  ScratchDir scratch("mighty_db_roundtrip");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  const auto loaded = Database::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_entries(), db().num_entries());
  for (size_t i = 0; i < db().num_entries(); ++i) {
    const auto& a = db().entries()[i];
    const auto& b = loaded->entries()[i];
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.chain, b.chain);
    EXPECT_EQ(a.conflicts, b.conflicts);
    // max_digits10 precision: the stored wall time round-trips bit-exactly
    // (the old default precision truncated to 6 significant digits).
    EXPECT_EQ(a.build_seconds, b.build_seconds);
  }
  // Saving the loaded copy must reproduce the file byte for byte.
  const auto path2 = (scratch.dir / "db2.txt").string();
  loaded->save(path2);
  EXPECT_EQ(read_file(path), read_file(path2));
}

TEST(DatabaseIoTest, SaveIsAtomicAndLeavesNoTemporaries) {
  ScratchDir scratch("mighty_db_atomic");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  db().save(path);  // overwriting an existing file must also work
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "temp files left behind in " << scratch.dir;
  EXPECT_TRUE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, DuplicateRepresentativeLineRejected) {
  ScratchDir scratch("mighty_db_dup");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 2u);
  // Duplicate the first entry line and fix up the header count so only the
  // duplication itself can be the reason for rejection.
  lines.push_back(lines[1]);
  std::istringstream hs(lines[0]);
  std::string magic, version;
  size_t count = 0;
  hs >> magic >> version >> count;
  lines[0] = magic + " " + version + " " + std::to_string(count + 1);
  write_lines(path, lines);
  EXPECT_FALSE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, TruncatedFileRejected) {
  ScratchDir scratch("mighty_db_trunc");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  const auto full = read_file(path);
  // Cut mid-file: either a short entry line or a count mismatch, both of
  // which a crashed in-place writer used to leave behind.
  std::ofstream os(path, std::ios::trunc);
  os << full.substr(0, full.size() / 2);
  os.close();
  EXPECT_FALSE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, LoadOrBuildPrefersExistingFile) {
  ScratchDir scratch("mighty_db_existing");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  // With a valid file present, load_or_build must not synthesize anything;
  // a rebuild of all 222 classes would blow the test timeout.
  const Database loaded = Database::load_or_build(path);
  EXPECT_EQ(loaded.num_entries(), db().num_entries());
}

}  // namespace
}  // namespace mighty::exact
