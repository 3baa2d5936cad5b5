#include "exact/database.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"

namespace mighty::exact {

Database Database::build(const SynthesisOptions& options) {
  Database db;
  const auto classes = npn::enumerate_classes(4);
  for (const auto& rep : classes) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = synthesize_minimum_mig(rep, options);
    if (result.status != SynthesisStatus::success) {
      throw std::runtime_error("database build failed for class 0x" + rep.to_hex());
    }
    DatabaseEntry entry;
    entry.representative = rep;
    entry.chain = result.chain;
    for (const uint64_t c : result.conflicts_per_step) entry.conflicts += c;
    entry.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    db.index_.emplace(rep.bits(), db.entries_.size());
    db.entries_.push_back(std::move(entry));
  }
  return db;
}

void Database::save(const std::string& path) const {
  // Temp-file + atomic rename: a crash mid-write must not leave a truncated
  // database for the next load (which would silently trigger a full rebuild),
  // and a concurrent loader sees either the old or the new complete file.
  util::write_file_atomically(path, [this](std::ostream& os) {
    // max_digits10 makes build_seconds round-trip exactly; the default
    // precision (6 significant digits) was lossy.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "mighty-mig-npn4-db v1 " << entries_.size() << '\n';
    for (const auto& entry : entries_) {
      os << entry.representative.to_hex() << ' ' << entry.conflicts << ' '
         << entry.build_seconds << ' ' << entry.chain.to_string() << '\n';
    }
  });
}

std::optional<Database> Database::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  return load(is);
}

std::optional<Database> Database::load(std::istream& is) {
  std::string header;
  std::getline(is, header);
  std::istringstream hs(header);
  std::string magic, version;
  size_t count = 0;
  if (!(hs >> magic >> version >> count) || magic != "mighty-mig-npn4-db" ||
      version != "v1") {
    return std::nullopt;
  }
  Database db;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string hex;
    DatabaseEntry entry;
    if (!(ls >> hex >> entry.conflicts >> entry.build_seconds)) return std::nullopt;
    std::string rest;
    std::getline(ls, rest);
    try {
      entry.representative = tt::TruthTable::from_hex(4, hex);
      entry.chain = MigChain::from_string(rest);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    // Consistency check: the stored chain must realize the representative.
    if (entry.chain.simulate() != entry.representative) return std::nullopt;
    // A duplicate representative means a corrupt or hand-mangled file; the
    // old last-wins emplace kept the first entry in the index but leaked the
    // second into entries_ (and past the header count check).
    if (!db.index_.emplace(entry.representative.bits(), db.entries_.size()).second) {
      return std::nullopt;
    }
    db.entries_.push_back(std::move(entry));
  }
  if (db.entries_.size() != count) return std::nullopt;
  return db;
}

Database Database::load_or_build(const std::string& path, const SynthesisOptions& options) {
  if (auto db = load(path)) return std::move(*db);
  Database db = build(options);
  // Two processes that both missed now race to save.  The build takes
  // minutes, so a concurrent builder may have finished meanwhile: prefer its
  // completed file over overwriting it (the contents are equivalent, and
  // skipping the save avoids rename churn).  Saves themselves are atomic
  // renames, so even a genuine collision leaves a complete file.
  if (auto concurrent = load(path)) return std::move(*concurrent);
  db.save(path);
  return db;
}

namespace {

/// npn::canonize of every 4-input function, filled on first lookup.  Slot f
/// packs the canonization of the function with truth table f into one word:
///   bits  0-15  representative truth table
///   bits 16-23  transform.perm[0..3], two bits each
///   bits 24-27  transform.input_negations
///   bit  28     transform.output_negation
///   bit  31     valid (0 = not yet computed)
/// A hit is one relaxed load.  Canonization is pure, so threads that miss on
/// the same slot at once store the same word, and no other memory is
/// published through the slot: relaxed ordering is enough.
constexpr uint32_t kCanonValid = 1u << 31;
std::array<std::atomic<uint32_t>, 1u << 16> canon_table;

uint32_t pack(const npn::CanonResult& canon) {
  uint32_t word = static_cast<uint32_t>(canon.representative.bits());
  for (uint32_t i = 0; i < 4; ++i) word |= uint32_t{canon.transform.perm[i]} << (16 + 2 * i);
  word |= uint32_t{canon.transform.input_negations} << 24;
  word |= uint32_t{canon.transform.output_negation} << 28;
  return word | kCanonValid;
}

npn::CanonResult unpack(uint32_t word) {
  npn::CanonResult canon;
  canon.representative = tt::TruthTable(4, word & 0xffff);
  canon.transform.num_vars = 4;
  for (uint32_t i = 0; i < 4; ++i) {
    canon.transform.perm[i] = static_cast<uint8_t>((word >> (16 + 2 * i)) & 3);
  }
  canon.transform.input_negations = static_cast<uint8_t>((word >> 24) & 0xf);
  canon.transform.output_negation = ((word >> 28) & 1) != 0;
  return canon;
}

npn::CanonResult canonize4(const tt::TruthTable& f4) {
  std::atomic<uint32_t>& slot = canon_table[f4.bits()];
  uint32_t word = slot.load(std::memory_order_relaxed);
  if ((word & kCanonValid) == 0) {
    word = pack(npn::canonize(f4));
    slot.store(word, std::memory_order_relaxed);
  }
  return unpack(word);
}

}  // namespace

Database::LookupResult Database::lookup(const tt::TruthTable& f) const {
  const auto f4 = f.num_vars() < 4 ? f.extend(4) : f;
  if (f4.num_vars() != 4) {
    throw std::invalid_argument("database lookup requires at most 4 variables");
  }
  const auto canon = canonize4(f4);
  const auto it = index_.find(canon.representative.bits());
  if (it == index_.end()) {
    throw std::logic_error("NPN class missing from database");  // cannot happen when complete
  }
  return {&entries_[it->second], canon.transform};
}

mig::Signal Database::instantiate(const tt::TruthTable& f, mig::Mig& mig,
                                  const std::vector<mig::Signal>& leaves) const {
  return lookup(f).class_chain().instantiate(mig, leaves);
}

std::vector<uint32_t> Database::size_histogram() const {
  std::vector<uint32_t> histogram;
  for (const auto& entry : entries_) {
    const uint32_t size = entry.chain.size();
    if (histogram.size() <= size) histogram.resize(size + 1, 0);
    ++histogram[size];
  }
  return histogram;
}

std::string default_database_path() {
  // One switch for every tool, bench and test: point MIGHTY_DB_PATH at a
  // prebuilt database so repeated runs never re-synthesize the 222 classes.
  if (const char* env = std::getenv("MIGHTY_DB_PATH"); env != nullptr && *env != '\0') {
    return env;
  }
  return "data/mig_npn4.db";
}

}  // namespace mighty::exact
