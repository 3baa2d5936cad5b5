#pragma once

#include <filesystem>
#include <ostream>
#include <random>
#include <string_view>
#include <vector>

#include "mig/mig.hpp"
#include "opt/oracle_counts.hpp"

/// Shared helpers for the test suite.

namespace mighty::opt {

/// gtest prints a mismatching oracle record counter by counter.
inline void PrintTo(const OracleCounts& counts, std::ostream* os) {
  for (const auto& field : kOracleCountFields) {
    *os << field.name << '=' << counts.*field.count << ' ';
  }
}

}  // namespace mighty::opt

namespace mighty::testutil {

/// A throwaway directory under the system temp root, recreated empty on
/// construction and removed on destruction.
struct ScratchDir {
  std::filesystem::path dir;
  explicit ScratchDir(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir); }
};

/// Builds a pseudo-random MIG with the given number of PIs and (attempted)
/// gates; gate fanins are random signals over already-created nodes, so the
/// result is a valid topologically ordered network.  Some creations may be
/// absorbed by structural hashing or the trivial rules.
inline mig::Mig random_mig(uint32_t num_pis, uint32_t num_gates, uint32_t num_pos,
                           uint32_t seed) {
  std::mt19937 rng(seed);
  mig::Mig m;
  std::vector<mig::Signal> pool;
  pool.push_back(m.get_constant(false));
  for (uint32_t i = 0; i < num_pis; ++i) pool.push_back(m.create_pi());

  for (uint32_t g = 0; g < num_gates; ++g) {
    auto pick = [&]() {
      const auto s = pool[rng() % pool.size()];
      return (rng() & 1) != 0 ? !s : s;
    };
    const auto s = m.create_maj(pick(), pick(), pick());
    pool.push_back(s);
  }
  for (uint32_t o = 0; o < num_pos; ++o) {
    const auto s = pool[pool.size() - 1 - (rng() % std::min<size_t>(pool.size(), 8))];
    m.create_po((rng() & 1) != 0 ? !s : s);
  }
  return m;
}

/// 64-bit FNV-1a: a stable fingerprint for pinning exact outputs.
struct Fnv1a {
  uint64_t value = 14695981039346656037ull;

  void add(std::string_view bytes) {
    for (const char c : bytes) {
      value ^= static_cast<unsigned char>(c);
      value *= 1099511628211ull;
    }
  }
  /// Little-endian bytes of `word`.
  void add(uint32_t word) {
    for (uint32_t i = 0; i < 4; ++i) {
      value ^= (word >> (8 * i)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
};

}  // namespace mighty::testutil
