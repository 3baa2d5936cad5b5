#include "exact/depth_table.hpp"

#include "util/assert.hpp"
#include <stdexcept>

namespace mighty::exact {

namespace {

constexpr uint16_t maj_bits(uint16_t a, uint16_t b, uint16_t c) {
  return static_cast<uint16_t>((a & b) | (a & c) | (b & c));
}

/// Subcube-emptiness oracle over a set of 16-bit functions: answers "does the
/// set contain a member matching (must-one mask, must-zero mask)?" in O(1)
/// after a 3^16 sum-over-subsets sweep.
class SubcubeOracle {
public:
  explicit SubcubeOracle(const std::vector<uint8_t>& member) {
    // Ternary digit i of a cube index: 0 = bit forced 0, 1 = forced 1,
    // 2 = free.  Cubes without free digits are points; replacing the lowest
    // free digit by 0/1 yields smaller indices, so one ascending sweep works.
    pow3_[0] = 1;
    for (int i = 1; i <= 16; ++i) pow3_[i] = pow3_[i - 1] * 3;
    table_.assign(pow3_[16], 0);

    // Points first: index of a point cube is sum over set bits of 3^i.
    for (uint32_t f = 0; f < member.size(); ++f) {
      if (!member[f]) continue;
      uint32_t index = 0;
      for (int i = 0; i < 16; ++i) {
        if ((f >> i) & 1) index += pow3_[i];
      }
      table_[index] = 1;
    }
    // Ascending sweep: for cubes with a free digit, combine the two halves.
    std::array<uint8_t, 16> digits{};
    for (uint32_t index = 0; index < pow3_[16]; ++index) {
      // Decode digits incrementally (count in base 3).
      if (index > 0) {
        int i = 0;
        while (digits[static_cast<size_t>(i)] == 2) {
          digits[static_cast<size_t>(i)] = 0;
          ++i;
        }
        ++digits[static_cast<size_t>(i)];
      }
      int free_digit = -1;
      for (int i = 0; i < 16; ++i) {
        if (digits[static_cast<size_t>(i)] == 2) {
          free_digit = i;
          break;
        }
      }
      if (free_digit < 0) continue;  // point, already set
      const uint32_t base = index - 2 * pow3_[free_digit];
      table_[index] =
          static_cast<uint8_t>(table_[base] | table_[base + pow3_[free_digit]]);
    }
  }

  bool nonempty(uint16_t must_one, uint16_t must_zero) const {
    MIGHTY_ASSERT((must_one & must_zero) == 0);
    uint32_t index = 0;
    for (int i = 0; i < 16; ++i) {
      const uint32_t digit = (must_one >> i) & 1 ? 1u : ((must_zero >> i) & 1 ? 0u : 2u);
      index += digit * pow3_[i];
    }
    return table_[index] != 0;
  }

private:
  std::array<uint32_t, 17> pow3_{};
  std::vector<uint8_t> table_;
};

/// The table's key domain: functions of up to 4 variables, extended to 4.
tt::TruthTable extend_to_4(const tt::TruthTable& f) {
  if (f.num_vars() > 4) {
    throw std::invalid_argument("depth table covers up to 4 variables");
  }
  return f.num_vars() < 4 ? f.extend(4) : f;
}

}  // namespace

DepthTable::DepthTable() {
  depth_.assign(kNumFunctions, kUnknown);
  decomposition_.assign(kNumFunctions, {0, 0, 0});

  // Depth 0: constants and (complemented) projections.
  std::vector<uint16_t> level_members;
  auto assign = [&](uint16_t f, uint8_t d) {
    if (depth_[f] == kUnknown) {
      depth_[f] = d;
      level_members.push_back(f);
    }
  };
  assign(0, 0);
  assign(0xffff, 0);
  for (uint32_t v = 0; v < 4; ++v) {
    const auto proj = static_cast<uint16_t>(tt::TruthTable::var_mask(v) & 0xffff);
    assign(proj, 0);
    assign(static_cast<uint16_t>(~proj), 0);
  }

  // Depth 1 and 2 by direct enumeration over the previous closure.
  std::vector<uint16_t> closure = level_members;
  uint64_t found = closure.size();
  for (uint8_t d = 1; d <= 2; ++d) {
    const std::vector<uint16_t> base = closure;
    level_members.clear();
    for (size_t i = 0; i < base.size(); ++i) {
      for (size_t j = i + 1; j < base.size(); ++j) {
        const uint16_t u = base[i] & base[j];
        const uint16_t x = base[i] ^ base[j];
        if (x == 0) continue;
        for (size_t k = j + 1; k < base.size(); ++k) {
          const auto f = static_cast<uint16_t>(u | (x & base[k]));
          if (depth_[f] == kUnknown) {
            depth_[f] = d;
            decomposition_[f] = {base[i], base[j], base[k]};
            level_members.push_back(f);
            ++found;
          }
        }
      }
    }
    closure.insert(closure.end(), level_members.begin(), level_members.end());
  }

  // Depth >= 3: reverse search per unknown function with the oracle.
  for (uint8_t d = 3; found < kNumFunctions && d < 16; ++d) {
    std::vector<uint8_t> member(kNumFunctions, 0);
    for (const uint16_t f : closure) member[f] = 1;
    const SubcubeOracle oracle(member);

    std::vector<uint16_t> next;
    for (uint32_t bits = 0; bits < kNumFunctions; ++bits) {
      if (depth_[bits] != kUnknown) continue;
      const auto f = static_cast<uint16_t>(bits);
      bool resolved = false;
      for (const uint16_t b : closure) {
        // f = <abc>: rows with b = 1 need f = a | c, rows with b = 0 need
        // f = a & c.  Fixing a then forces c on all but the "free" rows.
        const auto force1_a = static_cast<uint16_t>(~b & f);   // a = 1 (and c = 1)
        const auto force0_a = static_cast<uint16_t>(b & ~f);   // a = 0 (and c = 0)
        for (const uint16_t a : closure) {
          if ((a & force1_a) != force1_a || (a & force0_a) != 0) continue;
          const auto must1 = static_cast<uint16_t>(force1_a | (b & f & ~a));
          const auto must0 = static_cast<uint16_t>(force0_a | (~b & ~f & a));
          if (!oracle.nonempty(must1, must0)) continue;
          // Extract a concrete c for the witness decomposition.
          for (const uint16_t c : closure) {
            if ((c & must1) == must1 && (c & must0) == 0) {
              MIGHTY_ASSERT(maj_bits(a, b, c) == f);
              depth_[f] = d;
              decomposition_[f] = {a, b, c};
              resolved = true;
              break;
            }
          }
          MIGHTY_ASSERT(resolved);
          break;
        }
        if (resolved) break;
      }
      if (resolved) {
        next.push_back(f);
        ++found;
      }
    }
    closure.insert(closure.end(), next.begin(), next.end());
  }
  if (found != kNumFunctions) {
    throw std::logic_error("depth table incomplete");
  }
}

const DepthTable& DepthTable::instance() {
  static const DepthTable table;
  return table;
}

uint32_t DepthTable::depth(const tt::TruthTable& f) const {
  return depth_[extend_to_4(f).bits()];
}

RefLit DepthTable::build_witness(uint16_t bits, MigChain& chain) const {
  // Terminals.
  if (bits == 0) return make_ref_lit(0, false);
  if (bits == 0xffff) return make_ref_lit(0, true);
  for (uint32_t v = 0; v < 4; ++v) {
    const auto proj = static_cast<uint16_t>(tt::TruthTable::var_mask(v) & 0xffff);
    if (bits == proj) return make_ref_lit(1 + v, false);
    if (bits == static_cast<uint16_t>(~proj)) return make_ref_lit(1 + v, true);
  }
  const auto& [a, b, c] = decomposition_[bits];
  MigChain::Step step;
  step.fanin[0] = build_witness(a, chain);
  step.fanin[1] = build_witness(b, chain);
  step.fanin[2] = build_witness(c, chain);
  chain.steps.push_back(step);
  return make_ref_lit(4 + static_cast<uint32_t>(chain.steps.size()), false);
}

MigChain DepthTable::witness(const tt::TruthTable& f) const {
  const auto f4 = extend_to_4(f);
  MigChain chain;
  chain.num_vars = 4;
  chain.output = build_witness(static_cast<uint16_t>(f4.bits()), chain);
  MIGHTY_ASSERT(chain.simulate() == f4);
  return chain;
}

std::vector<uint64_t> DepthTable::function_histogram() const {
  std::vector<uint64_t> histogram;
  for (uint32_t bits = 0; bits < kNumFunctions; ++bits) {
    const uint8_t d = depth_[bits];
    if (histogram.size() <= d) histogram.resize(d + 1, 0);
    ++histogram[d];
  }
  return histogram;
}

}  // namespace mighty::exact
