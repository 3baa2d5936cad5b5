#include "exact/complexity.hpp"

#include <stdexcept>

#include "exact/depth_table.hpp"

namespace mighty::exact {

namespace {

void accumulate(std::vector<ComplexityRow>& rows, uint32_t value, uint64_t functions) {
  if (rows.size() <= value) {
    const auto old = rows.size();
    rows.resize(value + 1);
    for (auto v = old; v < rows.size(); ++v) rows[v].value = static_cast<uint32_t>(v);
  }
  ++rows[value].classes;
  rows[value].functions += functions;
}

}  // namespace

std::vector<ComplexityRow> size_distribution(const Database& db) {
  std::vector<ComplexityRow> rows;
  for (const auto& entry : db.entries()) {
    accumulate(rows, entry.chain.size(), npn::orbit_size(entry.representative));
  }
  return rows;
}

std::vector<uint8_t> compute_formula_lengths(uint32_t num_vars) {
  if (num_vars > 4) throw std::invalid_argument("formula-length DP limited to 4 vars");
  const uint32_t num_bits = 1u << num_vars;
  const uint64_t total = uint64_t{1} << num_bits;
  const uint64_t mask = tt::TruthTable::length_mask(num_vars);

  constexpr uint8_t kUnknown = 0xff;
  std::vector<uint8_t> cost(total, kUnknown);
  std::vector<std::vector<uint32_t>> by_cost(1);

  // Cost 0: constants and (complemented) projections.
  auto assign = [&](uint64_t bits, uint8_t m) {
    if (cost[bits] == kUnknown) {
      cost[bits] = m;
      if (by_cost.size() <= m) by_cost.resize(m + 1);
      by_cost[m].push_back(static_cast<uint32_t>(bits));
    }
  };
  assign(0, 0);
  assign(mask, 0);
  for (uint32_t v = 0; v < num_vars; ++v) {
    const uint64_t proj = tt::TruthTable::var_mask(v) & mask;
    assign(proj, 0);
    assign(~proj & mask, 0);
  }

  uint64_t found = by_cost[0].size();
  for (uint8_t m = 1; found < total && m < 32; ++m) {
    by_cost.resize(std::max<size_t>(by_cost.size(), m + 1));
    // A cost-m formula is <f1 f2 f3> with cost(f1)+cost(f2)+cost(f3) = m-1.
    for (uint32_t i = 0; i <= static_cast<uint32_t>(m - 1) && found < total; ++i) {
      for (uint32_t j = i; i + j <= static_cast<uint32_t>(m - 1) && found < total; ++j) {
        const uint32_t t = (m - 1) - i - j;
        if (t < j) break;
        if (i >= by_cost.size() || j >= by_cost.size() || t >= by_cost.size()) continue;
        const auto& li = by_cost[i];
        const auto& lj = by_cost[j];
        const auto& lt = by_cost[t];
        for (size_t bi = 0; bi < li.size() && found < total; ++bi) {
          const uint64_t b = li[bi];
          const size_t cj_start = (i == j) ? bi : 0;
          for (size_t cj = cj_start; cj < lj.size() && found < total; ++cj) {
            const uint64_t c = lj[cj];
            const uint64_t u = b & c;
            const uint64_t d = b ^ c;
            if (d == 0) continue;  // <ffx> = f, never a new function
            for (const uint32_t a : lt) {
              const uint64_t f = u | (d & a);
              if (cost[f] == kUnknown) {
                cost[f] = m;
                by_cost[m].push_back(static_cast<uint32_t>(f));
                ++found;
              }
            }
          }
        }
      }
    }
  }
  return cost;
}

std::vector<ComplexityRow> length_distribution(const std::vector<uint8_t>& lengths) {
  std::vector<ComplexityRow> rows;
  for (const auto& rep : npn::enumerate_classes(4)) {
    accumulate(rows, lengths[rep.bits()], npn::orbit_size(rep));
  }
  return rows;
}

std::vector<ComplexityRow> depth_distribution() {
  const auto& table = DepthTable::instance();
  std::vector<ComplexityRow> rows;
  for (const auto& rep : npn::enumerate_classes(4)) {
    accumulate(rows, table.depth(rep), npn::orbit_size(rep));
  }
  return rows;
}

}  // namespace mighty::exact
