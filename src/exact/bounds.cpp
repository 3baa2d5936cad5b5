#include "exact/bounds.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/assert.hpp"

namespace mighty::exact {

mig::Signal build_shannon(const Database& db, const tt::TruthTable& f, mig::Mig& mig,
                          const std::vector<mig::Signal>& leaves) {
  MIGHTY_ASSERT(leaves.size() >= f.num_vars());
  if (f.num_vars() <= 4) {
    return db.instantiate(f, mig, leaves);
  }
  const uint32_t var = f.num_vars() - 1;
  // Reduce the cofactors to one fewer variable.
  auto drop_top = [&](const tt::TruthTable& g) {
    tt::TruthTable r(var);
    for (uint32_t m = 0; m < r.num_bits(); ++m) r.set_bit(m, g.get_bit(m));
    return r;
  };
  const auto f0 = drop_top(f.cofactor(var, false));
  const auto f1 = drop_top(f.cofactor(var, true));
  const mig::Signal s0 = build_shannon(db, f0, mig, leaves);
  const mig::Signal s1 = build_shannon(db, f1, mig, leaves);
  const mig::Signal x = leaves[var];

  // f = <1 <0 !x f0> <0 x f1>> (paper, proof of Theorem 2).
  const mig::Signal low = mig.create_and(!x, s0);
  const mig::Signal high = mig.create_and(x, s1);
  return mig.create_or(low, high);
}

MigChain shannon_chain(const Database& db, const tt::TruthTable& f) {
  mig::Mig m;
  const auto leaves = m.create_pis(f.num_vars());
  m.create_po(build_shannon(db, f, m, leaves));
  // Read the live cone back in node order, which is topological: node 0 is
  // the constant (ref 0), node i <= n is input x_i (ref i), and the m-th
  // live gate becomes step m (ref n + 1 + m).
  MigChain chain;
  chain.num_vars = f.num_vars();
  const auto live = m.live_mask();
  std::vector<uint32_t> ref(m.num_nodes());
  const auto lit = [&ref](mig::Signal s) {
    return make_ref_lit(ref[s.index()], s.is_complemented());
  };
  for (uint32_t n = 1; n < m.num_nodes(); ++n) {
    if (!m.is_gate(n)) {
      ref[n] = n;
    } else if (live[n]) {
      ref[n] = 1 + chain.num_vars + chain.size();
      const auto& fanins = m.fanins(n);
      chain.steps.push_back({{lit(fanins[0]), lit(fanins[1]), lit(fanins[2])}});
    }
  }
  chain.output = lit(m.output(0));
  return chain;
}

uint32_t shannon_size(const Database& db, const tt::TruthTable& f) {
  return shannon_chain(db, f).size();
}

uint32_t size_lower_bound(const Database& db, const tt::TruthTable& f) {
  const uint32_t n = f.num_vars();
  MIGHTY_ASSERT(n <= 5);
  // Constants and literals need no gate, so they have no first gate either.
  if (f.support_size() < 2) return 0;
  std::vector<uint32_t> old_vars;
  const auto size = [&](const tt::TruthTable& g) {
    return db.lookup(g.shrink_to_support(old_vars)).entry->chain.size();
  };
  std::array<uint32_t, 5> co{};                // CO_a
  std::array<std::array<uint32_t, 5>, 5> w{};  // W_ab, a < b
  uint32_t bound = 0;
  for (uint32_t a = 0; a < n; ++a) {
    const auto f0 = f.cofactor(a, false);
    const auto f1 = f.cofactor(a, true);
    co[a] = std::max(size(f0), size(f1));
    bound = std::max(bound, co[a]);
    for (uint32_t b = a + 1; b < n; ++b) {
      const auto xb = tt::TruthTable::projection(n, b);
      w[a][b] = std::max(size(tt::TruthTable::ite(xb, f1, f0)),   // x_a := x_b
                         size(tt::TruthTable::ite(xb, f0, f1)));  // x_a := !x_b
      bound = std::max(bound, w[a][b]);
    }
  }
  // The cheapest first gate: two variables and a constant, or three variables.
  uint32_t first_gate = std::numeric_limits<uint32_t>::max();
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      first_gate = std::min(first_gate, std::max({w[a][b], co[a], co[b]}));
      for (uint32_t c = b + 1; c < n; ++c) {
        first_gate = std::min(first_gate, std::max({w[a][b], w[a][c], w[b][c]}));
      }
    }
  }
  return std::max(bound, 1 + first_gate);
}

}  // namespace mighty::exact
