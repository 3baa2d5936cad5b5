#include "exact/bounds.hpp"

#include <algorithm>

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

uint32_t shannon_size(const Database& db, const tt::TruthTable& f) {
  mig::Mig m;
  const auto leaves = m.create_pis(f.num_vars());
  m.create_po(build_shannon(db, f, m, leaves));
  return m.count_live_gates();
}

uint32_t cofactor_lower_bound(const Database& db, const tt::TruthTable& f) {
  MIGHTY_ASSERT(f.num_vars() <= 5);
  uint32_t bound = 0;
  std::vector<uint32_t> old_vars;
  for (uint32_t var = 0; var < f.num_vars(); ++var) {
    for (const bool value : {false, true}) {
      const auto g = f.cofactor(var, value).shrink_to_support(old_vars).extend(4);
      bound = std::max(bound, db.lookup(g).entry->chain.size());
    }
  }
  return bound;
}

}  // namespace mighty::exact
