#include "exact/encoding_onehot.hpp"

#include "util/assert.hpp"

namespace mighty::exact {

using sat::Lit;
using sat::lit;
using sat::negate;

OnehotEncoder::OnehotEncoder(sat::Solver& solver, const tt::TruthTable& f,
                             uint32_t num_gates, const EncodeOptions& options)
    : solver_(solver),
      f_(f),
      k_(num_gates),
      n_(f.num_vars()),
      rows_(1u << f.num_vars()),
      options_(options) {
  MIGHTY_ASSERT(k_ >= 1);
}

void OnehotEncoder::encode() {
  // --- variable allocation ---------------------------------------------------
  s_.resize(k_);
  p_.resize(k_);
  a_.resize(k_);
  b_.resize(k_);
  for (uint32_t l = 0; l < k_; ++l) {
    for (uint32_t c = 0; c < 3; ++c) {
      s_[l][c].resize(domain_size(l));
      for (uint32_t i = 0; i < domain_size(l); ++i) s_[l][c][i] = solver_.new_var();
      p_[l][c] = solver_.new_var();
      a_[l][c].resize(rows_);
      for (uint32_t j = 0; j < rows_; ++j) a_[l][c][j] = solver_.new_var();
    }
    b_[l].resize(rows_);
    for (uint32_t j = 0; j < rows_; ++j) b_[l][j] = solver_.new_var();
  }

  for (uint32_t l = 0; l < k_; ++l) {
    const uint32_t dom = domain_size(l);

    // Exactly-one selection per operand.
    for (uint32_t c = 0; c < 3; ++c) {
      std::vector<Lit> at_least_one;
      at_least_one.reserve(dom);
      for (uint32_t i = 0; i < dom; ++i) at_least_one.push_back(lit(s_[l][c][i]));
      solver_.add_clause(at_least_one);
      for (uint32_t i = 0; i < dom; ++i) {
        for (uint32_t i2 = i + 1; i2 < dom; ++i2) {
          solver_.add_clause({lit(s_[l][c][i], true), lit(s_[l][c][i2], true)});
        }
      }
    }

    // Operand ordering s1 < s2 < s3 (paper eq. (10)).
    if (options_.operand_ordering) {
      for (uint32_t c = 0; c + 1 < 3; ++c) {
        for (uint32_t i = 0; i < dom; ++i) {
          for (uint32_t i2 = 0; i2 <= i; ++i2) {
            solver_.add_clause({lit(s_[l][c][i], true), lit(s_[l][c + 1][i2], true)});
          }
        }
      }
    }

    for (uint32_t j = 0; j < rows_; ++j) {
      // Majority semantics b = <a1 a2 a3> (paper eq. (4)).
      const Lit a1 = lit(a_[l][0][j]);
      const Lit a2 = lit(a_[l][1][j]);
      const Lit a3 = lit(a_[l][2][j]);
      const Lit bb = lit(b_[l][j]);
      solver_.add_clause({negate(a1), negate(a2), bb});
      solver_.add_clause({negate(a1), negate(a3), bb});
      solver_.add_clause({negate(a2), negate(a3), bb});
      solver_.add_clause({a1, a2, negate(bb)});
      solver_.add_clause({a1, a3, negate(bb)});
      solver_.add_clause({a2, a3, negate(bb)});
    }

    // Connection constraints (paper eq. (6)-(8)); our polarity convention is
    // p = 1 <=> complemented edge.
    for (uint32_t c = 0; c < 3; ++c) {
      const Lit pol = lit(p_[l][c]);
      for (uint32_t i = 0; i < dom; ++i) {
        const Lit sel = lit(s_[l][c][i]);
        for (uint32_t j = 0; j < rows_; ++j) {
          const Lit av = lit(a_[l][c][j]);
          if (i == 0) {
            // Constant 0: a = 0 xor p = p.
            solver_.add_clause({negate(sel), negate(av), pol});
            solver_.add_clause({negate(sel), av, negate(pol)});
          } else if (i <= n_) {
            // Input x_i: a = bit_i(j) xor p.
            const bool bit = ((j >> (i - 1)) & 1) != 0;
            if (bit) {
              solver_.add_clause({negate(sel), av, pol});
              solver_.add_clause({negate(sel), negate(av), negate(pol)});
            } else {
              solver_.add_clause({negate(sel), negate(av), pol});
              solver_.add_clause({negate(sel), av, negate(pol)});
            }
          } else {
            // Gate m = i - n - 1: a = b_m xor p.
            const Lit bm = lit(b_[i - n_ - 1][j]);
            solver_.add_clause({negate(sel), pol, negate(av), bm});
            solver_.add_clause({negate(sel), pol, av, negate(bm)});
            solver_.add_clause({negate(sel), negate(pol), negate(av), negate(bm)});
            solver_.add_clause({negate(sel), negate(pol), av, bm});
          }
        }
      }
    }
  }

  // Function semantics on the root gate (paper eq. (9), without the output
  // polarity; see encoding_onehot.hpp).
  for (uint32_t j = 0; j < rows_; ++j) {
    solver_.add_clause({lit(b_[k_ - 1][j], !f_.get_bit(j))});
  }

  // Every non-root gate feeds some later gate.
  if (options_.all_gates_used) {
    for (uint32_t l = 0; l + 1 < k_; ++l) {
      std::vector<Lit> used;
      for (uint32_t l2 = l + 1; l2 < k_; ++l2) {
        for (uint32_t c = 0; c < 3; ++c) {
          used.push_back(lit(s_[l2][c][n_ + 1 + l]));
        }
      }
      solver_.add_clause(used);
    }
  }

  // Polarity normalization: non-root gates carry at most one complemented
  // fanin.
  if (options_.polarity_normalization) {
    for (uint32_t l = 0; l + 1 < k_; ++l) {
      solver_.add_clause({lit(p_[l][0], true), lit(p_[l][1], true)});
      solver_.add_clause({lit(p_[l][0], true), lit(p_[l][2], true)});
      solver_.add_clause({lit(p_[l][1], true), lit(p_[l][2], true)});
    }
  }

  // Every support variable must be read by some gate.
  if (options_.support_usage) {
    for (uint32_t v = 0; v < n_; ++v) {
      if (!f_.depends_on(v)) continue;
      std::vector<Lit> reads;
      for (uint32_t l = 0; l < k_; ++l) {
        for (uint32_t c = 0; c < 3; ++c) {
          reads.push_back(lit(s_[l][c][1 + v]));
        }
      }
      solver_.add_clause(reads);
    }
  }

  // Step ordering: for consecutive gates l, l+1 where gate l+1 does not
  // reference gate l, the largest operand must not decrease.
  if (options_.step_ordering) {
    for (uint32_t l = 0; l + 1 < k_; ++l) {
      const sat::Var u = solver_.new_var();  // u <-> gate l+1 references gate l
      std::vector<Lit> refs;
      for (uint32_t c = 0; c < 3; ++c) {
        const Lit ref = lit(s_[l + 1][c][n_ + 1 + l]);
        solver_.add_clause({negate(ref), lit(u)});
        refs.push_back(ref);
      }
      refs.push_back(lit(u, true));
      solver_.add_clause(refs);
      const uint32_t dom = domain_size(l);
      for (uint32_t i = 1; i < dom; ++i) {
        for (uint32_t i2 = 0; i2 < i; ++i2) {
          solver_.add_clause({lit(u), lit(s_[l][2][i], true), lit(s_[l + 1][2][i2], true)});
        }
      }
    }
  }

  // Branch on structure first: selects, then polarities.
  for (uint32_t l = 0; l < k_; ++l) {
    for (uint32_t c = 0; c < 3; ++c) {
      for (uint32_t i = 0; i < domain_size(l); ++i) {
        solver_.boost_activity(s_[l][c][i], 10.0);
      }
      solver_.boost_activity(p_[l][c], 5.0);
    }
  }
}

MigChain OnehotEncoder::extract() const {
  MigChain chain;
  chain.num_vars = n_;
  for (uint32_t l = 0; l < k_; ++l) {
    MigChain::Step step;
    for (uint32_t c = 0; c < 3; ++c) {
      uint32_t selected = domain_size(l);
      for (uint32_t i = 0; i < domain_size(l); ++i) {
        if (solver_.model_value(s_[l][c][i])) {
          selected = i;
          break;
        }
      }
      MIGHTY_ASSERT(selected < domain_size(l));
      step.fanin[c] = make_ref_lit(selected, solver_.model_value(p_[l][c]));
    }
    chain.steps.push_back(step);
  }
  chain.output = make_ref_lit(n_ + k_, false);
  return chain;
}

}  // namespace mighty::exact
