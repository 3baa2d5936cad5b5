#include "exact/exact_synthesis.hpp"

#include <algorithm>
#include <stdexcept>

#include "exact/depth_table.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"
#include "smt/context.hpp"

namespace mighty::exact {

using sat::Lit;
using sat::negate;

std::optional<MigChain> trivial_chain(const tt::TruthTable& f) {
  MigChain chain;
  chain.num_vars = f.num_vars();
  if (f.is_const0()) {
    chain.output = make_ref_lit(0, false);
    return chain;
  }
  if (f.is_const1()) {
    chain.output = make_ref_lit(0, true);
    return chain;
  }
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    const auto proj = tt::TruthTable::projection(f.num_vars(), v);
    if (f == proj) {
      chain.output = make_ref_lit(v + 1, false);
      return chain;
    }
    if (f == ~proj) {
      chain.output = make_ref_lit(v + 1, true);
      return chain;
    }
  }
  return std::nullopt;
}

SynthesisResult synthesize_minimum_mig(const tt::TruthTable& f,
                                       const SynthesisOptions& options) {
  SynthesisResult result;
  if (const auto trivial = trivial_chain(f)) {
    result.status = SynthesisStatus::success;
    result.chain = *trivial;
    return result;
  }

  for (uint32_t k = std::max(options.min_gates, 1u); k <= options.max_gates; ++k) {
    sat::Solver solver;
    OnehotEncoder encoder(solver, f, k, options.encode);
    encoder.encode();
    const sat::Result r = solver.solve({}, options.conflict_limit);
    result.conflicts_per_step.push_back(solver.stats().conflicts);
    if (r == sat::Result::unknown) {
      result.status = SynthesisStatus::timeout;
      return result;
    }
    if (r == sat::Result::sat) {
      result.chain = encoder.extract();
      if (options.verify && result.chain.simulate() != f) {
        throw std::logic_error("exact synthesis extracted a non-equivalent chain");
      }
      result.status = SynthesisStatus::success;
      return result;
    }
  }
  result.status = SynthesisStatus::exhausted;
  return result;
}

namespace {

/// Depth-d complete ternary tree formulation.  Position 0 is the root; the
/// children of position P are 3P+1, 3P+2, 3P+3; positions on the last level
/// must be terminals.  Option encoding per position: 0 = gate, 1 = constant,
/// 1+v = input x_v; a separate polarity literal complements terminals.
class TreeEncoder {
public:
  TreeEncoder(sat::Solver& solver, const tt::TruthTable& f, uint32_t depth)
      : ctx_(solver), f_(f), n_(f.num_vars()), rows_(1u << f.num_vars()), depth_(depth) {
    num_positions_ = 1;
    uint32_t level_size = 1;
    for (uint32_t d = 0; d < depth; ++d) {
      level_size *= 3;
      num_positions_ += level_size;
    }
  }

  void encode() {
    sel_.resize(num_positions_);
    pol_.resize(num_positions_);
    val_.resize(num_positions_);
    for (uint32_t pos = 0; pos < num_positions_; ++pos) {
      const bool is_leaf_level = leaf_level(pos);
      const uint32_t num_options = (is_leaf_level ? 0u : 1u) + 1u + n_;
      auto& sel = sel_[pos];
      for (uint32_t o = 0; o < num_options; ++o) sel.push_back(ctx_.fresh());
      // Exactly one option.
      ctx_.solver().add_clause(sel);
      for (uint32_t o = 0; o < num_options; ++o) {
        for (uint32_t o2 = o + 1; o2 < num_options; ++o2) {
          ctx_.solver().add_clause({negate(sel[o]), negate(sel[o2])});
        }
      }
      pol_[pos] = ctx_.fresh();
      val_[pos].resize(rows_);
      for (uint32_t j = 0; j < rows_; ++j) val_[pos][j] = ctx_.fresh();
    }

    // Children are defined before parents in the constraint below, so walk
    // positions bottom-up.
    for (uint32_t pos = num_positions_; pos-- > 0;) {
      const bool is_leaf_level = leaf_level(pos);
      const uint32_t gate_offset = is_leaf_level ? 0 : 1;
      for (uint32_t j = 0; j < rows_; ++j) {
        if (!is_leaf_level) {
          const Lit m = ctx_.make_maj(val_[3 * pos + 1][j], val_[3 * pos + 2][j],
                                      val_[3 * pos + 3][j]);
          ctx_.assert_implies_eq(sel_[pos][0], val_[pos][j], m);
        }
        // Constant option: val = pol.
        ctx_.assert_implies_eq(sel_[pos][gate_offset], val_[pos][j], pol_[pos]);
        // Variable options: val = bit xor pol.
        for (uint32_t v = 0; v < n_; ++v) {
          const bool bit = ((j >> v) & 1) != 0;
          ctx_.assert_implies_eq(sel_[pos][gate_offset + 1 + v], val_[pos][j],
                                 bit ? negate(pol_[pos]) : pol_[pos]);
        }
      }
    }

    for (uint32_t j = 0; j < rows_; ++j) {
      ctx_.assert_lit(f_.get_bit(j) ? val_[0][j] : negate(val_[0][j]));
    }

    // Sibling symmetry breaking: majority is fully symmetric, so the children
    // of every gate position can be sorted by their selected option index
    // (gate < constant < x_1 < ... < x_n).  This removes a 3!^(#internal)
    // redundancy that otherwise cripples the UNSAT proofs.
    for (uint32_t pos = 0; pos < num_positions_; ++pos) {
      if (leaf_level(pos)) continue;
      for (uint32_t sib = 0; sib < 2; ++sib) {
        const uint32_t left = 3 * pos + 1 + sib;
        const uint32_t right = left + 1;
        const auto& ls = sel_[left];
        const auto& rs = sel_[right];
        for (uint32_t i = 0; i < ls.size(); ++i) {
          for (uint32_t j = 0; j < std::min<uint32_t>(i, static_cast<uint32_t>(rs.size()));
               ++j) {
            ctx_.solver().add_clause({negate(ls[i]), negate(rs[j])});
          }
        }
      }
    }

    // Branch on the structural selections first, shallow positions foremost.
    for (uint32_t pos = 0; pos < num_positions_; ++pos) {
      for (const Lit l : sel_[pos]) {
        ctx_.solver().boost_activity(sat::var_of(l),
                                     10.0 + 10.0 / (1.0 + pos));
      }
    }
  }

  /// Extracts the realized tree as a chain (post-order steps).
  MigChain extract() const {
    MigChain chain;
    chain.num_vars = n_;
    chain.output = extract_position(0, chain);
    return chain;
  }

private:
  bool leaf_level(uint32_t pos) const {
    // Positions on the last level have no children inside the position range.
    return 3 * pos + 3 >= num_positions_;
  }

  RefLit extract_position(uint32_t pos, MigChain& chain) const {
    const bool is_leaf_level = leaf_level(pos);
    const uint32_t gate_offset = is_leaf_level ? 0 : 1;
    uint32_t selected = 0;
    for (uint32_t o = 0; o < sel_[pos].size(); ++o) {
      if (ctx_.solver().model_value_lit(sel_[pos][o])) {
        selected = o;
        break;
      }
    }
    const bool pol = ctx_.solver().model_value_lit(pol_[pos]);
    if (!is_leaf_level && selected == 0) {
      MigChain::Step step;
      step.fanin[0] = extract_position(3 * pos + 1, chain);
      step.fanin[1] = extract_position(3 * pos + 2, chain);
      step.fanin[2] = extract_position(3 * pos + 3, chain);
      chain.steps.push_back(step);
      return make_ref_lit(n_ + 1 + static_cast<uint32_t>(chain.steps.size()) - 1, false);
    }
    if (selected == gate_offset) return make_ref_lit(0, pol);
    const uint32_t v = selected - gate_offset - 1;
    return make_ref_lit(v + 1, pol);
  }

  smt::Context ctx_;
  tt::TruthTable f_;
  uint32_t n_;
  uint32_t rows_;
  uint32_t depth_;
  uint32_t num_positions_ = 0;
  std::vector<std::vector<Lit>> sel_;
  std::vector<Lit> pol_;
  std::vector<std::vector<Lit>> val_;
};

}  // namespace

DepthSynthesisResult synthesize_minimum_depth_mig(const tt::TruthTable& f,
                                                  const DepthSynthesisOptions& options) {
  DepthSynthesisResult result;
  if (const auto trivial = trivial_chain(f)) {
    result.status = SynthesisStatus::success;
    result.depth = 0;
    result.chain = *trivial;
    return result;
  }

  // Up to four variables the exhaustive function-space depth table answers
  // exactly and instantly, including a witness tree; the SAT formulation
  // below remains for wider functions (and for cross-checking in the tests,
  // via use_sat).
  if (f.num_vars() <= 4 && !options.use_sat) {
    const auto& table = DepthTable::instance();
    result.status = SynthesisStatus::success;
    result.depth = table.depth(f);
    result.chain = table.witness(f);
    return result;
  }

  for (uint32_t d = 1; d <= options.max_depth; ++d) {
    sat::Solver solver;
    TreeEncoder encoder(solver, f, d);
    encoder.encode();
    const sat::Result r = solver.solve({}, options.conflict_limit);
    if (r == sat::Result::unknown) {
      result.status = SynthesisStatus::timeout;
      return result;
    }
    if (r == sat::Result::sat) {
      result.chain = encoder.extract();
      if (result.chain.simulate() != f) {
        throw std::logic_error("depth synthesis extracted a non-equivalent chain");
      }
      if (result.chain.depth() > d) {
        throw std::logic_error("depth synthesis exceeded the requested depth");
      }
      result.status = SynthesisStatus::success;
      result.depth = d;
      return result;
    }
  }
  result.status = SynthesisStatus::exhausted;
  return result;
}

}  // namespace mighty::exact
