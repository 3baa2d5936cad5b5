#include "exact/chain.hpp"

#include <algorithm>
#include <limits>
#include "util/assert.hpp"
#include <sstream>
#include <stdexcept>

namespace mighty::exact {

tt::TruthTable MigChain::simulate() const {
  const uint32_t n = num_vars;
  std::vector<tt::TruthTable> values;
  values.reserve(1 + n + steps.size());
  values.push_back(tt::TruthTable::constant(n, false));
  for (uint32_t v = 0; v < n; ++v) values.push_back(tt::TruthTable::projection(n, v));
  auto value_of = [&](RefLit l) {
    const auto& t = values[ref_of(l)];
    return ref_complemented(l) ? ~t : t;
  };
  for (const Step& s : steps) {
    for (const RefLit l : s.fanin) {
      MIGHTY_ASSERT(ref_of(l) < values.size());
    }
    values.push_back(
        tt::TruthTable::maj(value_of(s.fanin[0]), value_of(s.fanin[1]), value_of(s.fanin[2])));
  }
  return value_of(output);
}

std::vector<uint32_t> MigChain::step_levels() const {
  std::vector<uint32_t> level(1 + num_vars + steps.size(), 0);
  for (uint32_t m = 0; m < steps.size(); ++m) {
    uint32_t max_level = 0;
    for (const RefLit l : steps[m].fanin) {
      max_level = std::max(max_level, level[ref_of(l)]);
    }
    level[1 + num_vars + m] = max_level + 1;
  }
  return level;
}

uint32_t MigChain::depth() const { return step_levels()[ref_of(output)]; }

mig::Signal MigChain::instantiate(mig::Mig& mig,
                                  const std::vector<mig::Signal>& inputs) const {
  MIGHTY_ASSERT(inputs.size() >= num_vars);
  std::vector<mig::Signal> values;
  values.reserve(1 + num_vars + steps.size());
  values.push_back(mig.get_constant(false));
  for (uint32_t v = 0; v < num_vars; ++v) values.push_back(inputs[v]);
  auto value_of = [&](RefLit l) { return values[ref_of(l)] ^ ref_complemented(l); };
  for (const Step& s : steps) {
    values.push_back(
        mig.create_maj(value_of(s.fanin[0]), value_of(s.fanin[1]), value_of(s.fanin[2])));
  }
  return value_of(output);
}

std::string MigChain::to_string() const {
  std::ostringstream os;
  os << num_vars << ' ' << steps.size() << ' ' << output;
  for (const Step& s : steps) {
    os << ' ' << s.fanin[0] << ' ' << s.fanin[1] << ' ' << s.fanin[2];
  }
  return os.str();
}

MigChain MigChain::from_string(const std::string& line) {
  std::istringstream is(line);
  MigChain chain;
  size_t num_steps = 0;
  uint32_t output = 0;
  if (!(is >> chain.num_vars >> num_steps >> output)) {
    throw std::runtime_error("malformed chain line: " + line);
  }
  // Every reference must name the constant, an input or an earlier step,
  // and fit a RefLit: simulate() and instantiate() index by reference
  // without checking.
  constexpr size_t kMaxRefs = (size_t{std::numeric_limits<RefLit>::max()} + 1) / 2;
  if (chain.num_vars > tt::TruthTable::max_vars || num_steps >= kMaxRefs ||
      1 + chain.num_vars + num_steps > kMaxRefs ||
      output >= 2 * (1 + chain.num_vars + num_steps)) {
    throw std::runtime_error("malformed chain line: " + line);
  }
  chain.output = static_cast<RefLit>(output);
  for (size_t m = 0; m < num_steps; ++m) {
    Step s;
    uint32_t f0 = 0, f1 = 0, f2 = 0;
    if (!(is >> f0 >> f1 >> f2)) {
      throw std::runtime_error("truncated chain line: " + line);
    }
    if (std::max({f0, f1, f2}) >= 2 * (1 + chain.num_vars + m)) {
      throw std::runtime_error("chain step reads a later step: " + line);
    }
    s.fanin = {static_cast<RefLit>(f0), static_cast<RefLit>(f1), static_cast<RefLit>(f2)};
    chain.steps.push_back(s);
  }
  return chain;
}

mig::Signal ClassChain::instantiate(mig::Mig& mig,
                                    const std::vector<mig::Signal>& leaves) const {
  std::vector<mig::Signal> inputs(chain->num_vars, mig.get_constant(false));
  for (uint32_t i = 0; i < chain->num_vars; ++i) {
    const mig::Signal base = leaf(i) < leaves.size() ? leaves[leaf(i)] : mig.get_constant(false);
    inputs[i] = base ^ (((to_member.input_negations >> i) & 1) != 0);
  }
  return chain->instantiate(mig, inputs) ^ to_member.output_negation;
}

MigChain ClassChain::materialize() const {
  const auto relabel = [this](RefLit l) {
    const uint32_t ref = ref_of(l);
    if (ref == 0 || ref > chain->num_vars) return l;
    const bool negated = ((to_member.input_negations >> (ref - 1)) & 1) != 0;
    return make_ref_lit(1 + leaf(ref - 1), ref_complemented(l) != negated);
  };
  MigChain result = *chain;
  for (MigChain::Step& step : result.steps) {
    for (RefLit& l : step.fanin) l = relabel(l);
  }
  result.output = static_cast<RefLit>(relabel(result.output) ^ (to_member.output_negation ? 1 : 0));
  return result;
}

}  // namespace mighty::exact
