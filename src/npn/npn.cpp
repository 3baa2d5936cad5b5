#include "npn/npn.hpp"

#include <algorithm>
#include "util/assert.hpp"
#include <numeric>

namespace mighty::npn {

tt::TruthTable apply(const tt::TruthTable& f, const Transform& t) {
  MIGHTY_ASSERT(f.num_vars() == t.num_vars);
  tt::TruthTable g = f;
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if ((t.input_negations >> v) & 1) g = g.flip(v);
  }
  g = g.permute(t.perm);
  if (t.output_negation) g = ~g;
  return g;
}

Transform inverse(const Transform& t) {
  Transform r;
  r.num_vars = t.num_vars;
  r.output_negation = t.output_negation;
  r.input_negations = 0;
  for (uint32_t i = 0; i < t.num_vars; ++i) {
    // t.perm maps original variable i to result variable t.perm[i]; the
    // inverse permutation maps it back.
    r.perm[t.perm[i]] = static_cast<uint8_t>(i);
    if ((t.input_negations >> i) & 1) {
      r.input_negations = static_cast<uint8_t>(r.input_negations | (1u << t.perm[i]));
    }
  }
  for (uint32_t i = t.num_vars; i < tt::TruthTable::max_vars; ++i) {
    r.perm[i] = static_cast<uint8_t>(i);
  }
  // Derivation: h(x) = f(x_{p(i)} ^ n_i) ^ o.  Solving for f gives
  // f(u) = h(u_{p^{-1}(j)} ^ n_{p^{-1}(j)}) ^ o, i.e. the inverse permutation
  // with negations carried to the permuted positions and the same output
  // negation.
  return r;
}

std::vector<std::array<uint8_t, tt::TruthTable::max_vars>> all_permutations(uint32_t n) {
  std::array<uint8_t, tt::TruthTable::max_vars> base{0, 1, 2, 3, 4, 5};
  std::vector<std::array<uint8_t, tt::TruthTable::max_vars>> result;
  std::array<uint8_t, tt::TruthTable::max_vars> p = base;
  do {
    result.push_back(p);
  } while (std::next_permutation(p.begin(), p.begin() + n));
  return result;
}

namespace {

/// 32-bit words hold every truth table canonize() handles (n <= 5).
constexpr std::array<uint32_t, 5> kVarMasks = {0xaaaaaaaau, 0xccccccccu, 0xf0f0f0f0u,
                                               0xff00ff00u, 0xffff0000u};

/// Exchanges variables a < b of a truth-table word: the minterms with
/// x_a = 1, x_b = 0 trade places with those with x_a = 0, x_b = 1.
uint32_t swap_word(uint32_t w, uint32_t a, uint32_t b) {
  const uint32_t m = kVarMasks[a] & ~kVarMasks[b];
  const uint32_t shift = (1u << b) - (1u << a);
  return (w & ~(m | (m << shift))) | ((w & m) << shift) | ((w >> shift) & m);
}

/// Complements variable v of a truth-table word.
uint32_t flip_word(uint32_t w, uint32_t v) {
  const uint32_t m = kVarMasks[v];
  const uint32_t shift = 1u << v;
  return ((w & m) >> shift) | ((w & ~m) << shift);
}

/// One permutation of canonize()'s walk, with the variable swaps that turn
/// the previous permutation's word into this one's.
struct PermutationStep {
  std::array<uint8_t, tt::TruthTable::max_vars> perm;
  uint8_t swaps = 0;
  std::array<uint8_t, 4> low{}, high{};  ///< swap i exchanges variables low[i] < high[i]
};

/// all_permutations(n) as a walk from the identity.  A word w realizing
/// f.permute(cur) becomes f.permute(cur') by exchanging variables x and y,
/// where cur' is cur with the values x and y exchanged; fixing positions
/// left to right needs at most n - 1 such swaps.
std::vector<PermutationStep> permutation_walk(uint32_t n) {
  std::vector<PermutationStep> walk;
  std::array<uint8_t, tt::TruthTable::max_vars> cur{0, 1, 2, 3, 4, 5};
  for (const auto& perm : all_permutations(n)) {
    PermutationStep step;
    step.perm = perm;
    for (uint32_t v = 0; v < n; ++v) {
      if (cur[v] == perm[v]) continue;
      uint32_t u = v + 1;
      while (cur[u] != perm[v]) ++u;
      step.low[step.swaps] = std::min(cur[v], perm[v]);
      step.high[step.swaps] = std::max(cur[v], perm[v]);
      ++step.swaps;
      std::swap(cur[v], cur[u]);
    }
    walk.push_back(step);
  }
  return walk;
}

/// permutation_walk(n) for n = 0..5, built once per process.
const std::vector<PermutationStep>& walk_for(uint32_t n) {
  static const auto table = [] {
    std::array<std::vector<PermutationStep>, 6> t;
    for (uint32_t k = 0; k < t.size(); ++k) t[k] = permutation_walk(k);
    return t;
  }();
  return table[n];
}

}  // namespace

CanonResult canonize(const tt::TruthTable& f) {
  const uint32_t n = f.num_vars();
  MIGHTY_ASSERT(n <= 5);
  const uint32_t masks = 1u << n;
  const uint32_t length = static_cast<uint32_t>(tt::TruthTable::length_mask(n));

  // The result is the first transform reaching the minimum in the order
  // permutation (lexicographic), input negation mask (ascending), output
  // negation (off, on): the first strict minimum of apply(f, t) over that
  // sequence.  Per permutation, the word is permuted once; negating
  // original input v before permuting is negating variable perm[v] after
  // it, so the candidates of all 2^n masks follow by one flip each.  Only a
  // permutation whose minimum beats the best so far is scanned for the
  // first position of that minimum.
  std::array<uint32_t, 32> plain{};
  uint64_t best = ~uint64_t{0};
  CanonResult result;
  result.transform.num_vars = static_cast<uint8_t>(n);
  uint32_t word = static_cast<uint32_t>(f.bits());
  for (const PermutationStep& step : walk_for(n)) {
    for (uint32_t i = 0; i < step.swaps; ++i) word = swap_word(word, step.low[i], step.high[i]);
    plain[0] = word;
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t half = 1u << v;
      for (uint32_t j = 0; j < half; ++j) plain[half + j] = flip_word(plain[j], step.perm[v]);
    }
    uint32_t lowest = ~uint32_t{0};
    for (uint32_t neg = 0; neg < masks; ++neg) {
      lowest = std::min(lowest, std::min(plain[neg], ~plain[neg] & length));
    }
    if (lowest >= best) continue;
    best = lowest;
    uint32_t neg = 0;
    while (plain[neg] != lowest && (~plain[neg] & length) != lowest) ++neg;
    result.transform.perm = step.perm;
    result.transform.input_negations = static_cast<uint8_t>(neg);
    result.transform.output_negation = plain[neg] != lowest;
  }
  result.representative = tt::TruthTable(n, best);
  return result;
}

uint64_t orbit_size(const tt::TruthTable& f) {
  const uint32_t n = f.num_vars();
  MIGHTY_ASSERT(n <= 4);
  std::vector<uint64_t> seen;
  Transform t;
  t.num_vars = static_cast<uint8_t>(n);
  for (const auto& perm : all_permutations(n)) {
    t.perm = perm;
    for (uint32_t neg = 0; neg < (1u << n); ++neg) {
      t.input_negations = static_cast<uint8_t>(neg);
      for (uint32_t out = 0; out < 2; ++out) {
        t.output_negation = out != 0;
        seen.push_back(apply(f, t).bits());
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  return static_cast<uint64_t>(std::unique(seen.begin(), seen.end()) - seen.begin());
}

std::vector<tt::TruthTable> enumerate_classes(uint32_t num_vars) {
  MIGHTY_ASSERT(num_vars <= 4);
  const uint64_t total = uint64_t{1} << (uint64_t{1} << num_vars);
  std::vector<bool> seen(total, false);
  std::vector<tt::TruthTable> reps;

  const auto perms = all_permutations(num_vars);
  Transform t;
  t.num_vars = static_cast<uint8_t>(num_vars);

  for (uint64_t bits = 0; bits < total; ++bits) {
    if (seen[bits]) continue;
    const tt::TruthTable f(num_vars, bits);
    reps.push_back(f);  // first unseen function is numerically smallest in its orbit
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < (1u << num_vars); ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (uint32_t out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          seen[apply(f, t).bits()] = true;
        }
      }
    }
  }
  return reps;
}

}  // namespace mighty::npn
