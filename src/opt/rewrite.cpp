#include "opt/rewrite.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <stdexcept>

#include "opt/oracle.hpp"

namespace mighty::opt {

mig::Mig functional_hashing(const mig::Mig& mig, ReplacementOracle& oracle,
                            const RewriteParams& params, RewriteStats* stats) {
  RewriteStats local;
  local.size_before = mig.count_live_gates();
  local.depth_before = mig.depth();
  const auto start = std::chrono::steady_clock::now();

  // Attribute oracle activity to exactly this call: the drivers record every
  // query into a local tally instead of the caller reading lifetime counters
  // (which interleave arbitrarily when concurrent passes share the oracle).
  OracleTally tally;
  RewriteParams driver_params = params;
  driver_params.tally = &tally;

  mig::Mig result = params.direction == Direction::top_down
                        ? rewrite_top_down(mig, oracle, driver_params, local)
                        : rewrite_bottom_up(mig, oracle, driver_params, local);
  result = result.cleanup();

  local.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  local.size_after = result.count_live_gates();
  local.depth_after = result.depth();
  local.counts() = tally.snapshot();
  if (params.tally != nullptr) params.tally->add(local);
  if (stats != nullptr) *stats = local;
  return result;
}

RewriteParams variant_params(const std::string& acronym) {
  RewriteParams params;
  for (const char raw : acronym) {
    switch (std::toupper(static_cast<unsigned char>(raw))) {
      case 'T':
        params.direction = Direction::top_down;
        break;
      case 'B':
        params.direction = Direction::bottom_up;
        break;
      case 'F':
        params.ffr_partition = true;
        break;
      case 'D':
        params.depth_preserving = true;
        break;
      default:
        throw std::invalid_argument(std::string("unknown letter '") + raw +
                                    "' in variant acronym \"" + acronym + '"');
    }
  }
  const char head =
      acronym.empty()
          ? '\0'
          : static_cast<char>(std::toupper(static_cast<unsigned char>(acronym[0])));
  if (head != 'T' && head != 'B') {
    throw std::invalid_argument("variant must start with T or B: \"" + acronym + '"');
  }
  return params;
}

std::vector<std::string> all_variants() {
  return {"TF", "T", "TFD", "TD", "B", "BF", "BD", "BFD"};
}

std::vector<uint32_t> cut_cone(const mig::Mig& mig, uint32_t root,
                               const std::vector<uint32_t>& leaves) {
  std::vector<uint32_t> cone;
  std::vector<uint32_t> stack{root};
  auto is_leaf = [&](uint32_t n) {
    return std::find(leaves.begin(), leaves.end(), n) != leaves.end();
  };
  auto seen = [&](uint32_t n) {
    return std::find(cone.begin(), cone.end(), n) != cone.end();
  };
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (seen(n)) continue;
    cone.push_back(n);
    for (const mig::Signal s : mig.fanins(n)) {
      const uint32_t f = s.index();
      if (mig.is_constant(f) || is_leaf(f) || seen(f)) continue;
      stack.push_back(f);
    }
  }
  return cone;
}

bool cone_is_replaceable(const mig::Mig& mig, const std::vector<uint32_t>& cone,
                         uint32_t root, const std::vector<uint32_t>& fanout_counts) {
  for (const uint32_t n : cone) {
    if (n == root) continue;
    // Count references to n from inside the cone; any additional reference is
    // external fanout, which would keep the node alive after replacement.
    uint32_t internal = 0;
    for (const uint32_t m : cone) {
      for (const mig::Signal s : mig.fanins(m)) {
        if (s.index() == n) ++internal;
      }
    }
    if (internal < fanout_counts[n]) return false;
  }
  return true;
}

cuts::CutEnumerationParams rewrite_cut_params(const RewriteParams& params,
                                              const std::vector<bool>* boundary) {
  return {.cut_size = params.five_input_cuts ? 5u : 4u, .boundary = boundary};
}

std::vector<int> chain_input_depths(const exact::MigChain& chain) {
  // Longest path from every reference to the output, walking the steps in
  // reverse topological order; an input's entry is its depth.
  const uint32_t base = 1 + chain.num_vars;
  std::vector<int> dist(base + chain.steps.size(), -1);
  dist[exact::ref_of(chain.output)] = 0;
  for (uint32_t m = chain.size(); m-- > 0;) {
    if (dist[base + m] < 0) continue;
    for (const exact::RefLit l : chain.steps[m].fanin) {
      int& d = dist[exact::ref_of(l)];
      d = std::max(d, dist[base + m] + 1);
    }
  }
  return std::vector<int>(dist.begin() + 1, dist.begin() + base);
}

}  // namespace mighty::opt
