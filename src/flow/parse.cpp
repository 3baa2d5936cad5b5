#include <cctype>
#include <stdexcept>
#include <string>

#include "api/error.hpp"
#include "flow/pipeline.hpp"
#include "mig/cuts.hpp"
#include "util/thread_pool.hpp"

/// The flow-script parser: recursive descent over the grammar in
/// pipeline.hpp, from script text to its literal syntax tree.

namespace mighty::flow {

namespace {

class Parser {
public:
  explicit Parser(const std::string& script) : script_(script) {}

  ScriptTree parse() {
    ScriptTree result = sequence();
    if (!at_end()) {
      fail(std::string("unexpected '") + peek() + "'");
    }
    return result;
  }

private:
  /// Reports `what` anchored at `pos` — always a token's *start*, so the
  /// column survives leading whitespace and multi-character tokens (a count
  /// error must not point past the digits it rejects).
  [[noreturn]] void fail_at(size_t pos, const std::string& what) const {
    // ScriptError derives std::invalid_argument (the documented contract of
    // Pipeline::parse) and carries ErrorCode::invalid_script for the api
    // layer and the wire protocol.
    throw api::ScriptError("flow script error at position " +
                           std::to_string(pos) + ": " + what + " in \"" +
                           script_ + '"');
  }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }

  void skip_space() {
    while (pos_ < script_.size() &&
           std::isspace(static_cast<unsigned char>(script_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_space();
    return pos_ >= script_.size();
  }

  char peek() {
    skip_space();
    return pos_ < script_.size() ? script_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  ScriptTree sequence() {
    ScriptTree result;
    while (true) {
      if (at_end() || peek() == ')') break;
      if (consume(';')) continue;  // empty item
      result.push_back(item());
      if (!at_end() && peek() != ')' && !consume(';')) {
        fail(std::string("expected ';' before '") + peek() + "'");
      }
    }
    return result;
  }

  ScriptItem item() {
    ScriptItem result = atom();
    if (!consume('*')) return result;
    result.modifier = ScriptItem::Modifier::converge;
    result.count = kDefaultConvergenceRounds;
    if (consume('<')) {  // "x*<N": until convergence, at most N rounds
      result.count = integer();
      if (result.count == 0) fail_at(int_start_, "round cap must be at least 1");
      return result;
    }
    skip_space();
    if (pos_ < script_.size() &&
        std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
      result.modifier = ScriptItem::Modifier::repeat;
      result.count = integer();
      if (result.count == 0) fail_at(int_start_, "repeat count must be at least 1");
    }
    return result;
  }

  ScriptItem atom() {
    ScriptItem result;
    if (consume('(')) {
      result.body = sequence();
      if (!consume(')')) fail("missing ')'");
      if (result.body.empty()) fail("empty group '()'");
    } else {
      result.pass = word();
    }
    return result;
  }

  std::shared_ptr<const Pass> word() {
    skip_space();
    const size_t start = pos_;
    std::string text;
    while (pos_ < script_.size() &&
           std::isalpha(static_cast<unsigned char>(script_[pos_]))) {
      text += static_cast<char>(
          std::tolower(static_cast<unsigned char>(script_[pos_])));
      ++pos_;
    }
    if (text.empty()) {
      fail(at_end() ? std::string("expected a pass name")
                    : std::string("expected a pass name, got '") + script_[pos_] +
                          "'");
    }

    if (text == "size") return make_size_pass();
    if (text == "depth") return make_depth_pass();
    if (text == "check") return make_check_pass();
    if (text == "parallel") {
      // "parallel:n" (the canonical form emitted by to_script) or "paralleln".
      consume(':');
      skip_space();
      if (pos_ >= script_.size() ||
          !std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
        fail("expected a thread count after 'parallel'");
      }
      const uint32_t threads = integer();
      if (threads == 0 || threads > util::ThreadPool::kMaxParallelism) {
        fail_at(int_start_, "thread count out of range in 'parallel:" +
                                std::to_string(threads) + "'");
      }
      return make_parallel_pass(threads);
    }
    if (text == "cache") {
      // "cache:<path>" attaches the persistent 5-input oracle cache.  The
      // path runs to the next whitespace, ';', ')' or '*' and keeps its
      // case ('*' stays a repeat suffix, as for every other word — it must
      // not be swallowed into the filename).
      if (!consume(':')) fail("expected ':<path>' after 'cache'");
      skip_space();
      std::string path;
      while (pos_ < script_.size() && script_[pos_] != ';' && script_[pos_] != ')' &&
             script_[pos_] != '*' &&
             !std::isspace(static_cast<unsigned char>(script_[pos_]))) {
        path += script_[pos_];
        ++pos_;
      }
      if (path.empty()) fail("expected a file path after 'cache:'");
      return make_cache_pass(std::move(path));
    }
    if (text == "map") {
      map::MapParams params;
      if (pos_ < script_.size() &&
          std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
        params.lut_size = integer();
        if (params.lut_size < 3 || params.lut_size > cuts::Cut::max_size) {
          fail_at(int_start_, "LUT size out of range in 'map" +
                                  std::to_string(params.lut_size) + "'");
        }
      }
      return make_lut_map_pass(params);
    }
    // A trailing '5' selects the variant's 5-input-cut extension ("TF5");
    // it is part of the word, not a repeat count (those need '*').
    if (pos_ < script_.size() && script_[pos_] == '5') {
      text += '5';
      ++pos_;
    }
    try {
      return make_rewrite_pass(text);
    } catch (const std::invalid_argument&) {
      fail_at(start, "unknown pass \"" + text + '"');
    }
  }

  /// Largest count any production accepts; far below UINT32_MAX, so inputs
  /// like "TF*4294967296" are rejected as too large instead of wrapping to a
  /// silently different pipeline.
  static constexpr uint64_t kMaxCount = 1'000'000;

  uint32_t integer() {
    skip_space();
    const size_t start = pos_;
    uint64_t value = 0;
    while (pos_ < script_.size() &&
           std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
      // Saturate instead of accumulating: a thousand-digit count must neither
      // overflow the accumulator nor change the error reported.
      if (value <= kMaxCount) {
        value = value * 10 + static_cast<uint64_t>(script_[pos_] - '0');
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    if (value > kMaxCount) {
      fail_at(start, "count too large (at most " + std::to_string(kMaxCount) + ")");
    }
    int_start_ = start;
    return static_cast<uint32_t>(value);
  }

  const std::string& script_;
  size_t pos_ = 0;
  /// Start position of the count integer() consumed last; range checks in the
  /// callers anchor their error there, at the token, not after it.
  size_t int_start_ = 0;
};

}  // namespace

ScriptTree parse_script(const std::string& script) {
  return Parser(script).parse();
}

Pipeline Pipeline::parse(const std::string& script) {
  return from_tree(parse_script(script));
}

}  // namespace mighty::flow
