#include <map>
#include <set>

#include "../check.hpp"

/// check: nondeterministic-iteration
///
/// The project's hardest contract is bit-identical determinism: threads=N
/// must equal threads=1, warm runs must equal cold runs, and a daemon must
/// answer byte-for-byte like a local session.  Iterating a std::unordered_*
/// container makes visit order depend on hasher, libstdc++ version, and
/// insertion history — a silent hazard whenever anything downstream depends
/// on the order.  Sites must iterate a sorted snapshot, or carry a reasoned
/// `// mighty-lint: allow(nondeterministic-iteration): ...` stating why the
/// loop body is order-independent.  Scoped to src/ (production code).
///
/// The token stream has no types, so the check resolves names lexically, in
/// precision order: declarations in the file itself and its quoted-include
/// closure first, then a project-global table used only when every
/// declaration of that name in the whole tree agrees on unordered-ness.
/// Ambiguous names are skipped (conservative).

namespace mighty::lint {

namespace {

constexpr unsigned kUnordered = 1;
constexpr unsigned kOther = 2;

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> types = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  return types;
}

/// Container-ish std:: types recorded to detect name collisions (a `map`
/// declared std::vector somewhere must poison the global verdict on `map`).
const std::set<std::string>& other_container_types() {
  static const std::set<std::string> types = {
      "vector", "array", "map", "set", "multimap", "multiset",
      "deque",  "list",  "string", "span", "initializer_list", "bitset"};
  return types;
}

/// Skips a balanced <...> starting at tokens[i] == "<"; returns the index
/// one past the closing ">", or `fail` when the angle run is clearly an
/// expression (hits ';' or end) — comparison operators masquerade as angles.
size_t skip_angles(const std::vector<Token>& tokens, size_t i, size_t fail) {
  int depth = 0;
  for (; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (tokens[i].kind != Token::Kind::punct) continue;
    if (t == "<") ++depth;
    else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ";" || t == "{") {
      return fail;
    }
  }
  return fail;
}

struct DeclTables {
  std::map<std::string, unsigned> names;  ///< declared identifier -> kind mask
};

/// Collects `std::<container><...> [&*] name` declarations (and one level of
/// `using Alias = std::unordered_*<...>` + `Alias name` declarations).
DeclTables collect_decls(const FileUnit& unit) {
  DeclTables out;
  const auto& tokens = unit.tokens;

  // Aliases first, so `Alias name` declarations later in the file resolve.
  std::set<std::string> unordered_aliases;
  for (size_t i = 0; i + 5 < tokens.size(); ++i) {
    if (tokens[i].text != "using" || tokens[i].kind != Token::Kind::ident) continue;
    if (tokens[i + 1].kind != Token::Kind::ident) continue;
    if (tokens[i + 2].text != "=") continue;
    if (tokens[i + 3].text != "std" || tokens[i + 4].text != "::") continue;
    if (unordered_types().count(tokens[i + 5].text) != 0) {
      unordered_aliases.insert(tokens[i + 1].text);
    }
  }

  auto record_after_type = [&](size_t after, unsigned kind) {
    // Past the template arguments: skip references/pointers, accept an
    // identifier introduced as a variable/field/parameter.
    size_t j = after;
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" || tokens[j].text == "const")) {
      ++j;
    }
    if (j + 1 >= tokens.size() || tokens[j].kind != Token::Kind::ident) return;
    // An attribute macro may sit between the name and the terminator, e.g.
    // `std::unordered_map<...> map MIGHTY_GUARDED_BY(mutex);` — skip it.
    size_t k = j + 1;
    if (tokens[k].kind == Token::Kind::ident && k + 1 < tokens.size() &&
        tokens[k + 1].text == "(") {
      int pd = 0;
      size_t m = k + 1;
      for (; m < tokens.size(); ++m) {
        if (tokens[m].text == "(") ++pd;
        else if (tokens[m].text == ")" && --pd == 0) { k = m + 1; break; }
      }
      if (pd != 0 || k >= tokens.size()) return;
    }
    const std::string& next = tokens[k].text;
    if (next == ";" || next == "=" || next == "{" || next == "(" || next == "," ||
        next == ")" || next == "[") {
      out.names[tokens[j].text] |= kind;
    }
  };

  for (size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].kind == Token::Kind::ident && tokens[i].text == "std" &&
        tokens[i + 1].text == "::" && tokens[i + 2].kind == Token::Kind::ident) {
      const std::string& type = tokens[i + 2].text;
      const bool unordered = unordered_types().count(type) != 0;
      if (!unordered && other_container_types().count(type) == 0) continue;
      size_t after;
      if (tokens[i + 3].text == "<") {
        after = skip_angles(tokens, i + 3, 0);
        if (after == 0) continue;
      } else if (type == "string") {
        after = i + 3;  // std::string has no template args at use sites
      } else {
        continue;
      }
      record_after_type(after, unordered ? kUnordered : kOther);
    } else if (tokens[i].kind == Token::Kind::ident &&
               unordered_aliases.count(tokens[i].text) != 0) {
      record_after_type(i + 1, kUnordered);
    }
  }
  return out;
}

class NondeterministicIterationCheck final : public Check {
public:
  std::string name() const override { return "nondeterministic-iteration"; }
  std::string description() const override {
    return "iteration over std::unordered_* in src/ (hash order breaks the "
           "bit-identical determinism contract)";
  }

  void scan_all(const std::vector<FileUnit>& units) override {
    decls_.clear();
    global_.names.clear();
    by_vpath_.clear();
    for (const FileUnit& unit : units) {
      DeclTables t = collect_decls(unit);
      for (const auto& [n, kind] : t.names) global_.names[n] |= kind;
      decls_.emplace(unit.vpath, std::move(t));
      by_vpath_.emplace(unit.vpath, &unit);
    }
    // Include closure per file (quoted includes only, resolved against the
    // project's include conventions: -Isrc plus sibling paths).
    for (const FileUnit& unit : units) {
      std::set<std::string> closure;
      std::vector<const FileUnit*> frontier{&unit};
      closure.insert(unit.vpath);
      while (!frontier.empty()) {
        const FileUnit* u = frontier.back();
        frontier.pop_back();
        const std::string dir = u->vpath.substr(0, u->vpath.find_last_of('/') + 1);
        for (const std::string& inc : u->quoted_includes) {
          for (const std::string& candidate :
               {std::string("src/") + inc, dir + inc, inc}) {
            const auto it = by_vpath_.find(candidate);
            if (it != by_vpath_.end() && closure.insert(candidate).second) {
              frontier.push_back(it->second);
            }
          }
        }
      }
      closure_.emplace(unit.vpath, std::move(closure));
    }
  }

  void run(const FileUnit& unit, Sink& sink) const override {
    if (!vpath_in(unit.vpath, "src/")) return;
    const auto& tokens = unit.tokens;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind != Token::Kind::ident || tokens[i].text != "for") continue;
      if (tokens[i + 1].text != "(") continue;
      inspect_for(unit, i + 1, sink);
    }
  }

private:
  /// 0 = not unordered / unknown, 1 = unordered.
  bool resolves_unordered(const FileUnit& unit, const std::string& name) const {
    unsigned mask = 0;
    const auto closure = closure_.find(unit.vpath);
    if (closure != closure_.end()) {
      for (const std::string& vpath : closure->second) {
        const auto t = decls_.find(vpath);
        if (t == decls_.end()) continue;
        const auto n = t->second.names.find(name);
        if (n != t->second.names.end()) mask |= n->second;
      }
    }
    if (mask != 0) return mask == kUnordered;
    const auto g = global_.names.find(name);
    return g != global_.names.end() && g->second == kUnordered;
  }

  void inspect_for(const FileUnit& unit, size_t open, Sink& sink) const {
    const auto& tokens = unit.tokens;
    // Find the matching ')', the first top-level ';' and the first
    // top-level ':' (a range-for has the ':' and no ';' before it).
    int depth = 0;
    size_t close = 0, semi = 0, colon = 0;
    for (size_t i = open; i < tokens.size(); ++i) {
      if (tokens[i].kind != Token::Kind::punct) continue;
      const std::string& t = tokens[i].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") {
        if (t == ")" && depth == 1) { close = i; break; }
        --depth;
      } else if (depth == 1 && t == ";" && semi == 0) semi = i;
      else if (depth == 1 && t == ":" && colon == 0) colon = i;
    }
    if (close == 0) return;

    if (colon != 0 && (semi == 0 || colon < semi)) {
      // Range-for: judge the terminal identifier of the range expression.
      // `x.f()` calls and `x[i]` subscripts yield unknowable types and are
      // skipped.
      if (close < 1) return;
      const Token& last = tokens[close - 1];
      if (last.kind != Token::Kind::ident || close - 1 <= colon) return;
      if (resolves_unordered(unit, last.text)) {
        report(unit, tokens[open].line, tokens[open].col, last.text, "range-for", sink);
      }
      return;
    }

    // Classic for: an iterator loop `for (auto it = X.begin(); ...`.
    const size_t init_end = semi == 0 ? close : semi;
    for (size_t i = open + 1; i + 3 < init_end; ++i) {
      if (tokens[i].kind != Token::Kind::ident) continue;
      if (tokens[i + 1].text != "." && tokens[i + 1].text != "->") continue;
      if (tokens[i + 2].text != "begin" && tokens[i + 2].text != "cbegin") continue;
      if (tokens[i + 3].text != "(") continue;
      if (resolves_unordered(unit, tokens[i].text)) {
        report(unit, tokens[i].line, tokens[i].col, tokens[i].text, "iterator loop",
               sink);
        return;
      }
    }
  }

  void report(const FileUnit& unit, int line, int col, const std::string& container,
              const std::string& how, Sink& sink) const {
    sink.report(unit, line, col, name(),
                how + " over std::unordered container '" + container +
                    "': visit order is hash- and history-dependent, which "
                    "breaks the bit-identical determinism contract — iterate "
                    "a sorted snapshot, or annotate the loop with a reasoned "
                    "allow if the body is provably order-independent");
  }

  std::map<std::string, DeclTables> decls_;          ///< by vpath
  std::map<std::string, const FileUnit*> by_vpath_;  ///< lookup for closure walk
  std::map<std::string, std::set<std::string>> closure_;
  DeclTables global_;
};

}  // namespace

std::unique_ptr<Check> make_nondeterministic_iteration_check() {
  return std::make_unique<NondeterministicIterationCheck>();
}

}  // namespace mighty::lint
