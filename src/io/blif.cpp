#include <deque>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "api/error.hpp"
#include "io/io.hpp"
#include "tt/truth_table.hpp"
#include "util/atomic_file.hpp"

namespace mighty::io {

namespace {

std::string node_name(const mig::Mig& mig, uint32_t index) {
  // Prefix via insert on an lvalue, not operator+(const char*, string&&):
  // the rvalue overload trips a GCC 12 -Wrestrict false positive here.
  if (mig.is_constant(index)) return "const0";
  std::string name = std::to_string(mig.is_pi(index) ? mig.pi_index(index) : index);
  name.insert(0, 1, mig.is_pi(index) ? 'x' : 'n');
  return name;
}

/// Builds an arbitrary function of up to 6 leaves by Shannon decomposition.
mig::Signal build_function(mig::Mig& m, const tt::TruthTable& f,
                           std::span<const mig::Signal> leaves) {
  if (f.is_const0()) return m.get_constant(false);
  if (f.is_const1()) return m.get_constant(true);
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if (f == tt::TruthTable::projection(f.num_vars(), v)) return leaves[v];
    if (f == ~tt::TruthTable::projection(f.num_vars(), v)) return !leaves[v];
  }
  // Majority of three (possibly complemented) leaves becomes one gate, so a
  // write_blif/read_blif round trip reconstructs a MIG gate-for-gate instead
  // of inflating each gate into its Shannon decomposition.  Eight input
  // polarity combinations suffice: majority is self-dual, so a complemented
  // output is some all-complemented input combination.
  if (f.num_vars() == 3) {
    const auto p0 = tt::TruthTable::projection(3, 0);
    const auto p1 = tt::TruthTable::projection(3, 1);
    const auto p2 = tt::TruthTable::projection(3, 2);
    for (uint32_t polarity = 0; polarity < 8; ++polarity) {
      const auto a = (polarity & 1) != 0 ? ~p0 : p0;
      const auto b = (polarity & 2) != 0 ? ~p1 : p1;
      const auto c = (polarity & 4) != 0 ? ~p2 : p2;
      if (f == ((a & b) | (a & c) | (b & c))) {
        return m.create_maj((polarity & 1) != 0 ? !leaves[0] : leaves[0],
                            (polarity & 2) != 0 ? !leaves[1] : leaves[1],
                            (polarity & 4) != 0 ? !leaves[2] : leaves[2]);
      }
    }
  }
  // Split on the highest support variable.
  uint32_t var = 0;
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if (f.depends_on(v)) var = v;
  }
  const auto f0 = build_function(m, f.cofactor(var, false), leaves);
  const auto f1 = build_function(m, f.cofactor(var, true), leaves);
  return m.create_ite(leaves[var], f1, f0);
}

}  // namespace

void write_blif(std::ostream& os, const mig::Mig& mig, const std::string& model_name) {
  os << ".model " << model_name << '\n';
  os << ".inputs";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << " x" << i;
  os << '\n';
  os << ".outputs";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) os << " y" << o;
  os << '\n';

  const auto live = mig.live_mask();
  bool const_used = live[mig::Mig::constant_node];
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    if (f[0].index() == mig::Mig::constant_node) const_used = true;
  }
  if (const_used) os << ".names const0\n";  // empty cover = constant 0

  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    os << ".names " << node_name(mig, f[0].index()) << ' ' << node_name(mig, f[1].index())
       << ' ' << node_name(mig, f[2].index()) << ' ' << node_name(mig, n) << '\n';
    // Majority ON-set {11-, 1-1, -11}, with complemented fanins flipping the
    // corresponding care literal.
    const char one[3] = {f[0].is_complemented() ? '0' : '1',
                         f[1].is_complemented() ? '0' : '1',
                         f[2].is_complemented() ? '0' : '1'};
    os << one[0] << one[1] << "- 1\n";
    os << one[0] << '-' << one[2] << " 1\n";
    os << '-' << one[1] << one[2] << " 1\n";
  }

  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    const mig::Signal s = mig.output(o);
    os << ".names " << node_name(mig, s.index()) << " y" << o << '\n';
    os << (s.is_complemented() ? "0 1\n" : "1 1\n");
  }
  os << ".end\n";
}

void write_blif_file(const std::string& path, const mig::Mig& mig,
                     const std::string& model_name) {
  // Atomic tmp+rename: a crash mid-write must not leave a truncated BLIF
  // behind (downstream flows re-read these files).
  try {
    util::write_file_atomically(
        path, [&](std::ostream& os) { write_blif(os, mig, model_name); });
  } catch (const api::Error&) {
    throw;
  } catch (const std::exception& e) {
    throw api::Error(api::ErrorCode::io_error, e.what());
  }
}

namespace {

/// Whitespace as operator>> skips it in the classic locale.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Removes and returns the first token of `rest`; empty when none is left.
std::string_view next_token(std::string_view& rest) {
  size_t begin = 0;
  while (begin < rest.size() && is_blank(rest[begin])) ++begin;
  size_t end = begin;
  while (end < rest.size() && !is_blank(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// The tokens of `line` joined by single spaces (how errors quote a row).
std::string joined_tokens(std::string_view line) {
  std::string out;
  for (auto token = next_token(line); !token.empty(); token = next_token(line)) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

}  // namespace

mig::Mig read_blif(std::string_view text) {
  auto error_at = [](size_t line, const std::string& what) {
    // Still a std::runtime_error for pre-taxonomy catch sites, now carrying
    // the stable code the api layer and wire protocol report.
    return api::Error(api::ErrorCode::invalid_network,
                      "BLIF line " + std::to_string(line) + ": " + what);
  };

  // Split into logical lines: strip '\r' (CRLF exports), cut '#' comments,
  // and join backslash continuations (tolerating whitespace after the
  // backslash, which common exporters emit).  Each logical line remembers the
  // physical line it started on, so parse errors point into the file.  Lines
  // are views into `text`; only joined continuations need their own storage.
  struct LogicalLine {
    std::string_view text;
    size_t line;
  };
  std::vector<LogicalLine> logical_lines;
  std::deque<std::string> joined;  // stable addresses for the views
  std::string pending;  // non-empty exactly while a continuation is open
  size_t line_number = 0, pending_line = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    if (pending.empty()) pending_line = line_number;
    const auto last = line.find_last_not_of(" \t");
    if (last != std::string_view::npos && line[last] == '\\') {
      pending += line.substr(0, last);
      pending += ' ';  // the continuation joins tokens, it must not fuse them
      continue;
    }
    if (!pending.empty()) {
      pending += line;
      line = joined.emplace_back(std::move(pending));
      pending.clear();
    }
    if (line.find_first_not_of(" \t") != std::string_view::npos) {
      logical_lines.push_back({line, pending_line});
    }
  }
  if (!pending.empty()) {
    throw error_at(pending_line, "backslash continuation at end of file");
  }

  // A table's input names and cover rows are contiguous runs of the shared
  // pools: rows only ever extend the most recent table.
  struct Table {
    std::string_view output;
    size_t first_input = 0;
    size_t num_inputs = 0;
    size_t first_row = 0;
    size_t num_rows = 0;
    size_t line = 0;  ///< physical line of the .names directive (for errors)
    bool in_progress = false;  ///< on the resolution stack (cycle detection)
  };
  std::vector<std::string_view> input_names;
  std::vector<std::string_view> output_names;
  std::vector<std::string_view> table_inputs;
  std::vector<std::string_view> rows;  ///< each a whole logical line
  std::vector<Table> tables;
  size_t outputs_line = 0;
  bool in_table = false;
  for (const auto& logical : logical_lines) {
    std::string_view rest = logical.text;
    const std::string_view head = next_token(rest);
    if (head.empty()) continue;
    if (head == ".model" || head == ".end") {
      in_table = false;
      continue;
    }
    if (head == ".inputs" || head == ".outputs") {
      auto& names = head == ".inputs" ? input_names : output_names;
      for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
        names.push_back(name);
      }
      if (head == ".outputs") outputs_line = logical.line;
      in_table = false;
      continue;
    }
    if (head == ".names") {
      Table t;
      t.first_input = table_inputs.size();
      t.first_row = rows.size();
      t.line = logical.line;
      for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
        table_inputs.push_back(name);
      }
      if (table_inputs.size() == t.first_input) {
        throw error_at(logical.line, ".names without signals");
      }
      t.output = table_inputs.back();
      table_inputs.pop_back();
      t.num_inputs = table_inputs.size() - t.first_input;
      tables.push_back(t);
      in_table = true;
      continue;
    }
    if (head[0] == '.') {
      throw error_at(logical.line, "unsupported BLIF construct: " + std::string(head));
    }
    if (!in_table) {
      throw error_at(logical.line, "cover row outside .names");
    }
    // Keep the whole line: extra columns must surface as a parse error when
    // the table is built, not be silently dropped.
    rows.push_back(logical.text);
    ++tables.back().num_rows;
  }

  // Every name, mapped to its signal once resolved and to its driving table
  // (the last one that names it as output).  Inputs win over tables.
  constexpr size_t no_table = std::numeric_limits<size_t>::max();
  struct Name {
    mig::Signal signal;
    bool resolved = false;
    size_t table = no_table;
  };
  std::unordered_map<std::string_view, Name> names;
  names.reserve(input_names.size() + tables.size());
  mig::Mig m;
  for (const auto name : input_names) {
    Name& entry = names[name];
    entry.signal = m.create_pi();
    entry.resolved = true;
  }
  for (size_t i = 0; i < tables.size(); ++i) names[tables[i].output].table = i;

  // Builds one table's function over already-resolved leaves.  Rows are
  // checked here, so a malformed row in a table no output reaches is not
  // an error.
  auto build_table = [&](const Table& t, std::span<const mig::Signal> leaves) {
    const auto k = static_cast<uint32_t>(t.num_inputs);  // at most 4, checked at push
    uint32_t on_set = 0;
    bool output_one = true;
    for (size_t r = t.first_row; r < t.first_row + t.num_rows; ++r) {
      auto row_error = [&](const char* what) {
        return error_at(t.line, std::string(what) + " '" + std::string(t.output) +
                                    "': " + joined_tokens(rows[r]));
      };
      std::string_view rest = rows[r];
      const std::string_view pattern = k == 0 ? std::string_view() : next_token(rest);
      const std::string_view value = next_token(rest);
      if (value.empty()) throw row_error("malformed cover row in table");
      if (!next_token(rest).empty()) throw row_error("trailing tokens in cover row of table");
      if (pattern.size() != k) throw row_error("cover row width mismatch in table");
      output_one = value == "1";
      // The row covers every minterm that agrees with its care literals;
      // any character other than '0' and '1' is a don't-care.
      uint32_t care = 0;
      uint32_t ones = 0;
      for (uint32_t i = 0; i < k; ++i) {
        if (pattern[i] == '0' || pattern[i] == '1') care |= 1u << i;
        if (pattern[i] == '1') ones |= 1u << i;
      }
      for (uint32_t mt = 0; mt < (1u << k); ++mt) {
        if ((mt & care) == ones) on_set |= 1u << mt;
      }
    }
    tt::TruthTable f(k, on_set);
    if (t.num_rows != 0 && !output_one) f = ~f;
    if (t.num_rows == 0) f = tt::TruthTable::constant(k, false);
    return build_function(m, f, leaves);
  };

  // Resolve signals with an explicit stack (BLIF does not promise
  // topological order, and call-stack recursion would overflow on deeply
  // chained tables — adversarial inputs nest thousands).  `referenced_at`
  // is the line mentioning the name, so "signal without driver" points at
  // the use, not somewhere downstream.  A table reached again while it is
  // still being resolved closes a combinational cycle, which recursion
  // would chase forever.  The resolved inputs of every open frame sit on
  // one shared stack, the top frame's last.
  struct Frame {
    Name* name;
    Table* table;
    size_t first_leaf;  ///< start of this frame's resolved inputs in `leaves`
  };
  std::vector<Frame> stack;
  std::vector<mig::Signal> leaves;

  // Returns the signal when `name` is already resolved, otherwise pushes a
  // frame for its driving table and returns nullptr.
  auto lookup_or_push = [&](std::string_view name,
                            size_t referenced_at) -> const mig::Signal* {
    const auto it = names.find(name);
    if (it != names.end() && it->second.resolved) return &it->second.signal;
    if (it == names.end() || it->second.table == no_table) {
      throw error_at(referenced_at, "signal without driver: " + std::string(name));
    }
    Table& t = tables[it->second.table];
    if (t.num_inputs > 4) {
      throw error_at(t.line, "table with more than 4 inputs: " + std::string(name));
    }
    if (t.in_progress) {
      throw error_at(t.line, "combinational cycle through signal: " + std::string(name));
    }
    t.in_progress = true;
    stack.push_back({&it->second, &t, leaves.size()});
    return nullptr;
  };

  auto resolve = [&](std::string_view root, size_t referenced_at) -> mig::Signal {
    if (const auto* s = lookup_or_push(root, referenced_at)) return *s;
    while (!stack.empty()) {
      const Frame top = stack.back();
      const size_t done = leaves.size() - top.first_leaf;
      if (done < top.table->num_inputs) {
        const std::string_view next = table_inputs[top.table->first_input + done];
        // Either consumes an already-resolved leaf or pushes its table;
        // the loop revisits this frame after the new frame completes.
        if (const auto* s = lookup_or_push(next, top.table->line)) leaves.push_back(*s);
        continue;
      }
      top.name->signal = build_table(
          *top.table, std::span<const mig::Signal>(leaves).subspan(top.first_leaf));
      top.name->resolved = true;
      top.table->in_progress = false;
      leaves.resize(top.first_leaf);
      stack.pop_back();
    }
    return names.find(root)->second.signal;
  };

  for (const auto name : output_names) {
    m.create_po(resolve(name, outputs_line));
  }
  return m;
}

mig::Mig read_blif(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  return read_blif(text.view());
}

mig::Mig read_blif_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw api::Error(api::ErrorCode::io_error, "cannot open " + path);
  try {
    return read_blif(is);
  } catch (const api::Error& e) {
    // Parse errors carry the line; corpus loads read many files, so name
    // the file too.  Rethrown with the same code — prefixing the path must
    // not downgrade invalid_network to internal.
    throw api::Error(e.code(), path + ": " + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace mighty::io
