#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check.hpp"
#include "compile_commands.hpp"
#include "diagnostics.hpp"

/// mighty-lint — the project's semantic invariant linter.
///
/// Generic tooling (clang-tidy, -Wall) cannot know that threads=N must be
/// bit-identical to threads=1, that persistent artifacts are written
/// atomically, that wire enums are frozen, or that all locking goes through
/// util::Mutex.  mighty-lint states those contracts once as checks and
/// gates them in CI and ctest.  See docs/linting.md for the check catalog,
/// the suppression syntax, and how to add a check.  The checks run on a
/// token stream (lexer.hpp), so the linter builds with plain C++20.

namespace mighty::lint {

namespace {

namespace fs = std::filesystem;

struct Options {
  std::string root = ".";
  std::string build_dir;            ///< -p: compile_commands.json location
  std::string as_vpath;             ///< --as: virtual path for a single input
  std::vector<std::string> paths;   ///< files or directories to lint
  std::set<std::string> only;       ///< --check filters
  bool list_checks = false;
  bool quiet = false;
};

constexpr const char* kUsage =
    "usage: mighty-lint [options] [path...]\n"
    "\n"
    "Lints C++ sources against the project's semantic invariants\n"
    "(docs/linting.md).  Paths may be files or directories (searched for\n"
    "*.cpp/*.hpp/*.h); with no paths, lints src/ tools/ examples/ bench/\n"
    "fuzz/ under --root.  Exit status: 0 clean, 1 findings, 2 usage error.\n"
    "\n"
    "  --root <dir>    project root for path scoping (default: .)\n"
    "  -p <build-dir>  also lint the project files listed in\n"
    "                  <build-dir>/compile_commands.json\n"
    "  --as <vpath>    treat a single input file as this project-relative\n"
    "                  path (fixture testing)\n"
    "  --check <name>  run only this check (repeatable)\n"
    "  --list-checks   print the check catalog and exit\n"
    "  --quiet         suppress the summary line\n"
    "\n"
    "Suppression (reason required):\n"
    "  code();  // mighty-lint: allow(<check>): <reason>\n";

bool has_cpp_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Project-relative '/'-separated path for scoping; falls back to the input
/// spelling when the file is outside the root.
std::string vpath_for(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path canonical_file = fs::weakly_canonical(file, ec);
  const fs::path canonical_root = fs::weakly_canonical(root, ec);
  const fs::path rel = canonical_file.lexically_relative(canonical_root);
  const std::string s = rel.generic_string();
  if (s.empty() || s.compare(0, 2, "..") == 0) return file.generic_string();
  return s;
}

std::vector<std::string> collect_files(const Options& options, std::string& error) {
  std::vector<std::string> files;
  std::vector<std::string> roots = options.paths;
  if (roots.empty()) {
    for (const char* tree : {"src", "tools", "examples", "bench", "fuzz"}) {
      const fs::path p = fs::path(options.root) / tree;
      if (fs::exists(p)) roots.push_back(p.string());
    }
  } else {
    for (std::string& p : roots) {
      if (!fs::path(p).is_absolute() && !fs::exists(p) &&
          fs::exists(fs::path(options.root) / p)) {
        p = (fs::path(options.root) / p).string();
      }
    }
  }
  for (const std::string& entry : roots) {
    const fs::path p(entry);
    if (fs::is_directory(p)) {
      for (auto it = fs::recursive_directory_iterator(p);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && has_cpp_extension(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p.string());
    } else {
      error = "no such file or directory: " + entry;
      return {};
    }
  }
  if (!options.build_dir.empty()) {
    for (const std::string& f : compile_commands_files(options.build_dir)) {
      if (!fs::exists(f) || !has_cpp_extension(f)) continue;
      // The database lists everything the build compiles — tests included —
      // but the lint contract covers the production trees only (tests may
      // use raw streams and test-framework asserts freely).
      const std::string vpath = vpath_for(f, options.root);
      for (const char* tree : {"src/", "tools/", "examples/", "bench/", "fuzz/"}) {
        if (vpath_in(vpath, tree)) {
          files.push_back(f);
          break;
        }
      }
    }
  }
  // Canonicalize before dedup: the same file reached via the tree walk and
  // via the database ("./src/x.cpp" vs "/abs/src/x.cpp") must be one unit,
  // or its allow comments register twice and the duplicates read as stale.
  for (std::string& f : files) {
    std::error_code ec;
    const fs::path canonical = fs::weakly_canonical(f, ec);
    if (!ec) f = canonical.string();
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

int run(const Options& options) {
  auto checks = make_all_checks();
  if (options.list_checks) {
    for (const auto& check : checks) {
      std::printf("%-28s %s\n", check->name().c_str(), check->description().c_str());
    }
    return 0;
  }
  std::set<std::string> known;
  for (const auto& check : checks) known.insert(check->name());
  for (const std::string& name : options.only) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "mighty-lint: unknown check '%s' (see --list-checks)\n",
                   name.c_str());
      return 2;
    }
  }

  std::string error;
  const std::vector<std::string> files = collect_files(options, error);
  if (!error.empty()) {
    std::fprintf(stderr, "mighty-lint: %s\n", error.c_str());
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "mighty-lint: no input files\n");
    return 2;
  }
  if (!options.as_vpath.empty() && files.size() != 1) {
    std::fprintf(stderr, "mighty-lint: --as requires exactly one input file\n");
    return 2;
  }

  std::vector<FileUnit> units;
  units.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream is(file, std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "mighty-lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    FileUnit unit;
    unit.fs_path = file;
    unit.vpath = options.as_vpath.empty() ? vpath_for(file, options.root)
                                          : options.as_vpath;
    unit.content = buffer.str();
    LexResult lexed = lex(unit.content);
    unit.tokens = std::move(lexed.tokens);
    unit.comments = std::move(lexed.comments);
    unit.quoted_includes = std::move(lexed.quoted_includes);
    units.push_back(std::move(unit));
  }

  DiagnosticEngine engine(known);
  for (const FileUnit& unit : units) engine.register_file(unit);

  for (const auto& check : checks) {
    if (!options.only.empty() && options.only.count(check->name()) == 0) continue;
    check->scan_all(units);
    for (const FileUnit& unit : units) check->run(unit, engine);
  }
  // A stale allow is only provably stale when every check had its chance.
  if (options.only.empty()) engine.flag_unused_allows();

  const size_t findings = engine.flush(stdout);
  if (!options.quiet) {
    std::printf("mighty-lint: %zu finding(s), %zu suppressed, %zu file(s)\n",
                findings, engine.suppressed_count(), units.size());
  }
  return findings == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mighty::lint

int main(int argc, char** argv) {
  using mighty::lint::Options;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mighty-lint: %s needs a value\n%s", arg.c_str(),
                     mighty::lint::kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") options.root = value();
    else if (arg == "-p") options.build_dir = value();
    else if (arg == "--as") options.as_vpath = value();
    else if (arg == "--check") options.only.insert(value());
    else if (arg == "--list-checks") options.list_checks = true;
    else if (arg == "--quiet") options.quiet = true;
    else if (arg == "--help" || arg == "-h") {
      std::fputs(mighty::lint::kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mighty-lint: unknown option %s\n%s", arg.c_str(),
                   mighty::lint::kUsage);
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }
  try {
    return mighty::lint::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mighty-lint: %s\n", e.what());
    return 2;
  }
}
