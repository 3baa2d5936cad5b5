#pragma once

#include <string>
#include <vector>

/// \file lexer.hpp
/// \brief Minimal C++ token scanner for mighty-lint.
///
/// mighty-lint works on a token stream, not an AST: it must build with
/// nothing but a C++20 compiler (see docs/linting.md).  The scanner
/// understands exactly as much C++ lexing as the checks need to be reliable:
/// comments (collected separately — the suppression syntax lives in them),
/// string/char literals including raw strings (so "std::mutex" inside a
/// message never looks like a type use), digit separators, preprocessor
/// lines (skipped wholesale, with quoted #include targets extracted for the
/// include-closure analysis), and `::` as a single token (so a range-for's
/// `:` separator is never confused with a scope operator).

namespace mighty::lint {

struct Token {
  enum class Kind { ident, number, string_lit, char_lit, punct, comment };
  Kind kind;
  std::string text;
  int line = 0;  ///< 1-based
  int col = 0;   ///< 1-based
};

struct LexResult {
  std::vector<Token> tokens;    ///< code tokens, comments excluded
  std::vector<Token> comments;  ///< comment tokens (text without delimiters)
  std::vector<std::string> quoted_includes;  ///< #include "..." targets, in order
};

/// Scans `content`; never fails (unknown bytes are skipped).
LexResult lex(const std::string& content);

}  // namespace mighty::lint
