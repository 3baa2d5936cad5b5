#include "lexer.hpp"

#include <cctype>

namespace mighty::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Scanner {
public:
  explicit Scanner(const std::string& content) : s_(content) {}

  LexResult run() {
    while (pos_ < s_.size()) {
      start_line_ = line_;
      start_col_ = col_;
      const char c = s_[pos_];
      if (c == '\n' || c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        line_comment();
      } else if (c == '/' && peek(1) == '*') {
        block_comment();
      } else if (c == '#' && at_line_start_) {
        preprocessor_line();
      } else if (c == '"') {
        string_literal();
      } else if (c == '\'') {
        char_literal();
      } else if (ident_start(c)) {
        identifier();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        number();
      } else {
        punct();
      }
    }
    return std::move(result_);
  }

private:
  char peek(size_t ahead) const {
    return pos_ + ahead < s_.size() ? s_[pos_ + ahead] : '\0';
  }

  void advance() {
    if (s_[pos_] == '\n') {
      ++line_;
      col_ = 1;
      at_line_start_ = true;
    } else {
      if (!std::isspace(static_cast<unsigned char>(s_[pos_]))) at_line_start_ = false;
      ++col_;
    }
    ++pos_;
  }

  void emit(Token::Kind kind, std::string text) {
    result_.tokens.push_back({kind, std::move(text), start_line_, start_col_});
  }

  void line_comment() {
    advance();  // '/'
    advance();  // '/'
    std::string text;
    while (pos_ < s_.size() && s_[pos_] != '\n') {
      text.push_back(s_[pos_]);
      advance();
    }
    result_.comments.push_back({Token::Kind::comment, text, start_line_, start_col_});
  }

  void block_comment() {
    advance();  // '/'
    advance();  // '*'
    std::string text;
    while (pos_ < s_.size() && !(s_[pos_] == '*' && peek(1) == '/')) {
      text.push_back(s_[pos_]);
      advance();
    }
    if (pos_ < s_.size()) {
      advance();  // '*'
      advance();  // '/'
    }
    result_.comments.push_back({Token::Kind::comment, text, start_line_, start_col_});
  }

  /// Skips a whole logical preprocessor line (backslash continuations
  /// included), after extracting any quoted #include target.  Macro bodies
  /// are deliberately invisible to the checks (a documented limitation of
  /// token-level matching).
  void preprocessor_line() {
    std::string text;
    while (pos_ < s_.size()) {
      if (s_[pos_] == '\\' && peek(1) == '\n') {
        advance();
        advance();
        continue;
      }
      if (s_[pos_] == '\n') break;
      // A trailing // comment would hide the newline otherwise; a /* on a
      // directive line is rare enough to ignore (worst case: the rest of the
      // directive line joins the comment text).
      if (s_[pos_] == '/' && peek(1) == '/') {
        line_comment();
        break;
      }
      text.push_back(s_[pos_]);
      advance();
    }
    // `#  include "path"` with arbitrary interior whitespace.
    size_t i = 1;  // past '#'
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (text.compare(i, 7, "include") == 0) {
      i += 7;
      while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
      if (i < text.size() && text[i] == '"') {
        const size_t end = text.find('"', i + 1);
        if (end != std::string::npos) {
          result_.quoted_includes.push_back(text.substr(i + 1, end - i - 1));
        }
      }
    }
  }

  void string_literal() {
    advance();  // opening quote
    std::string text;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\n') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        text.push_back(s_[pos_]);
        advance();
      }
      text.push_back(s_[pos_]);
      advance();
    }
    if (pos_ < s_.size() && s_[pos_] == '"') advance();
    emit(Token::Kind::string_lit, text);
  }

  void raw_string_literal() {
    advance();  // opening quote
    std::string delim;
    while (pos_ < s_.size() && s_[pos_] != '(') {
      delim.push_back(s_[pos_]);
      advance();
    }
    if (pos_ < s_.size()) advance();  // '('
    const std::string closer = ")" + delim + "\"";
    std::string text;
    while (pos_ < s_.size() && s_.compare(pos_, closer.size(), closer) != 0) {
      text.push_back(s_[pos_]);
      advance();
    }
    for (size_t i = 0; i < closer.size() && pos_ < s_.size(); ++i) advance();
    emit(Token::Kind::string_lit, text);
  }

  void char_literal() {
    advance();  // opening quote
    std::string text;
    while (pos_ < s_.size() && s_[pos_] != '\'' && s_[pos_] != '\n') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        text.push_back(s_[pos_]);
        advance();
      }
      text.push_back(s_[pos_]);
      advance();
    }
    if (pos_ < s_.size() && s_[pos_] == '\'') advance();
    emit(Token::Kind::char_lit, text);
  }

  void identifier() {
    std::string text;
    while (pos_ < s_.size() && ident_char(s_[pos_])) {
      text.push_back(s_[pos_]);
      advance();
    }
    // Raw / encoding-prefixed string literal: the prefix is not a token.
    if (pos_ < s_.size() && s_[pos_] == '"' &&
        (text == "R" || text == "u8R" || text == "uR" || text == "UR" || text == "LR")) {
      raw_string_literal();
      return;
    }
    if (pos_ < s_.size() && s_[pos_] == '"' &&
        (text == "u8" || text == "u" || text == "U" || text == "L")) {
      string_literal();
      return;
    }
    emit(Token::Kind::ident, text);
  }

  void number() {
    std::string text;
    while (pos_ < s_.size() &&
           (ident_char(s_[pos_]) || s_[pos_] == '.' ||
            (s_[pos_] == '\'' && ident_char(peek(1))))) {
      text.push_back(s_[pos_]);
      advance();
    }
    emit(Token::Kind::number, text);
  }

  void punct() {
    // `::` and `->` matter to the checks (scope vs. label colon, member
    // chains); every other operator can stay single-character.
    if ((s_[pos_] == ':' && peek(1) == ':') || (s_[pos_] == '-' && peek(1) == '>')) {
      std::string text{s_[pos_], peek(1)};
      advance();
      advance();
      emit(Token::Kind::punct, text);
      return;
    }
    std::string text(1, s_[pos_]);
    advance();
    emit(Token::Kind::punct, text);
  }

  const std::string& s_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int start_line_ = 1;
  int start_col_ = 1;
  bool at_line_start_ = true;
  LexResult result_;
};

}  // namespace

LexResult lex(const std::string& content) { return Scanner(content).run(); }

}  // namespace mighty::lint
