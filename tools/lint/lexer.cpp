#include "lexer.h"

#include <array>
#include <cstddef>
#include <string_view>

namespace uvmsim::lint {

namespace {

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }
bool digit(char c) { return c >= '0' && c <= '9'; }

// Multi-character punctuators, longest first so greedy matching is correct.
constexpr std::array<std::string_view, 22> kPuncts = {
    "<<=", ">>=", "<=>", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "++", "--", "+=", "-=", "*=", "/=", "%="};

}  // namespace

LexedFile lex_file(const std::string& source) {
  LexedFile out;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? source[i + k] : '\0';
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && peek(1) == '/') {
      std::size_t j = i + 2;
      while (j < n && source[j] != '\n') ++j;
      out.comments.push_back({source.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(source[j] == '*' && source[j + 1] == '/')) {
        if (source[j] == '\n') ++line;
        ++j;
      }
      j = (j + 1 < n) ? j + 2 : n;
      out.comments.push_back({source.substr(i, j - i), start});
      i = j;
      continue;
    }
    // Preprocessor directive: '#' first on its logical line; fold
    // backslash-newline continuations into one SideText.
    if (c == '#' && at_line_start) {
      const int start = line;
      std::string text;
      std::size_t j = i;
      while (j < n) {
        if (source[j] == '\\' && j + 1 < n && source[j + 1] == '\n') {
          text += ' ';
          ++line;
          j += 2;
          continue;
        }
        if (source[j] == '\n') break;
        text += source[j];
        ++j;
      }
      out.directives.push_back({text, start});
      i = j;
      continue;
    }
    at_line_start = false;
    // String literal (ordinary; prefixed/raw handled from the identifier
    // branch below, which owns the prefix characters).
    if (c == '"') {
      const int start = line;
      std::size_t j = i + 1;
      while (j < n) {
        if (source[j] == '\\') {
          j += 2;
          continue;
        }
        if (source[j] == '"') {
          ++j;
          break;
        }
        if (source[j] == '\n') ++line;
        ++j;
      }
      out.tokens.push_back({TokKind::String, source.substr(i, j - i), start});
      i = j;
      continue;
    }
    if (c == '\'') {
      const int start = line;
      std::size_t j = i + 1;
      while (j < n) {
        if (source[j] == '\\') {
          j += 2;
          continue;
        }
        if (source[j] == '\'') {
          ++j;
          break;
        }
        if (source[j] == '\n') {  // stray quote; bail to avoid runaway
          break;
        }
        ++j;
      }
      out.tokens.push_back({TokKind::CharLit, source.substr(i, j - i), start});
      i = j;
      continue;
    }
    if (digit(c) || (c == '.' && digit(peek(1)))) {
      std::size_t j = i;
      while (j < n) {
        const char d = source[j];
        if (ident_char(d) || d == '.' ||
            (d == '\'' && j + 1 < n && ident_char(source[j + 1]))) {
          // exponent signs: 1e+9, 0x1p-3
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j + 1 < n &&
              (source[j + 1] == '+' || source[j + 1] == '-')) {
            j += 2;
            continue;
          }
          ++j;
          continue;
        }
        break;
      }
      out.tokens.push_back({TokKind::Number, source.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(source[j])) ++j;
      std::string text = source.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim" with optional u8/u/L prefix.
      if (j < n && source[j] == '"' &&
          (text == "R" || text == "u8R" || text == "uR" || text == "LR")) {
        const int start = line;
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && source[k] != '(' && source[k] != '\n') {
          delim += source[k];
          ++k;
        }
        const std::string close = ")" + delim + "\"";
        std::size_t end = source.find(close, k);
        if (end == std::string::npos) {
          end = n;
        } else {
          end += close.size();
        }
        for (std::size_t p = i; p < end && p < n; ++p) {
          if (source[p] == '\n') ++line;
        }
        out.tokens.push_back(
            {TokKind::String, source.substr(i, end - i), start});
        i = end;
        continue;
      }
      out.tokens.push_back({TokKind::Identifier, std::move(text), line});
      i = j;
      continue;
    }
    // Punctuator: greedy multi-char match, else the single character.
    bool matched = false;
    for (std::string_view p : kPuncts) {
      if (source.compare(i, p.size(), p) == 0) {
        out.tokens.push_back({TokKind::Punct, std::string(p), line});
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({TokKind::Punct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

}  // namespace uvmsim::lint
