// Minimal C++ lexer for uvmsim_lint.
//
// The analyzer works at the token level: identifiers, numbers, literals, and
// punctuation, with comments and preprocessor directives captured on the
// side (comments carry suppressions; directives carry includes and pragmas).
// This is deliberately not a full C++ front end — no macro expansion, no
// template instantiation — which keeps the tool dependency-free and fast
// while still being exact enough for identifier-level rules (no substring
// false positives like `transfer_time(` matching a naive `time(` grep).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uvmsim::lint {

enum class TokKind : std::uint8_t {
  Identifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  Number,      ///< integer/float literal, digit separators included
  String,      ///< string literal (ordinary, prefixed, or raw)
  CharLit,     ///< character literal
  Punct,       ///< operator/punctuator, greedily matched ("::", "->", ...)
};

struct Token {
  TokKind kind = TokKind::Punct;
  std::string text;
  int line = 1;  ///< 1-based line of the token's first character
};

/// A comment (text includes the delimiters) or preprocessor directive line
/// (text is the full logical line, continuations folded), with its line.
struct SideText {
  std::string text;
  int line = 1;
};

struct LexedFile {
  std::vector<Token> tokens;        ///< code tokens, in order
  std::vector<SideText> comments;   ///< // and /* */ comments, in order
  std::vector<SideText> directives; ///< #... logical lines, in order
};

/// Tokenizes `source`. Never fails: unrecognized bytes become single-char
/// Punct tokens, unterminated literals run to end of file.
[[nodiscard]] LexedFile lex_file(const std::string& source);

}  // namespace uvmsim::lint
