// Shared lexical layer for dnslint's two engines: the line/token rules
// (lint.cc, R1-R6 and R10) and the scope-aware lock analysis (scopes.cc,
// R7-R9).
//
// scrub() blanks comment/string/char-literal bodies to spaces while
// preserving length and line structure, so token scans can never be fooled
// by quoted or commented-out code; the comments themselves are captured for
// directive parsing (`// dnslint: allow(...)`).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dnslocate::lint {

[[nodiscard]] bool is_ident_char(char c);

/// A comment extracted during scrubbing (directives live in comments).
struct CommentSpan {
  std::size_t line = 0;    // 1-based line of the comment's first character
  bool owns_line = false;  // nothing but whitespace precedes it on that line
  std::string text;
};

/// Source with comment/string/char-literal bodies blanked to spaces.
/// Same length and line structure as the input.
struct Scrubbed {
  std::string code;
  std::vector<CommentSpan> comments;
};

[[nodiscard]] Scrubbed scrub(std::string_view src);

/// Split on '\n'; the views alias `text`.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

/// Find `word` as a whole identifier in `line`, starting at `from`.
[[nodiscard]] std::size_t find_ident(std::string_view line, std::string_view word,
                                     std::size_t from = 0);

[[nodiscard]] std::size_t skip_ws(std::string_view line, std::size_t pos);

/// Is the identifier at [pos, pos+len) called as a function (next token '(')?
[[nodiscard]] bool is_call(std::string_view line, std::size_t pos, std::size_t len);

/// Is the identifier at `pos` a member access (`x.foo`, `x->foo`)?
[[nodiscard]] bool is_member_access(std::string_view line, std::size_t pos);

/// The `::` qualifier immediately before the identifier at `pos` (empty for
/// the global namespace or none).
[[nodiscard]] std::string_view qualifier(std::string_view line, std::size_t pos);

/// One lexical token of scrubbed code: an identifier (possibly a keyword) or
/// a single punctuation character. Numbers are folded into `number`.
struct Token {
  enum class Kind { ident, punct, number };
  Kind kind = Kind::punct;
  std::string_view text;  // aliases the scrubbed code
  std::size_t line = 0;   // 1-based
};

/// Tokenize scrubbed code (comments/strings already blanked). Whitespace is
/// dropped; every other byte becomes an ident/number/punct token.
[[nodiscard]] std::vector<Token> tokenize(std::string_view scrubbed_code);

}  // namespace dnslocate::lint
