// A small C++ lexer for ddanalyze (tools/ddanalyze/README in DESIGN.md §7).
//
// It is not a compiler front end: it produces identifier / number / punctuator
// tokens with line numbers, strips comments and string literals, records
// preprocessor directives (so the include-graph builder and the include-guard
// rule can read them), and extracts `// ddanalyze: <rule>-ok(reason)` waiver
// comments. That is enough for the token-level rules and keeps the tool
// dependency-free.
#ifndef DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_
#define DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ddanalyze {

enum class TokKind {
  kIdent,  // identifiers and keywords
  kNumber, // integer / floating literals (text preserved)
  kPunct,  // operators and punctuation, multi-char ops kept whole
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

// One `#include "..."` directive (angle-bracket includes are recorded with
// angled=true so the layer rule can ignore system headers).
struct IncludeDirective {
  std::string path;
  int line = 0;
  bool angled = false;
};

// Any other directive: its keyword ("ifndef", "define", "if", ...) and the
// rest of its logical line, lexed. Tokens keep their physical line numbers
// across `\` continuations. The include-guard rule reads the #ifndef and
// #define names; the literal and allocation rules also scan macro bodies.
struct Directive {
  std::string keyword;
  int line = 0;
  std::vector<Token> tokens;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<Directive> directives;
  // line -> waiver rule names ("escape", "layer", "tick") present on it.
  std::map<int, std::set<std::string>> waivers;

  bool HasWaiver(int line, const std::string& rule) const {
    auto it = waivers.find(line);
    return it != waivers.end() && it->second.count(rule) > 0;
  }
};

// Tokenizes `content`. Never fails: unrecognized bytes are skipped.
LexedFile Lex(const std::string& content);

}  // namespace ddanalyze

#endif  // DAREDEVIL_TOOLS_DDANALYZE_LEXER_H_
