// Source-hygiene rules: five token-level checks that keep the simulator
// deterministic and its failures diagnosable. Unlike the architecture passes,
// two of them (unordered-iter, include-guard) also cover bench/ and tests/,
// where copied idioms spread.
//
//   bare-assert    (src/) no assert() and no <cassert>/<assert.h>: use
//                  DD_CHECK and friends (src/core/invariant.h) so a failure
//                  reports request id, tick and stage context. static_assert
//                  is fine. Waive with `// ddanalyze: assert-ok(reason)`.
//   page-literal   (src/) no raw 4096: derive byte quantities from kPageBytes
//                  (src/stack/request.h) so unit bugs stay grep-able. Waive
//                  with `// ddanalyze: units-ok(reason)`.
//   engine-alloc   (src/sim/engine/) the zero-allocation event core: no
//                  std::function, make_unique/make_shared, malloc family or
//                  non-placement `new`. `::new (p) T` and `#include <new>`
//                  are clean. Waive with `// ddanalyze: enginealloc-ok(...)`.
//   unordered-iter (src/, bench/, tests/) no range-for over a name declared
//                  as an unordered_* container: hash order is the canonical
//                  seed-independent nondeterminism of a DES. Waive with
//                  `// ddanalyze: ordered-ok(reason)`.
//   include-guard  (src/, bench/, tests/) headers carry the canonical
//                  DAREDEVIL_<PATH>_H_ guard. Waive with `guard-ok(reason)`.
//
// Waivers are debt: a waived site is not an error but is ratcheted as
// "waived.<rule>.<layer>", so the number of waivers can only fall.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/ddanalyze/analyzer.h"

namespace ddanalyze {
namespace {

// Emits at most one finding per line: an error, or a ratchet site when the
// line carries the rule's waiver token.
class Reporter {
 public:
  Reporter(const SourceFile& file, std::string rule, std::string token,
           std::vector<Finding>* errors, std::vector<Finding>* ratchet)
      : file_(file),
        rule_(std::move(rule)),
        token_(std::move(token)),
        errors_(errors),
        ratchet_(ratchet) {}

  void Report(int line, const std::string& message) {
    if (!lines_.insert(line).second) {
      return;
    }
    if (file_.lex.HasWaiver(line, token_)) {
      ratchet_->push_back(
          {"waived." + rule_, file_.rel_path, line, message});
    } else {
      errors_->push_back({rule_, file_.rel_path, line, message});
    }
  }

 private:
  const SourceFile& file_;
  std::string rule_;
  std::string token_;
  std::vector<Finding>* errors_;
  std::vector<Finding>* ratchet_;
  std::set<int> lines_;
};

bool IsPunct(const std::vector<Token>& toks, std::size_t i, const char* text) {
  return i < toks.size() && toks[i].kind == TokKind::kPunct &&
         toks[i].text == text;
}

bool IsIdent(const std::vector<Token>& toks, std::size_t i, const char* text) {
  return i < toks.size() && toks[i].kind == TokKind::kIdent &&
         toks[i].text == text;
}

// Runs `check` over the code tokens and over each non-include directive's
// tokens (macro bodies, #if conditions), one sequence at a time.
template <typename Check>
void ForEachTokenRun(const LexedFile& lex, const Check& check) {
  check(lex.tokens);
  for (const Directive& d : lex.directives) {
    check(d.tokens);
  }
}

// True when `text` (a number token) spells 4096: the digit run stands alone
// (as in 4096 or 4096.0), optionally with an integer suffix (4096u, 4096UL).
bool IsPageLiteral(std::string text) {
  while (!text.empty() && std::string("uUlLzZ").find(text.back()) !=
                              std::string::npos) {
    text.pop_back();
  }
  auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (std::size_t pos = text.find("4096"); pos != std::string::npos;
       pos = text.find("4096", pos + 1)) {
    const bool starts = pos == 0 || !word(text[pos - 1]);
    const bool ends = pos + 4 == text.size() || !word(text[pos + 4]);
    if (starts && ends) {
      return true;
    }
  }
  return false;
}

// Index just past the `>` that closes the `<` at `open`, or toks.size().
std::size_t SkipTemplateArgs(const std::vector<Token>& toks,
                             std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">" || t == ">>") {
      depth -= static_cast<int>(t.size());
      if (depth <= 0) return i + 1;
    } else if (t == ";" || t == "{") {
      return toks.size();  // not a template argument list
    }
  }
  return toks.size();
}

}  // namespace

void CheckBareAssert(const SourceFile& file, std::vector<Finding>* errors,
                     std::vector<Finding>* ratchet) {
  Reporter r(file, "bare-assert", "assert", errors, ratchet);
  const std::string message =
      "bare assert(): use DD_CHECK/DD_CHECK_LE/DD_FAIL (src/core/invariant.h) "
      "so the failure carries request id, tick, and stage context";
  for (const IncludeDirective& inc : file.lex.includes) {
    if (inc.angled && (inc.path == "cassert" || inc.path == "assert.h")) {
      r.Report(inc.line, message);
    }
  }
  ForEachTokenRun(file.lex, [&](const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (IsIdent(toks, i, "assert") && IsPunct(toks, i + 1, "(")) {
        r.Report(toks[i].line, message);
      }
    }
  });
}

void CheckPageLiteral(const SourceFile& file, std::vector<Finding>* errors,
                      std::vector<Finding>* ratchet) {
  Reporter r(file, "page-literal", "units", errors, ratchet);
  ForEachTokenRun(file.lex, [&](const std::vector<Token>& toks) {
    for (const Token& t : toks) {
      if (t.kind == TokKind::kNumber && IsPageLiteral(t.text)) {
        r.Report(t.line,
                 "raw 4096 literal: derive byte quantities from kPageBytes "
                 "(src/stack/request.h), or waive if this is not a page-size "
                 "quantity");
      }
    }
  });
}

void CheckEngineAlloc(const SourceFile& file, std::vector<Finding>* errors,
                      std::vector<Finding>* ratchet) {
  Reporter r(file, "engine-alloc", "enginealloc", errors, ratchet);
  auto report = [&](int line, const std::string& what) {
    r.Report(line, what +
                       ": src/sim/engine/ schedules events without allocating "
                       "(arena slots + inline EventFn storage only)");
  };
  ForEachTokenRun(file.lex, [&](const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (t == "function" && i >= 2 && IsPunct(toks, i - 1, "::") &&
          IsIdent(toks, i - 2, "std")) {
        report(toks[i].line,
               "std::function (type-erased heap captures): use EventFn's "
               "inline storage");
      } else if (t == "make_unique" || t == "make_shared") {
        report(toks[i].line, "heap allocation helper");
      } else if ((t == "malloc" || t == "calloc" || t == "realloc") &&
                 IsPunct(toks, i + 1, "(")) {
        report(toks[i].line, "C heap allocation");
      } else if (t == "new" && !IsPunct(toks, i + 1, "(")) {
        // Placement new is written `::new (ptr) T(...)`; anything else is a
        // heap allocation.
        report(toks[i].line, "non-placement new");
      }
    }
  });
}

void CheckUnorderedIter(const SourceFile& file, std::vector<Finding>* errors,
                        std::vector<Finding>* ratchet) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kDeclEnd = {";", "=", "{", ")", ","};
  const std::vector<Token>& toks = file.lex.tokens;

  // Names declared anywhere in the file as an unordered container:
  // `unordered_map<K, V> name` followed by ; = { ) or ,.
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || kUnordered.count(toks[i].text) == 0 ||
        !IsPunct(toks, i + 1, "<")) {
      continue;
    }
    std::size_t j = SkipTemplateArgs(toks, i + 1);
    while (IsPunct(toks, j, "&") || IsPunct(toks, j, "&&") ||
           IsPunct(toks, j, "*") || IsIdent(toks, j, "const")) {
      ++j;
    }
    if (j + 1 < toks.size() && toks[j].kind == TokKind::kIdent &&
        toks[j + 1].kind == TokKind::kPunct &&
        kDeclEnd.count(toks[j + 1].text) > 0) {
      names.insert(toks[j].text);
    }
  }
  if (names.empty()) {
    return;
  }

  Reporter r(file, "unordered-iter", "ordered", errors, ratchet);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks, i, "for") || !IsPunct(toks, i + 1, "(")) {
      continue;
    }
    // The range-for's top-level `:` and its closing `)`; a top-level `;`
    // first means a classic for loop.
    int depth = 0;
    std::size_t colon = 0;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) continue;
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        if (--depth == 0) break;
      } else if (depth == 1 && t == ";") {
        break;
      } else if (depth == 1 && t == ":" && colon == 0) {
        colon = j;
      }
    }
    if (colon == 0 || j >= toks.size() || toks[j].text != ")") {
      continue;
    }
    for (std::size_t k = colon + 1; k < j; ++k) {
      if (toks[k].kind == TokKind::kIdent && names.count(toks[k].text) > 0) {
        r.Report(toks[i].line,
                 "range-for over unordered container '" + toks[k].text +
                     "': iteration order is hash-dependent nondeterminism; "
                     "use an ordered container or a sorted copy");
        break;
      }
    }
  }
}

void CheckIncludeGuard(const SourceFile& file, std::vector<Finding>* errors,
                       std::vector<Finding>* ratchet) {
  const std::string& path = file.rel_path;
  const std::string ext = path.substr(std::min(path.rfind('.'), path.size()));
  if (ext != ".h" && ext != ".hpp") {
    return;
  }
  std::string guard = "DAREDEVIL_";
  for (char c : file.rel_path) {
    guard += c == '.' || c == '/' || c == '-'
                 ? '_'
                 : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  guard += '_';

  const Directive* ifndef = nullptr;
  bool defined = false;
  for (const Directive& d : file.lex.directives) {
    const std::string name = d.tokens.empty() ? "" : d.tokens[0].text;
    if (d.keyword == "ifndef" && ifndef == nullptr) {
      ifndef = &d;
    } else if (d.keyword == "define" && name == guard) {
      defined = true;
    }
  }
  const std::string found = ifndef == nullptr || ifndef->tokens.empty()
                                ? "none"
                                : ifndef->tokens[0].text;
  if (found != guard || !defined) {
    Reporter r(file, "include-guard", "guard", errors, ratchet);
    r.Report(ifndef == nullptr ? 1 : ifndef->line,
             "include guard must be " + guard + " (found " + found + ")");
  }
}

}  // namespace ddanalyze
