// global-state rule: finds mutable state with static storage duration — the
// state that silently becomes *shared* state the moment two shards run on two
// threads (DESIGN.md §10). Four shapes are flagged:
//   * namespace-scope non-const variables (including `extern` declarations);
//   * mutable function-local statics (a hidden global with lazy init);
//   * thread_local anywhere (per-thread state breaks the shard == ownership
//     model: a shard migrated across threads silently changes state);
//   * non-const class statics.
// const / constexpr / constinit declarations are exempt: shared-immutable
// data is shard-safe by definition. A kConstant name without one of those
// qualifiers is still mutable, and still flagged. Findings are
// ratcheted per layer ("global-state.<layer>") like tick-units, so legacy
// sites can be burned down without ever regressing. Waive a single site with
// `// ddanalyze: global-ok(reason)`.
//
// The scope machine is a token-level approximation, not a parser: it tracks
// whether each brace scope is a namespace, a class body, or a block (function
// bodies, initializers, control flow), which is exactly the resolution the
// four shapes above need.
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/analyzer.h"

namespace ddanalyze {
namespace {

enum class Scope { kNamespace, kClass, kBlock };

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "static",   "extern",  "inline",       "thread_local", "mutable",
      "volatile", "signed",  "unsigned",     "long",         "short",
      "int",      "char",    "bool",         "float",        "double",
      "auto",     "void",    "decltype",     "typename",     "register",
      "constinit","const",   "constexpr",    "alignas",      "noexcept",
  };
  return kKeywords;
}

bool Contains(const std::vector<const Token*>& stmt, const std::string& text) {
  for (const Token* t : stmt) {
    if (t->kind == TokKind::kIdent && t->text == text) {
      return true;
    }
  }
  return false;
}

bool ContainsAny(const std::vector<const Token*>& stmt,
                 std::initializer_list<const char*> texts) {
  for (const char* text : texts) {
    if (Contains(stmt, text)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void CheckGlobalState(const SourceFile& file, std::vector<Finding>* out) {
  const std::vector<Token>& toks = file.lex.tokens;

  auto report = [&](int line, const std::string& message) {
    if (file.lex.HasWaiver(line, "global")) {
      return;
    }
    out->push_back({"global-state", file.rel_path, line, message});
  };

  // thread_local is flagged wherever it appears; the statement analysis
  // below skips statements containing it so each site reports once.
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && t.text == "thread_local") {
      report(t.line,
             "thread_local storage: per-thread state breaks shard ownership "
             "(a shard migrated across threads silently changes state); hold "
             "the value in the owning component or ShardContext");
    }
  }

  std::vector<Scope> scopes{Scope::kNamespace};
  std::vector<const Token*> stmt;  // tokens since the last statement boundary

  // Analyzes one namespace- or class-scope declaration statement (without
  // its terminator). Exits early on every exempt or out-of-scope shape.
  auto process_decl = [&](Scope scope) {
    if (stmt.empty() || Contains(stmt, "thread_local")) {
      return;
    }
    const bool is_static = Contains(stmt, "static");
    if (scope == Scope::kClass && !is_static) {
      return;  // ordinary data members are instance state, not shared state
    }
    if (ContainsAny(stmt, {"const", "constexpr", "constinit"})) {
      return;  // shared-immutable is shard-safe
    }
    if (ContainsAny(stmt, {"using", "typedef", "friend", "namespace",
                           "template", "operator", "static_assert", "class",
                           "struct", "union", "enum", "return", "if", "for",
                           "while", "switch", "concept", "requires"})) {
      return;  // type machinery / forward declarations / misparsed control
    }
    // Function declarations: a parameter list opens before any initializer.
    std::size_t first_paren = stmt.size();
    std::size_t first_assign = stmt.size();
    std::size_t first_bracket = stmt.size();
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (stmt[i]->kind != TokKind::kPunct) {
        continue;
      }
      if (stmt[i]->text == "(" && first_paren == stmt.size()) {
        first_paren = i;
      } else if (stmt[i]->text == "=" && first_assign == stmt.size()) {
        first_assign = i;
      } else if (stmt[i]->text == "[" && first_bracket == stmt.size()) {
        first_bracket = i;
      }
    }
    if (first_paren < first_assign) {
      return;  // function declaration / definition header
    }
    // The declared name: the last identifier before the initializer (or the
    // array extent), skipping keywords so `extern int x` resolves to x.
    const std::size_t cut = std::min(first_assign, first_bracket);
    const Token* name = nullptr;
    for (std::size_t i = 0; i < cut; ++i) {
      if (stmt[i]->kind == TokKind::kIdent &&
          Keywords().count(stmt[i]->text) == 0) {
        name = stmt[i];
      }
    }
    if (name == nullptr) {
      return;
    }
    if (scope == Scope::kClass) {
      report(name->line, "non-const class static '" + name->text +
                             "': one instance shared by every shard; make it "
                             "constexpr, or per-instance state");
    } else {
      report(name->line, "namespace-scope mutable variable '" + name->text +
                             "': global state is shared across shards; move "
                             "it into the owning component or ShardContext");
    }
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct && t.text == "{") {
      const Scope cur = scopes.back();
      Scope next = Scope::kBlock;
      if (cur == Scope::kNamespace || cur == Scope::kClass) {
        if (Contains(stmt, "namespace")) {
          next = Scope::kNamespace;
        } else if (ContainsAny(stmt, {"class", "struct", "union", "enum"})) {
          next = Scope::kClass;
        } else {
          bool has_paren = false;
          for (const Token* s : stmt) {
            if (s->kind == TokKind::kPunct && s->text == "(") {
              has_paren = true;
              break;
            }
          }
          if (!has_paren) {
            // `std::vector<int> v{...}` / `Foo bar = {...}`: a brace-init
            // variable declaration heading this brace.
            process_decl(cur);
          }
        }
      }
      scopes.push_back(next);
      stmt.clear();
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "}") {
      if (scopes.size() > 1) {
        scopes.pop_back();
      }
      stmt.clear();
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == ";") {
      const Scope cur = scopes.back();
      if (cur == Scope::kNamespace || cur == Scope::kClass) {
        process_decl(cur);
      }
      stmt.clear();
      continue;
    }
    // Mutable function-local static: checked at the keyword, with a bounded
    // lookahead for a cv-qualifier before the declaration ends.
    if (scopes.back() == Scope::kBlock && t.kind == TokKind::kIdent &&
        t.text == "static") {
      bool exempt = false;
      bool is_function = false;
      std::size_t first_assign = toks.size();
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const Token& u = toks[j];
        if (u.kind == TokKind::kPunct &&
            (u.text == ";" || u.text == "{" || u.text == "}")) {
          break;
        }
        if (u.kind == TokKind::kPunct && u.text == "=" &&
            first_assign == toks.size()) {
          first_assign = j;
        }
        if (u.kind == TokKind::kPunct && u.text == "(" && j < first_assign) {
          is_function = true;  // local function declarations are legal C++
          break;
        }
        if (u.kind == TokKind::kIdent &&
            (u.text == "const" || u.text == "constexpr" ||
             u.text == "constinit")) {
          exempt = true;
          break;
        }
      }
      if (!exempt && !is_function) {
        report(t.line,
               "mutable function-local static: a hidden global shared by "
               "every shard that reaches this function; make it const, or "
               "hoist it into the owning component");
      }
      continue;
    }
    stmt.push_back(&t);
  }
}

}  // namespace ddanalyze
