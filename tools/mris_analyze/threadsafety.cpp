#include "tools/mris_analyze/threadsafety.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

namespace mris::analyze {

namespace {

/// Types that are immutable-by-qualifier or internally synchronized; a
/// static of one of these is not unguarded shared state.
bool window_exempts(const std::vector<Token>& tokens, std::size_t a,
                    std::size_t b) {
  static const std::set<std::string> kExempt = {
      "const",       "constexpr",        "constinit",
      "using",       "mutex",            "shared_mutex",
      "recursive_mutex",                 "once_flag",
      "condition_variable",              "condition_variable_any",
      "atomic",      "atomic_flag",      "atomic_bool",
      "atomic_int",  "atomic_size_t",    "MRIS_GUARDED_BY",
      "MRIS_PT_GUARDED_BY",
  };
  for (std::size_t i = a; i < b && i < tokens.size(); ++i) {
    if (tokens[i].is_ident && kExempt.count(tokens[i].text) != 0) return true;
  }
  return false;
}

std::string last_ident(const std::vector<Token>& tokens, std::size_t a,
                       std::size_t b) {
  std::string name;
  for (std::size_t i = a; i < b && i < tokens.size(); ++i) {
    if (tokens[i].is_ident) name = tokens[i].text;
  }
  return name;
}

/// ts-global on `static` / `thread_local` declarations (any scope: file
/// statics, function-local statics, and static data members all create
/// process- or thread-wide mutable state).
void scan_keyword_globals(const SourceFile& file, Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident || (t.text != "static" && t.text != "thread_local")) {
      continue;
    }
    if (i > 0 && tokens[i - 1].is_ident &&
        (tokens[i - 1].text == "static" ||
         tokens[i - 1].text == "thread_local")) {
      continue;  // `static thread_local` — handled at the first keyword
    }
    std::size_t j = i + 1;
    // Fold a doubled specifier so the window starts at the declaration.
    if (j < tokens.size() && tokens[j].is_ident &&
        (tokens[j].text == "static" || tokens[j].text == "thread_local")) {
      ++j;
    }
    const std::size_t begin = j;
    bool skip = false;
    for (; j < tokens.size(); ++j) {
      const std::string& tx = tokens[j].text;
      if (tx == "(") {
        // Function declaration, ctor-style initializer, or an annotation
        // macro's argument list — all either fine or checked elsewhere.
        skip = true;
        break;
      }
      if (tx == ";" || tx == "{" || tx == "=") break;
    }
    if (skip || j >= tokens.size()) continue;
    if (window_exempts(tokens, begin, j)) continue;
    const std::string name = last_ident(tokens, begin, j);
    if (name.empty()) continue;
    reporter.report(
        t.line, "ts-global",
        "mutable " + t.text + " '" + name +
            "' has no MRIS_GUARDED_BY annotation: shared mutable state "
            "must name its guard (or be const/atomic), since pool workers "
            "may touch it concurrently");
  }
}

/// ts-global on namespace-scope `Type name = init;` declarations that use
/// no storage keyword (e.g. out-of-line static member definitions,
/// anonymous-namespace globals).
void scan_namespace_globals(const SourceFile& file, Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  std::map<std::size_t, std::size_t> jump;  // scope open -> close
  for (const Scope& s : file.scopes) {
    if (s.kind != ScopeKind::kNamespace && s.close > s.open) {
      jump[s.open] = s.close;
    }
  }
  std::size_t stmt_start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto jt = jump.find(i);
    if (jt != jump.end()) {
      i = jt->second;
      stmt_start = i + 1;
      depth = 0;
      continue;
    }
    const std::string& tx = tokens[i].text;
    if (tx == "(" || tx == "[") ++depth;
    if ((tx == ")" || tx == "]") && depth > 0) --depth;
    if (tx != ";" || depth != 0) continue;
    // Statement [stmt_start, i): mutable iff it assigns at depth 0 with
    // no qualifier/keyword that makes it constant or non-variable.
    std::size_t eq = i;
    int d = 0;
    bool saw_group = false;
    bool excluded = false;
    int idents_before = 0;
    for (std::size_t k = stmt_start; k < i; ++k) {
      const std::string& kx = tokens[k].text;
      if (kx == "(" || kx == "[") {
        ++d;
        if (eq == i) saw_group = true;
      }
      if ((kx == ")" || kx == "]") && d > 0) --d;
      if (kx == "=" && d == 0 && eq == i) eq = k;
      if (tokens[k].is_ident && eq == i) ++idents_before;
      if (tokens[k].is_ident &&
          (kx == "static" || kx == "thread_local" || kx == "extern" ||
           kx == "using" || kx == "typedef" || kx == "namespace" ||
           kx == "template" || kx == "operator" || kx == "friend" ||
           kx == "class" || kx == "struct" || kx == "enum")) {
        excluded = true;
      }
    }
    if (eq < i && !saw_group && !excluded && idents_before >= 2 &&
        !window_exempts(tokens, stmt_start, eq)) {
      const std::string name = last_ident(tokens, stmt_start, eq);
      if (!name.empty()) {
        reporter.report(
            tokens[eq].line, "ts-global",
            "mutable namespace-scope variable '" + name +
                "' has no MRIS_GUARDED_BY annotation: shared mutable "
                "state must name its guard (or be const/atomic)");
      }
    }
    stmt_start = i + 1;
  }
}

/// ts-ref-capture: by-reference lambda captures handed to
/// ThreadPool::submit.
void scan_ref_captures(const SourceFile& file, Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!tokens[i].is_ident || tokens[i].text != "submit") continue;
    if (tokens[i + 1].text != "(") continue;
    const std::size_t close = match_forward(tokens, i + 1);
    for (std::size_t j = i + 2; j < close && j < tokens.size(); ++j) {
      if (tokens[j].text != "[") continue;
      const std::size_t lb_close = match_forward(tokens, j);
      bool by_ref = false;
      for (std::size_t k = j + 1; k < lb_close && k < tokens.size(); ++k) {
        if (tokens[k].text == "&") by_ref = true;
      }
      if (by_ref) {
        reporter.report(
            tokens[j].line, "ts-ref-capture",
            "lambda submitted to the ThreadPool captures by reference: "
            "the task can outlive the enclosing frame — capture by value, "
            "or join the future before returning and suppress with a "
            "rationale");
      }
      j = lb_close;
    }
  }
}

struct GuardEntry {
  std::string cls;
  std::string mutex_token;  ///< last identifier of the guard expression
  std::string mutex_expr;   ///< full guard expression, for messages
};

std::string last_ident_of_expr(const std::string& expr) {
  std::string cur, last;
  for (const char c : expr) {
    if (is_word_char(c)) {
      cur.push_back(c);
    } else {
      if (!cur.empty()) last = cur;
      cur.clear();
    }
  }
  if (!cur.empty()) last = cur;
  return last;
}

/// Class context of a function scope: lexically enclosing class, or the
/// qualifier of an out-of-line `A::f` definition.
std::string function_class(const SourceFile& file, int scope_idx) {
  const Scope& s = file.scopes[static_cast<std::size_t>(scope_idx)];
  std::string cls = enclosing_class_name(file.scopes, scope_idx);
  if (!cls.empty()) return cls;
  const std::size_t sep = s.name.rfind("::");
  if (sep != std::string::npos) {
    const std::string qual = s.name.substr(0, sep);
    const std::size_t prev = qual.rfind("::");
    return prev == std::string::npos ? qual : qual.substr(prev + 2);
  }
  return "";
}

bool is_ctor_or_dtor(const std::string& fn_name, const std::string& cls) {
  if (cls.empty()) return false;
  const std::size_t sep = fn_name.rfind("::");
  const std::string leaf =
      sep == std::string::npos ? fn_name : fn_name.substr(sep + 2);
  return leaf == cls || leaf == "~" + cls;
}

/// ts-guard over one file, against the whole-project registry.
void scan_guard_discipline(
    const SourceFile& file,
    const std::multimap<std::string, GuardEntry>& registry,
    Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t si = 0; si < file.scopes.size(); ++si) {
    const Scope& fn = file.scopes[si];
    if (fn.kind != ScopeKind::kFunction) continue;
    const std::string cls = function_class(file, static_cast<int>(si));
    std::set<std::string> reported_fields;
    for (std::size_t i = fn.open + 1; i < fn.close && i < tokens.size();
         ++i) {
      const Token& t = tokens[i];
      if (!t.is_ident) continue;
      const auto range = registry.equal_range(t.text);
      if (range.first == range.second) continue;
      if (reported_fields.count(t.text) != 0) continue;
      for (auto it = range.first; it != range.second; ++it) {
        const GuardEntry& g = it->second;
        // Fields of a specific class only bind inside that class's
        // functions; namespace-scope guarded variables bind everywhere.
        if (!g.cls.empty() && g.cls != cls) continue;
        if (is_ctor_or_dtor(fn.name, g.cls)) continue;
        bool names_guard = false;
        for (std::size_t k = fn.sig_begin;
             k <= fn.close && k < tokens.size() && !names_guard; ++k) {
          if (tokens[k].is_ident && tokens[k].text == g.mutex_token) {
            names_guard = true;
          }
        }
        if (!names_guard) {
          reported_fields.insert(t.text);
          reporter.report(
              t.line, "ts-guard",
              "'" + (fn.name.empty() ? std::string("<lambda/fn>") : fn.name) +
                  "' touches '" + t.text + "' (MRIS_GUARDED_BY(" +
                  g.mutex_expr +
                  ")) but never names the guard: take the lock or annotate "
                  "the function MRIS_REQUIRES(" +
                  g.mutex_expr + ")");
        }
        break;
      }
    }
  }
}

}  // namespace

std::vector<Finding> analyze_threadsafety(const std::vector<SourceFile>& files,
                                          const Options& options) {
  std::multimap<std::string, GuardEntry> registry;
  for (const SourceFile& f : files) {
    for (const GuardedField& g : f.symbols.guarded) {
      GuardEntry e;
      e.cls = g.cls;
      e.mutex_expr = g.mutex;
      e.mutex_token = last_ident_of_expr(g.mutex);
      if (e.mutex_token.empty()) e.mutex_token = g.mutex;
      registry.emplace(g.field, std::move(e));
    }
  }

  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    Reporter reporter(f, options, findings);
    scan_keyword_globals(f, reporter);
    scan_namespace_globals(f, reporter);
    scan_ref_captures(f, reporter);
    scan_guard_discipline(f, registry, reporter);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace mris::analyze
