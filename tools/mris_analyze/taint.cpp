#include "tools/mris_analyze/taint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace mris::analyze {

namespace {

bool is_begin_family(const std::string& s) {
  return s == "begin" || s == "cbegin" || s == "rbegin" || s == "crbegin";
}

const std::set<std::string>& sink_words() {
  static const std::set<std::string> kSinks = {
      "commit",    "try_commit", "push",     "schedule_wakeup",
      "record",    "write_csv",  "write_row", "write_json",
      "add_row",   "append",     "log_event", "emit",
  };
  return kSinks;
}

/// Is `=`-like token an assignment (not a comparison)?
bool is_assignment_op(const std::string& s) {
  if (s == "=") return true;
  return s.size() == 2 && s[1] == '=' && s != "==" && s != "<=" &&
         s != ">=" && s != "!=";
}

struct TaintContext {
  const SourceFile& file;
  std::map<std::string, ContainerOrder> containers;
  std::set<std::string> thread_locals;
  std::set<std::string> tainted_fns;  ///< intra-file tainted-returning fns

  ContainerOrder* container(const std::string& name) {
    auto it = containers.find(name);
    return it == containers.end() ? nullptr : &it->second;
  }

  /// Order of token `t` in a range-for/for_each range: a declared tracked
  /// container, or, with no visible declaration, any `unordered_*`
  /// identifier (a temporary `std::unordered_map<..>{..}`, or a member
  /// declared in another file).
  const ContainerOrder* iterated(const Token& t) {
    static const ContainerOrder kUnordered = ContainerOrder::kUnordered;
    if (!t.is_ident) return nullptr;
    if (const ContainerOrder* o = container(t.text)) return o;
    return t.text.rfind("unordered_", 0) == 0 ? &kUnordered : nullptr;
  }
};

/// True when tokens[i] starts `<cont>.begin()`-family access on a tracked
/// container; sets `order` accordingly.
bool is_container_begin(TaintContext& ctx, const std::vector<Token>& tokens,
                        std::size_t i, ContainerOrder* order) {
  if (!tokens[i].is_ident) return false;
  ContainerOrder* o = ctx.container(tokens[i].text);
  if (o == nullptr) return false;
  if (i + 2 >= tokens.size()) return false;
  if (tokens[i + 1].text != "." && tokens[i + 1].text != "->") return false;
  if (!is_begin_family(tokens[i + 2].text)) return false;
  if (order != nullptr) *order = *o;
  return true;
}

/// True when tokens[i] is `hash` instantiated with a pointer type.
bool is_pointer_hash(const std::vector<Token>& tokens, std::size_t i) {
  if (!tokens[i].is_ident || tokens[i].text != "hash") return false;
  if (i + 1 >= tokens.size() || tokens[i + 1].text != "<") return false;
  const std::size_t close = match_forward(tokens, i + 1);
  for (std::size_t j = i + 2; j < close && j < tokens.size(); ++j) {
    if (tokens[j].text == "*") return true;
  }
  return false;
}

/// Does the token range [a, b) contain a tainted value?
bool range_tainted(TaintContext& ctx, const std::set<std::string>& tainted,
                   const std::vector<Token>& tokens, std::size_t a,
                   std::size_t b) {
  for (std::size_t i = a; i < b && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident) continue;
    if (tainted.count(t.text) != 0) return true;
    if (ctx.tainted_fns.count(t.text) != 0 && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      return true;
    }
    if (is_container_begin(ctx, tokens, i, nullptr)) return true;
    if (is_pointer_hash(tokens, i)) return true;
  }
  return false;
}

/// Identifiers declared in a range-for declarator (last ident, or every
/// ident of a structured binding `[a, b]`).
std::vector<std::string> range_for_decls(const std::vector<Token>& tokens,
                                         std::size_t a, std::size_t b) {
  std::vector<std::string> names;
  for (std::size_t i = a; i < b && i < tokens.size(); ++i) {
    if (tokens[i].text == "[") {
      const std::size_t close = match_forward(tokens, i);
      for (std::size_t j = i + 1; j < close && j < tokens.size(); ++j) {
        if (tokens[j].is_ident) names.push_back(tokens[j].text);
      }
      return names;
    }
  }
  std::string last;
  for (std::size_t i = a; i < b && i < tokens.size(); ++i) {
    if (tokens[i].is_ident && tokens[i].text != "const" &&
        tokens[i].text != "auto") {
      last = tokens[i].text;
    }
  }
  if (!last.empty()) names.push_back(last);
  return names;
}

const char* order_rule(ContainerOrder order) {
  return order == ContainerOrder::kUnordered ? "taint-unordered"
                                             : "taint-pointer-key";
}

const char* order_noun(ContainerOrder order) {
  return order == ContainerOrder::kUnordered
             ? "unordered container (iteration order is "
               "implementation-defined)"
             : "pointer-keyed ordered container (iteration order is address "
               "order, re-rolled by ASLR every run)";
}

/// Immediate source findings: every iteration construct over a tracked
/// container (range-for, std::for_each, begin()-family iterators) and
/// pointer hashes.
void scan_sources(TaintContext& ctx, Reporter& reporter) {
  const std::vector<Token>& tokens = ctx.file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident) continue;
    ContainerOrder order = ContainerOrder::kUnordered;
    if (t.text == "for" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      const std::size_t close = match_forward(tokens, i + 1);
      std::size_t colon = tokens.size();
      for (std::size_t j = i + 2; j < close; ++j) {
        if (tokens[j].text == ":" && (j == 0 || tokens[j - 1].text != ":") &&
            (j + 1 >= tokens.size() || tokens[j + 1].text != ":")) {
          colon = j;
          break;
        }
      }
      if (colon < tokens.size()) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (const ContainerOrder* o = ctx.iterated(tokens[j])) {
            reporter.report(t.line, order_rule(*o),
                            "range-for over '" + tokens[j].text + "', " +
                                order_noun(*o));
            break;
          }
        }
      }
      continue;
    }
    if (t.text == "for_each" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      const std::size_t close = match_forward(tokens, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (const ContainerOrder* o = ctx.iterated(tokens[j])) {
          reporter.report(t.line, order_rule(*o),
                          "std::for_each over '" + tokens[j].text + "', " +
                              order_noun(*o));
          break;
        }
      }
      continue;
    }
    if (is_container_begin(ctx, tokens, i, &order)) {
      reporter.report(t.line, order_rule(order),
                      "iterator over '" + t.text + "', " + order_noun(order));
      continue;
    }
    if (is_pointer_hash(tokens, i)) {
      reporter.report(t.line, "taint-pointer-key",
                      "std::hash of a pointer: hash values depend on the "
                      "allocation addresses of this run");
    }
  }
}

/// Flow analysis over one function body.  Returns true when the function
/// returns a tainted value.  Findings only when `reporter` is non-null
/// (the fixpoint rounds pass null).
bool analyze_function_flow(TaintContext& ctx, const Scope& fn,
                           Reporter* reporter) {
  const std::vector<Token>& tokens = ctx.file.tokens;
  std::set<std::string> tainted(ctx.thread_locals.begin(),
                                ctx.thread_locals.end());
  bool returns_tainted = false;

  for (std::size_t i = fn.open + 1; i < fn.close && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident) {
      if (is_assignment_op(t.text) && i > fn.open + 1) {
        // lhs: nearest preceding identifier, skipping a subscript group.
        std::size_t j = i - 1;
        if (tokens[j].text == "]") {
          int depth = 0;
          while (j > fn.open) {
            if (tokens[j].text == "]") ++depth;
            if (tokens[j].text == "[" && --depth == 0) break;
            --j;
          }
          if (j > fn.open) --j;
        }
        if (tokens[j].is_ident) {
          // rhs: up to the statement end at this nesting level.
          std::size_t end = i + 1;
          int depth = 0;
          while (end < fn.close && end < tokens.size()) {
            const std::string& tx = tokens[end].text;
            if (tx == "(" || tx == "[") ++depth;
            if (tx == ")" || tx == "]") {
              if (depth == 0) break;
              --depth;
            }
            if ((tx == ";" || tx == ",") && depth == 0) break;
            ++end;
          }
          if (range_tainted(ctx, tainted, tokens, i + 1, end)) {
            tainted.insert(tokens[j].text);
          }
        }
      }
      continue;
    }
    if (t.text == "for" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      const std::size_t close = match_forward(tokens, i + 1);
      std::size_t colon = tokens.size();
      for (std::size_t j = i + 2; j < close; ++j) {
        if (tokens[j].text == ":") {
          colon = j;
          break;
        }
      }
      if (colon < tokens.size()) {
        bool src = range_tainted(ctx, tainted, tokens, colon + 1, close);
        for (std::size_t j = colon + 1; j < close && !src; ++j) {
          if (ctx.iterated(tokens[j]) != nullptr) src = true;
        }
        if (src) {
          for (const std::string& name :
               range_for_decls(tokens, i + 2, colon)) {
            tainted.insert(name);
          }
        }
      }
      continue;
    }
    if (t.text == "return") {
      std::size_t end = i + 1;
      while (end < fn.close && end < tokens.size() &&
             tokens[end].text != ";") {
        ++end;
      }
      if (range_tainted(ctx, tainted, tokens, i + 1, end)) {
        returns_tainted = true;
      }
      i = end;
      continue;
    }
    if (sink_words().count(t.text) != 0 && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      const std::size_t close = match_forward(tokens, i + 1);
      if (reporter != nullptr && close < tokens.size() &&
          range_tainted(ctx, tainted, tokens, i + 2, close)) {
        std::string which;
        for (std::size_t j = i + 2; j < close; ++j) {
          if (tokens[j].is_ident && tainted.count(tokens[j].text) != 0) {
            which = tokens[j].text;
            break;
          }
        }
        reporter->report(
            t.line, "taint-flow",
            "nondeterministically-ordered value" +
                (which.empty() ? std::string() : " '" + which + "'") +
                " reaches ordering-sensitive sink '" + t.text +
                "': order it deterministically (sort, or key by JobId) "
                "before committing/writing");
      }
      // Do not skip the group: nested sinks/assignments inside argument
      // lists still need scanning.
    }
  }
  return returns_tainted;
}

}  // namespace

std::vector<Finding> analyze_taint(const SourceFile& file,
                                   const Options& options) {
  std::vector<Finding> findings;
  Reporter reporter(file, options, findings);

  TaintContext ctx{file, {}, {}, {}};
  for (const ContainerDecl& c : file.symbols.containers) {
    ctx.containers.emplace(c.name, c.order);
  }
  ctx.thread_locals.insert(file.symbols.thread_locals.begin(),
                           file.symbols.thread_locals.end());

  scan_sources(ctx, reporter);

  // Fixpoint over tainted-returning functions (intra-file), then a final
  // reporting round.
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (const Scope& s : file.scopes) {
      if (s.kind != ScopeKind::kFunction || s.name.empty()) continue;
      if (analyze_function_flow(ctx, s, nullptr) &&
          ctx.tainted_fns.insert(s.name).second) {
        changed = true;
      }
    }
    if (!changed) break;
  }
  for (const Scope& s : file.scopes) {
    if (s.kind != ScopeKind::kFunction) continue;
    analyze_function_flow(ctx, s, &reporter);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line < b.line || (a.line == b.line && a.rule < b.rule);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.line == b.line && a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace mris::analyze
