#include "tools/mris_analyze/frontend.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mris::analyze {

namespace {

bool is_all_caps_macro(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_alpha = false;
  for (const char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      return lines;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
}

/// Two-char operator tokens the passes rely on (assignment detection,
/// qualified names, template closers).  Longest-match-first is unnecessary
/// because every entry is exactly two chars.
bool is_two_char_op(char a, char b) {
  static const char* kOps[] = {"::", "->", "==", "!=", "<=", ">=", "+=",
                               "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                               "&&", "||", "<<", ">>"};
  for (const char* op : kOps) {
    if (a == op[0] && b == op[1]) return true;
  }
  return false;
}

}  // namespace

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

std::string strip_comments_and_strings(const std::string& source) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  std::string out = source;
  State state = State::kCode;
  std::string raw_delim;  // )delim" that terminates the raw string

  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && (next == '/' || next == '*')) {
          state = next == '/' ? State::kLineComment : State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" — R (possibly after u8/u/U/L) directly
          // before the quote.
          const std::size_t open = i > 0 && source[i - 1] == 'R'
                                       ? source.find('(', i + 1)
                                       : std::string::npos;
          state = State::kString;
          if (open != std::string::npos) {
            raw_delim = ")" + source.substr(i + 1, open - i - 1) + "\"";
            state = State::kRawString;
          }
          out[i] = ' ';
        } else if (c == '\'') {
          // A digit separator only inside a number (1'000, 0xFF'FF): walk
          // back over the literal and look at its first character.  After
          // an identifier (u8'x', U'"', L'x') the quote opens a literal.
          std::size_t start = i;
          while (start > 0 && (is_word_char(source[start - 1]) ||
                               source[start - 1] == '\'' ||
                               source[start - 1] == '.')) {
            --start;
          }
          while (start < i && source[start] == '.') ++start;
          if (start == i ||
              std::isdigit(static_cast<unsigned char>(source[start])) == 0) {
            state = State::kChar;
          }
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (source.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> collect_sources(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) return {root};
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      files.push_back(it->path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Token> tokenize(const std::string& stripped) {
  std::vector<Token> tokens;
  int line = 1;
  bool at_line_start = true;
  for (std::size_t i = 0; i < stripped.size();) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: skip to end of line, honoring backslash
      // continuations (the taint/scope passes never look inside them; the
      // layering pass reads #include lines from the raw text instead).
      while (i < stripped.size()) {
        if (stripped[i] == '\\' && i + 1 < stripped.size() &&
            stripped[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (stripped[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (is_word_char(c)) {
      std::size_t end = i;
      while (end < stripped.size() && is_word_char(stripped[end])) ++end;
      Token t;
      t.text = stripped.substr(i, end - i);
      t.line = line;
      t.is_ident = !std::isdigit(static_cast<unsigned char>(c));
      tokens.push_back(std::move(t));
      i = end;
      continue;
    }
    if (c == '\\' && i + 1 < stripped.size() && stripped[i + 1] == '\n') {
      ++line;
      i += 2;
      at_line_start = false;
      continue;
    }
    Token t;
    if (i + 1 < stripped.size() && is_two_char_op(c, stripped[i + 1])) {
      t.text = stripped.substr(i, 2);
      i += 2;
    } else {
      t.text = std::string(1, c);
      ++i;
    }
    t.line = line;
    tokens.push_back(std::move(t));
  }
  return tokens;
}

std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open) {
  if (open >= tokens.size()) return tokens.size();
  const std::string& o = tokens[open].text;
  std::string close;
  if (o == "(") {
    close = ")";
  } else if (o == "[") {
    close = "]";
  } else if (o == "<") {
    close = ">";
  } else {
    return tokens.size();
  }
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t == o) {
      ++depth;
    } else if (t == close) {
      if (--depth == 0) return i;
    } else if (o == "<" && t == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    }
  }
  return tokens.size();
}

// --- scopes ---------------------------------------------------------------

namespace {

/// Introducer state between statement boundaries at one nesting level.
struct Pending {
  std::size_t start = 0;  ///< first token of the would-be introducer
  bool saw_namespace = false;
  bool saw_class = false;
  bool saw_enum = false;
  bool saw_equals = false;  ///< '=' at paren depth 0 since `start`
  std::vector<std::pair<std::size_t, std::size_t>> groups;  ///< (...) spans
  void reset(std::size_t next) {
    start = next;
    saw_namespace = saw_class = saw_enum = saw_equals = false;
    groups.clear();
  }
};

/// Name of a classified scope, from its introducer tokens.
std::string class_like_name(const std::vector<Token>& tokens,
                            std::size_t begin, std::size_t brace) {
  // Last identifier before ':' (base clause) or the brace, skipping
  // 'final' and the class-key itself.
  std::string name;
  for (std::size_t i = begin; i < brace; ++i) {
    const Token& t = tokens[i];
    if (t.text == ":") break;
    if (!t.is_ident) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum" || t.text == "final" || t.text == "alignas" ||
        t.text == "public" || t.text == "private" || t.text == "protected") {
      continue;
    }
    name = t.text;
  }
  return name;
}

/// Function name (possibly qualified "A::f" or "~A") from a signature whose
/// parameter list is the paren group ending closest to the brace that is
/// not a trailing macro/noexcept group.
std::string function_name(const std::vector<Token>& tokens,
                          const Pending& pending) {
  if (pending.groups.empty()) return "";
  std::size_t gi = pending.groups.size();
  while (gi > 0) {
    const std::size_t open = pending.groups[gi - 1].first;
    if (open > pending.start) {
      const Token& before = tokens[open - 1];
      if (before.is_ident &&
          (before.text == "noexcept" || is_all_caps_macro(before.text))) {
        --gi;  // trailing noexcept(...) or MRIS_*(...) annotation
        continue;
      }
    }
    break;
  }
  if (gi == 0) return "";
  const std::size_t open = pending.groups[gi - 1].first;
  if (open == pending.start || open == 0) return "";
  std::size_t i = open - 1;
  if (!tokens[i].is_ident) return "";
  std::string name = tokens[i].text;
  // Fold in '~' (destructor) and 'A::' qualifiers.
  while (i > pending.start) {
    const Token& prev = tokens[i - 1];
    if (prev.text == "~") {
      name = "~" + name;
      --i;
    } else if (prev.text == "::" && i >= 2 && tokens[i - 2].is_ident) {
      name = tokens[i - 2].text + "::" + name;
      i -= 2;
    } else {
      break;
    }
  }
  return name;
}

}  // namespace

std::vector<Scope> analyze_scopes(const std::vector<Token>& tokens) {
  std::vector<Scope> scopes;
  std::vector<int> stack;          // indices into `scopes`
  std::vector<Pending> pendings;   // one per nesting level (incl. file level)
  pendings.push_back(Pending{});
  int paren_depth = 0;
  std::size_t group_open = 0;

  auto current_kind = [&]() -> ScopeKind {
    if (stack.empty()) return ScopeKind::kNamespace;  // file level
    return scopes[static_cast<std::size_t>(stack.back())].kind;
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    Pending& pending = pendings.back();
    if (t.text == "(" || t.text == "[") {
      if (paren_depth == 0) group_open = i;
      ++paren_depth;
      continue;
    }
    if (t.text == ")" || t.text == "]") {
      if (paren_depth > 0 && --paren_depth == 0 && t.text == ")") {
        pending.groups.emplace_back(group_open, i);
      }
      continue;
    }
    if (paren_depth > 0) continue;
    if (t.text == ";") {
      pending.reset(i + 1);
      continue;
    }
    if (t.text == "namespace") {
      pending.saw_namespace = true;
    } else if (t.text == "class" || t.text == "struct" || t.text == "union") {
      pending.saw_class = true;
    } else if (t.text == "enum") {
      pending.saw_enum = true;
    } else if (t.text == "=") {
      pending.saw_equals = true;
    } else if (t.text == "{") {
      Scope s;
      s.open = i;
      s.close = tokens.size();
      s.sig_begin = pending.start;
      s.parent = stack.empty() ? -1 : stack.back();
      const ScopeKind outer = current_kind();
      if (pending.saw_equals) {
        s.kind = ScopeKind::kInit;
      } else if (pending.saw_namespace) {
        s.kind = ScopeKind::kNamespace;
        s.name = class_like_name(tokens, pending.start, i);
      } else if (pending.saw_enum) {
        s.kind = ScopeKind::kEnum;
        s.name = class_like_name(tokens, pending.start, i);
      } else if (pending.saw_class) {
        s.kind = ScopeKind::kClass;
        s.name = class_like_name(tokens, pending.start, i);
      } else if ((outer == ScopeKind::kNamespace ||
                  outer == ScopeKind::kClass) &&
                 !pending.groups.empty()) {
        s.kind = ScopeKind::kFunction;
        s.name = function_name(tokens, pending);
      } else if (outer == ScopeKind::kFunction || outer == ScopeKind::kBlock) {
        s.kind = ScopeKind::kBlock;
      } else {
        s.kind = ScopeKind::kInit;
      }
      scopes.push_back(s);
      stack.push_back(static_cast<int>(scopes.size()) - 1);
      pendings.push_back(Pending{});
      pendings.back().reset(i + 1);
    } else if (t.text == "}") {
      if (!stack.empty()) {
        scopes[static_cast<std::size_t>(stack.back())].close = i;
        stack.pop_back();
        pendings.pop_back();
        if (pendings.empty()) pendings.push_back(Pending{});
        pendings.back().reset(i + 1);
      }
    }
  }
  return scopes;
}

int enclosing_scope(const std::vector<Scope>& scopes, std::size_t tok) {
  int best = -1;
  for (std::size_t s = 0; s < scopes.size(); ++s) {
    if (scopes[s].open < tok && tok < scopes[s].close) {
      if (best < 0 ||
          scopes[s].open > scopes[static_cast<std::size_t>(best)].open) {
        best = static_cast<int>(s);
      }
    }
  }
  return best;
}

int enclosing_function(const std::vector<Scope>& scopes, std::size_t tok) {
  int idx = enclosing_scope(scopes, tok);
  while (idx >= 0 &&
         scopes[static_cast<std::size_t>(idx)].kind != ScopeKind::kFunction) {
    idx = scopes[static_cast<std::size_t>(idx)].parent;
  }
  return idx;
}

std::string enclosing_class_name(const std::vector<Scope>& scopes, int idx) {
  while (idx >= 0) {
    const Scope& s = scopes[static_cast<std::size_t>(idx)];
    if (s.kind == ScopeKind::kClass) return s.name;
    idx = s.parent;
  }
  return "";
}

// --- symbol table ---------------------------------------------------------

namespace {

bool is_unordered_container(const std::string& ident) {
  return ident == "unordered_map" || ident == "unordered_set" ||
         ident == "unordered_multimap" || ident == "unordered_multiset";
}

bool is_ordered_assoc_container(const std::string& ident) {
  return ident == "map" || ident == "set" || ident == "multimap" ||
         ident == "multiset";
}

/// True when the first template argument of the group tokens[open..close]
/// (open is '<') contains a '*' at template depth 1 — a pointer key.
bool first_arg_is_pointer(const std::vector<Token>& tokens, std::size_t open,
                          std::size_t close) {
  int depth = 0;
  for (std::size_t i = open; i < close; ++i) {
    const std::string& t = tokens[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      --depth;
    } else if (t == ">>") {
      depth -= 2;
    } else if (depth == 1) {
      if (t == ",") return false;  // end of the key argument
      if (t == "*") return true;
      if (t == "(") i = match_forward(tokens, i);  // skip function types
    }
  }
  return false;
}

void collect_containers(const std::vector<Token>& tokens, SymbolTable& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident) continue;
    const bool unordered = is_unordered_container(t.text);
    const bool ordered = is_ordered_assoc_container(t.text);
    if (!unordered && !ordered) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "<") continue;
    const std::size_t close = match_forward(tokens, i + 1);
    if (close >= tokens.size()) continue;
    const bool pointer_key = first_arg_is_pointer(tokens, i + 1, close);
    if (!unordered && !pointer_key) continue;
    // Declared identifier after the closing '>' (skipping cv/ref tokens).
    std::size_t j = close + 1;
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (j >= tokens.size() || !tokens[j].is_ident) continue;
    if (j + 1 < tokens.size() && tokens[j + 1].text == "(") continue;  // fn
    ContainerDecl decl;
    decl.name = tokens[j].text;
    decl.order =
        unordered ? ContainerOrder::kUnordered : ContainerOrder::kPointerKeyed;
    decl.line = tokens[j].line;
    out.containers.push_back(std::move(decl));
  }
  std::sort(out.containers.begin(), out.containers.end(),
            [](const ContainerDecl& a, const ContainerDecl& b) {
              return a.name < b.name || (a.name == b.name && a.line < b.line);
            });
}

void collect_thread_locals(const std::vector<Token>& tokens, SymbolTable& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].text != "thread_local") continue;
    std::string last_ident;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      const std::string& tx = tokens[j].text;
      if (tx == ";" || tx == "=" || tx == "{") break;
      if (tokens[j].is_ident && tx != "const" && tx != "static" &&
          tx != "constexpr") {
        last_ident = tx;
      }
    }
    if (!last_ident.empty()) out.thread_locals.push_back(last_ident);
  }
  std::sort(out.thread_locals.begin(), out.thread_locals.end());
  out.thread_locals.erase(
      std::unique(out.thread_locals.begin(), out.thread_locals.end()),
      out.thread_locals.end());
}

void collect_guarded(const std::string& path, const std::vector<Token>& tokens,
                     const std::vector<Scope>& scopes, SymbolTable& out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    const bool plain = t.text == "MRIS_GUARDED_BY";
    const bool ptr = t.text == "MRIS_PT_GUARDED_BY";
    if (!plain && !ptr) continue;
    if (i == 0 || !tokens[i - 1].is_ident) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    const std::size_t close = match_forward(tokens, i + 1);
    if (close >= tokens.size()) continue;
    GuardedField g;
    g.field = tokens[i - 1].text;
    for (std::size_t j = i + 2; j < close; ++j) g.mutex += tokens[j].text;
    g.cls = enclosing_class_name(scopes, enclosing_scope(scopes, i));
    g.file = path;
    g.line = t.line;
    g.pointer_guard = ptr;
    if (!g.mutex.empty()) out.guarded.push_back(std::move(g));
  }
}

}  // namespace

SourceFile make_source(const std::string& path, const std::string& text) {
  SourceFile f;
  f.path = path;
  f.original = text;
  f.stripped = strip_comments_and_strings(text);
  f.original_lines = split_lines(f.original);
  f.stripped_lines = split_lines(f.stripped);
  f.tokens = tokenize(f.stripped);
  f.scopes = analyze_scopes(f.tokens);
  collect_containers(f.tokens, f.symbols);
  collect_thread_locals(f.tokens, f.symbols);
  collect_guarded(path, f.tokens, f.scopes, f.symbols);
  return f;
}

bool load_source(const std::string& path, SourceFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = make_source(path, buffer.str());
  return true;
}

// --- suppressions ---------------------------------------------------------

namespace {

constexpr const char* kAllowTag = "mris-analyze: allow(";
constexpr const char* kAllowFileTag = "mris-analyze: allow-file(";

/// The rule named by `tag(<rule>)` in `line`; false when the tag is absent.
bool allow_tag(const std::string& line, const char* tag, std::string& rule) {
  const std::size_t pos = line.find(tag);
  if (pos == std::string::npos) return false;
  const std::size_t open = line.find('(', pos);
  const std::size_t close = line.find(')', open);
  if (close == std::string::npos) return false;
  rule = line.substr(open + 1, close - open - 1);
  return true;
}

bool tag_allows(const std::string& line, const char* tag,
                const std::string& rule) {
  std::string arg;
  return allow_tag(line, tag, arg) && (arg == rule || arg == "all");
}

}  // namespace

bool line_allows(const std::string& original_line, const std::string& rule) {
  return tag_allows(original_line, kAllowTag, rule);
}

bool file_allows(const std::vector<std::string>& original_lines,
                 const std::string& rule) {
  const std::size_t scan = std::min<std::size_t>(original_lines.size(), 10);
  for (std::size_t i = 0; i < scan; ++i) {
    if (tag_allows(original_lines[i], kAllowFileTag, rule)) return true;
  }
  return false;
}

std::vector<StaleSuppression> stale_suppressions(
    const SourceFile& file, const std::vector<Finding>& raw) {
  const auto fires = [&](const std::string& rule, int line) {
    return std::any_of(raw.begin(), raw.end(), [&](const Finding& f) {
      return f.file == file.path && (rule == "all" || f.rule == rule) &&
             (line == 0 || f.line == line);
    });
  };
  std::vector<StaleSuppression> stale;
  for (std::size_t i = 0; i < file.original_lines.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    std::string rule;
    // A line-level allow covers its own line and the one below.
    if (allow_tag(file.original_lines[i], kAllowTag, rule) &&
        !fires(rule, line) && !fires(rule, line + 1)) {
      stale.push_back({file.path, line, rule, /*file_wide=*/false});
    }
    if (i < 10 && allow_tag(file.original_lines[i], kAllowFileTag, rule) &&
        !fires(rule, 0)) {
      stale.push_back({file.path, line, rule, /*file_wide=*/true});
    }
  }
  return stale;
}

std::string format_stale(const StaleSuppression& stale) {
  return stale.file + ":" + std::to_string(stale.line) + ": stale '" +
         (stale.file_wide ? kAllowFileTag : kAllowTag) + stale.rule +
         ")' — the rule no longer fires here; remove this comment";
}

bool Reporter::suppressed(int line, const std::string& rule) const {
  if (file_allows(file_.original_lines, rule)) return true;
  const std::size_t i = static_cast<std::size_t>(line) - 1;
  if (i < file_.original_lines.size() &&
      line_allows(file_.original_lines[i], rule)) {
    return true;
  }
  if (i >= 1 && i - 1 < file_.original_lines.size() &&
      line_allows(file_.original_lines[i - 1], rule)) {
    return true;
  }
  return false;
}

void Reporter::report(int line, const std::string& rule,
                      const std::string& message) {
  if (!options_.rule_filter.empty() &&
      std::find(options_.rule_filter.begin(), options_.rule_filter.end(),
                rule) == options_.rule_filter.end()) {
    return;
  }
  if (options_.honor_suppressions && suppressed(line, rule)) return;
  sink_.push_back({file_.path, line, rule, message});
}

}  // namespace mris::analyze
