// Shared token/AST-lite frontend for mris_analyze, the project's one
// static-analysis tool (lexical rules, layering, nondeterminism taint,
// thread-safety discipline — see the pass headers next to this file).
//
// The frontend is deliberately several levels below a real C++ parser:
//
//   * comments/strings are blanked by strip_comments_and_strings
//     (newlines preserved, so token line numbers survive);
//   * the stripped text is tokenized (identifiers, numbers, and a small
//     set of multi-char operators; preprocessor lines are skipped);
//   * braces are matched into a scope tree whose nodes are classified as
//     namespace / class / enum / function / block / initializer by the
//     tokens that introduced them — enough to know, for any token, which
//     function body and which class it lives in;
//   * a per-file symbol table records the declarations the passes care
//     about: variables of unordered container types, containers keyed by
//     pointers, thread_local variables, and fields annotated with the
//     MRIS_GUARDED_BY family from util/contracts.hpp.
//
// Suppressions: `// mris-analyze: allow(<rule>)` on the offending line or
// the line above, `// mris-analyze: allow-file(<rule>)` within the first
// 10 lines, and `all` as a wildcard rule.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mris::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" — clickable compiler format.
std::string format_finding(const Finding& finding);

struct Options {
  bool honor_suppressions = true;
  /// When non-empty, only findings whose rule is listed are reported.
  std::vector<std::string> rule_filter;
};

// --- text ---------------------------------------------------------------

/// Blanks out comments and string/character literal contents (newlines
/// preserved, so line numbers survive).  Handles escapes, raw strings,
/// prefixed literals (u8"", U'x') and digit separators (1'000 is not a
/// char literal).
std::string strip_comments_and_strings(const std::string& source);

/// All .hpp/.cpp/.h/.cc files under `root` (or just {root} when it is a
/// file), sorted so output and exit codes are deterministic.
std::vector<std::string> collect_sources(const std::string& root);

// --- tokens ---------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;  ///< identifier or keyword (not number/punct)
};

/// Tokenizes stripped source.  Identifiers/keywords and numbers are one
/// token each; `::`, `->`, and two-char operators (==, <=, +=, ...) are
/// single tokens; every other punctuation char is its own token.
/// Preprocessor directives (`#...` to end of line, following line
/// continuations) produce no tokens.
std::vector<Token> tokenize(const std::string& stripped);

// --- scopes ---------------------------------------------------------------

enum class ScopeKind {
  kNamespace,
  kClass,     ///< class/struct/union body
  kEnum,
  kFunction,  ///< function/constructor/lambda-free body at ns/class scope
  kBlock,     ///< any brace inside a function (if/for/lambda/plain block)
  kInit,      ///< braced initializer (`= {...}`, `Type x{...}` args)
};

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  std::size_t open = 0;        ///< token index of '{'
  std::size_t close = 0;       ///< token index of matching '}'
  std::size_t sig_begin = 0;   ///< token index where the introducer starts
                               ///< (namespace/class/function signature)
  std::string name;            ///< namespace/class/function name ("" if n/a)
  int parent = -1;             ///< index into the scope list, -1 for none
};

/// Brace-matched, classified scope list in source order.  Never throws on
/// malformed input; unbalanced braces simply truncate the tree.
std::vector<Scope> analyze_scopes(const std::vector<Token>& tokens);

/// Innermost scope containing token index `tok` (or -1).
int enclosing_scope(const std::vector<Scope>& scopes, std::size_t tok);

/// Innermost *function* scope containing token `tok` (or -1).
int enclosing_function(const std::vector<Scope>& scopes, std::size_t tok);

/// Name of the class scope lexically enclosing scope `idx` ("" if none).
std::string enclosing_class_name(const std::vector<Scope>& scopes, int idx);

// --- per-file symbol table ------------------------------------------------

enum class ContainerOrder {
  kUnordered,    ///< unordered_{map,set,multimap,multiset}
  kPointerKeyed  ///< std::map/std::set (ordered) keyed by a pointer type
};

struct ContainerDecl {
  std::string name;  ///< declared identifier
  ContainerOrder order = ContainerOrder::kUnordered;
  int line = 0;
};

struct GuardedField {
  std::string cls;    ///< enclosing class name ("" at namespace scope)
  std::string field;  ///< annotated identifier
  std::string mutex;  ///< guard expression text, e.g. "mutex_"
  std::string file;
  int line = 0;
  bool pointer_guard = false;  ///< MRIS_PT_GUARDED_BY
};

struct SymbolTable {
  std::vector<ContainerDecl> containers;
  std::vector<std::string> thread_locals;  ///< thread_local variable names
  std::vector<GuardedField> guarded;
};

// --- source file ----------------------------------------------------------

struct SourceFile {
  std::string path;       ///< as reported in findings
  std::string original;
  std::string stripped;   ///< strip_comments_and_strings(original)
  std::vector<std::string> original_lines;
  std::vector<std::string> stripped_lines;
  std::vector<Token> tokens;
  std::vector<Scope> scopes;
  SymbolTable symbols;
};

/// Builds the full frontend view of one translation unit given as text.
SourceFile make_source(const std::string& path, const std::string& text);

/// Reads and analyzes a file.  Returns false (leaving `out` empty) when
/// the file cannot be read.
bool load_source(const std::string& path, SourceFile& out);

// --- suppressions ---------------------------------------------------------

/// `// mris-analyze: allow(<rule>)` on this exact line text.
bool line_allows(const std::string& original_line, const std::string& rule);

/// `// mris-analyze: allow-file(<rule>)` within the first 10 lines.
bool file_allows(const std::vector<std::string>& original_lines,
                 const std::string& rule);

/// An allow comment that no longer suppresses anything: with suppressions
/// ignored, its rule fires on neither its line nor the next (allow-file:
/// nowhere in the file).  `all` matches any rule.
struct StaleSuppression {
  std::string file;
  int line = 0;            ///< 1-based line of the allow comment
  std::string rule;        ///< the rule named in the comment (may be "all")
  bool file_wide = false;  ///< allow-file(...) form
};

/// Audits `file`'s allow comments against `raw`, the findings of every
/// pass run with suppressions ignored (findings of other files are
/// skipped).
std::vector<StaleSuppression> stale_suppressions(
    const SourceFile& file, const std::vector<Finding>& raw);

/// "file:line: stale 'mris-analyze: allow(rule)' — remove this comment".
std::string format_stale(const StaleSuppression& stale);

/// Collects `finding` unless suppressed or filtered out by `options`.
class Reporter {
 public:
  Reporter(const SourceFile& file, const Options& options,
           std::vector<Finding>& sink)
      : file_(file), options_(options), sink_(sink) {}

  void report(int line, const std::string& rule, const std::string& message);

  /// True if the finding would be dropped by a suppression comment (used
  /// by passes that must record suppressed results, e.g. the layering
  /// JSON baseline).
  bool suppressed(int line, const std::string& rule) const;

 private:
  const SourceFile& file_;
  const Options& options_;
  std::vector<Finding>& sink_;
};

// --- small shared helpers -------------------------------------------------

bool is_word_char(char c);

/// Index of the matching ')' / '>' / ']' for the opener at `open`
/// (tokens[open] must be the opener); tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open);

}  // namespace mris::analyze
