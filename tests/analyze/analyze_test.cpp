// Unit tests for the mris_analyze frontend (stripper, tokens, scopes,
// symbols, suppressions, stale audit) and its four passes (lexical,
// layering, taint, thread-safety), plus end-to-end assertions over the
// committed fixture trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tools/mris_analyze/frontend.hpp"
#include "tools/mris_analyze/layering.hpp"
#include "tools/mris_analyze/lexical.hpp"
#include "tools/mris_analyze/taint.hpp"
#include "tools/mris_analyze/threadsafety.hpp"

namespace mris::analyze {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule,
              int line = -1) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && (line < 0 || f.line == line);
  });
}

int line_of(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

/// The per-file passes (lexical rules + taint) over one source text.
std::vector<Finding> lint(const std::string& source,
                          const std::string& path = "x/test.cpp",
                          const Options& options = {}) {
  const SourceFile f = make_source(path, source);
  std::vector<Finding> all = analyze_lexical(f, options);
  const auto taint = analyze_taint(f, options);
  all.insert(all.end(), taint.begin(), taint.end());
  return all;
}

std::vector<StaleSuppression> stale_of(const std::string& source) {
  Options raw;
  raw.honor_suppressions = false;
  return stale_suppressions(make_source("x/test.cpp", source),
                            lint(source, "x/test.cpp", raw));
}

// --- tokenizer ------------------------------------------------------------

TEST(Tokenize, IdentifiersNumbersAndMultiCharOperators) {
  const auto toks = tokenize("a2 += b->c :: 10 == x;");
  std::vector<std::string> texts;
  for (const auto& t : toks) texts.push_back(t.text);
  const std::vector<std::string> want = {"a2", "+=", "b", "->", "c",
                                         "::", "10", "==", "x",  ";"};
  EXPECT_EQ(texts, want);
  EXPECT_TRUE(toks[0].is_ident);
  EXPECT_FALSE(toks[6].is_ident);  // "10" is a number, not an identifier
}

TEST(Tokenize, TracksLineNumbersAndSkipsPreprocessor) {
  const auto toks = tokenize("int a;\n#define M(x) \\\n  (x)\nint b;\n");
  ASSERT_EQ(toks.size(), 6u);  // int a ; int b ; — the directive vanishes
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[3].text, "int");
  EXPECT_EQ(toks[3].line, 4);  // continuation consumed both #define lines
}

// --- scopes ---------------------------------------------------------------

TEST(Scopes, ClassifiesNamespaceClassFunctionBlock) {
  const std::string text =
      "namespace ns {\n"
      "class Widget {\n"
      " public:\n"
      "  int poke() {\n"
      "    if (x) { y(); }\n"
      "    return 0;\n"
      "  }\n"
      "};\n"
      "}\n";
  const SourceFile f = make_source("t.cpp", text);
  std::vector<ScopeKind> kinds;
  for (const auto& s : f.scopes) kinds.push_back(s.kind);
  const std::vector<ScopeKind> want = {ScopeKind::kNamespace, ScopeKind::kClass,
                                       ScopeKind::kFunction, ScopeKind::kBlock};
  EXPECT_EQ(kinds, want);
  EXPECT_EQ(f.scopes[0].name, "ns");
  EXPECT_EQ(f.scopes[1].name, "Widget");
  EXPECT_EQ(f.scopes[2].name, "poke");
  EXPECT_EQ(enclosing_class_name(f.scopes, 2), "Widget");

  // A token inside the if-block resolves to the function scope.
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].text == "y") {
      EXPECT_EQ(enclosing_function(f.scopes, i), 2);
    }
  }
}

TEST(Scopes, QualifiedOutOfLineDefinitionKeepsQualifier) {
  const SourceFile f =
      make_source("t.cpp", "int Widget::poke(int v) { return v; }\n");
  ASSERT_EQ(f.scopes.size(), 1u);
  EXPECT_EQ(f.scopes[0].kind, ScopeKind::kFunction);
  EXPECT_EQ(f.scopes[0].name, "Widget::poke");
}

// --- symbol table ---------------------------------------------------------

TEST(Symbols, RecordsContainersThreadLocalsAndGuards) {
  const std::string text =
      "#include <map>\n"
      "struct S {\n"
      "  std::unordered_map<int, int> ages_;\n"
      "  std::map<Task*, int> by_ptr_;\n"
      "  int hits_ MRIS_GUARDED_BY(mu_) = 0;\n"
      "  Journal* journal_ MRIS_PT_GUARDED_BY(mu_) = nullptr;\n"
      "};\n"
      "thread_local int scratch = 0;\n";
  const SourceFile f = make_source("t.cpp", text);

  ASSERT_EQ(f.symbols.containers.size(), 2u);
  EXPECT_EQ(f.symbols.containers[0].name, "ages_");
  EXPECT_EQ(f.symbols.containers[0].order, ContainerOrder::kUnordered);
  EXPECT_EQ(f.symbols.containers[1].name, "by_ptr_");
  EXPECT_EQ(f.symbols.containers[1].order, ContainerOrder::kPointerKeyed);

  ASSERT_EQ(f.symbols.thread_locals.size(), 1u);
  EXPECT_EQ(f.symbols.thread_locals[0], "scratch");

  ASSERT_EQ(f.symbols.guarded.size(), 2u);
  EXPECT_EQ(f.symbols.guarded[0].cls, "S");
  EXPECT_EQ(f.symbols.guarded[0].field, "hits_");
  EXPECT_EQ(f.symbols.guarded[0].mutex, "mu_");
  EXPECT_FALSE(f.symbols.guarded[0].pointer_guard);
  EXPECT_EQ(f.symbols.guarded[1].field, "journal_");
  EXPECT_TRUE(f.symbols.guarded[1].pointer_guard);
}

// --- suppressions ---------------------------------------------------------

TEST(Suppressions, LineAndPreviousLineAndWildcard) {
  EXPECT_TRUE(line_allows("x();  // mris-analyze: allow(ts-global)",
                          "ts-global"));
  EXPECT_TRUE(line_allows("// mris-analyze: allow(all)", "taint-flow"));
  EXPECT_FALSE(line_allows("// mris-analyze: allow(ts-global)", "ts-guard"));
  // The tag must be spelled exactly.
  EXPECT_FALSE(line_allows("// mris-analyze allow(ts-global)", "ts-global"));
}

TEST(Suppressions, ReporterHonorsCommentOnOrAboveLine) {
  const std::string text =
      "int a;\n"
      "// mris-analyze: allow(demo)\n"
      "int b;\n";
  const SourceFile f = make_source("t.cpp", text);
  Options options;
  std::vector<Finding> sink;
  Reporter r(f, options, sink);
  r.report(1, "demo", "on unsuppressed line");
  r.report(3, "demo", "line above allows");
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].line, 1);
  EXPECT_TRUE(r.suppressed(3, "demo"));

  // --no-suppress reports both.
  options.honor_suppressions = false;
  std::vector<Finding> raw;
  Reporter r2(f, options, raw);
  r2.report(3, "demo", "reported raw");
  EXPECT_EQ(raw.size(), 1u);
}

TEST(Suppressions, RuleFilterDropsOtherRules) {
  const SourceFile f = make_source("t.cpp", "int a;\n");
  Options options;
  options.rule_filter = {"keep-me"};
  std::vector<Finding> sink;
  Reporter r(f, options, sink);
  r.report(1, "keep-me", "kept");
  r.report(1, "drop-me", "dropped");
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].rule, "keep-me");
}

// --- layering -------------------------------------------------------------

SourceFile include_file(const std::string& rel, const std::string& body) {
  return make_source(rel, body);
}

TEST(Layering, UpwardIncludeIsFlaggedDownwardIsNot) {
  std::vector<SourceFile> files = {
      include_file("util/a.hpp", "#include \"sim/engine.hpp\"\n"),
      include_file("sim/engine.hpp", "#include \"util/rng.hpp\"\n"),
      include_file("util/rng.hpp", "int x;\n"),
  };
  const std::vector<std::string> rels = {"util/a.hpp", "sim/engine.hpp",
                                         "util/rng.hpp"};
  const LayeringResult res = analyze_layering(files, rels, Options{});
  ASSERT_TRUE(has_rule(res.findings, "layer-upward"));
  EXPECT_EQ(line_of(res.findings, "layer-upward"), 1);
  // Only the util -> sim edge is a violation; sim -> util is the order.
  EXPECT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].file, "util/a.hpp");
  EXPECT_EQ(res.edge_count, 2);
  EXPECT_EQ(res.modules.at("util").rank, 0);
  EXPECT_GT(res.modules.at("sim").rank, res.modules.at("util").rank);
}

TEST(Layering, FileCycleIsFlagged) {
  std::vector<SourceFile> files = {
      include_file("core/a.hpp", "#include \"core/b.hpp\"\n"),
      include_file("core/b.hpp", "#include \"core/a.hpp\"\n"),
  };
  const std::vector<std::string> rels = {"core/a.hpp", "core/b.hpp"};
  const LayeringResult res = analyze_layering(files, rels, Options{});
  EXPECT_TRUE(has_rule(res.findings, "layer-cycle"));
}

TEST(Layering, SuppressedViolationStaysInBaseline) {
  std::vector<SourceFile> files = {
      include_file("util/a.hpp",
                   "// mris-analyze: allow(layer-upward)\n"
                   "#include \"sim/engine.hpp\"\n"),
      include_file("sim/engine.hpp", "int x;\n"),
  };
  const std::vector<std::string> rels = {"util/a.hpp", "sim/engine.hpp"};
  const LayeringResult res = analyze_layering(files, rels, Options{});
  EXPECT_FALSE(has_rule(res.findings, "layer-upward"));
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_TRUE(res.violations[0].suppressed);
  // The suppressed edge still shows up in the JSON baseline.
  EXPECT_NE(layers_json(res).find("\"suppressed\": true"), std::string::npos);
}

TEST(Layering, JsonIsDeterministic) {
  std::vector<SourceFile> files = {
      include_file("sim/a.hpp", "#include \"util/b.hpp\"\n"),
      include_file("util/b.hpp", "int x;\n"),
  };
  const std::vector<std::string> rels = {"sim/a.hpp", "util/b.hpp"};
  const LayeringResult r1 = analyze_layering(files, rels, Options{});
  const LayeringResult r2 = analyze_layering(files, rels, Options{});
  EXPECT_EQ(layers_json(r1), layers_json(r2));
  EXPECT_NE(layers_json(r1).find("\"files\": 2"), std::string::npos);
  // The markdown rendering carries the layer diagram for docs.
  EXPECT_NE(layers_markdown(r1).find("util"), std::string::npos);
}

// --- taint ----------------------------------------------------------------

std::vector<Finding> taint_of(const std::string& text) {
  const SourceFile f = make_source("t.cpp", text);
  return analyze_taint(f, Options{});
}

TEST(Taint, RangeForOverUnorderedIsASource) {
  const auto findings = taint_of(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> ages;\n"
      "int sum() {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : ages) s += kv.second;\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "taint-unordered"));
  EXPECT_EQ(line_of(findings, "taint-unordered"), 5);
}

TEST(Taint, IteratorAndForEachFormsAreSources) {
  const auto findings = taint_of(
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen;\n"
      "void touch() {\n"
      "  auto it = seen.begin();\n"
      "  std::for_each(seen.cbegin(), seen.cend(), [](int) {});\n"
      "}\n");
  std::size_t unordered = 0;
  for (const auto& f : findings) unordered += f.rule == "taint-unordered";
  EXPECT_GE(unordered, 2u);
}

TEST(Taint, PointerKeyedMapAndPointerHash) {
  const auto findings = taint_of(
      "#include <map>\n"
      "struct Task;\n"
      "std::map<Task*, int> prio;\n"
      "std::size_t h(Task* t) { return std::hash<Task*>{}(t); }\n"
      "void walk() {\n"
      "  for (auto& kv : prio) {}\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "taint-pointer-key"));
}

TEST(Taint, FlowFromUnorderedIterationIntoSink) {
  const auto findings = taint_of(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> jobs;\n"
      "void drain(Engine& eng) {\n"
      "  for (auto& kv : jobs) {\n"
      "    int picked = kv.first;\n"
      "    eng.commit(picked);\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "taint-flow"));
  EXPECT_EQ(line_of(findings, "taint-flow"), 6);
}

TEST(Taint, ThreadLocalIsFlowOnlyNotAStandaloneFinding) {
  // A thread_local that never reaches a sink is silent...
  const auto clean = taint_of(
      "thread_local int scratch = 0;\n"
      "int bump() { return ++scratch; }\n");
  EXPECT_FALSE(has_rule(clean, "taint-flow"));
  // ...but passing one to an ordering-sensitive sink is a finding.
  const auto flagged = taint_of(
      "thread_local int scratch = 0;\n"
      "void drain(Engine& eng) { eng.push(scratch); }\n");
  EXPECT_TRUE(has_rule(flagged, "taint-flow"));
}

TEST(Taint, RangeForOverUndeclaredUnorderedIsASource) {
  // A temporary, and a member whose declaration lives in another file.
  EXPECT_TRUE(has_rule(
      taint_of("for (auto& kv : std::unordered_map<int, int>{{1, 2}}) f(kv);"),
      "taint-unordered"));
  EXPECT_TRUE(has_rule(taint_of("for (auto& kv : unordered_map_) f(kv);"),
                       "taint-unordered"));
}

TEST(Taint, SuppressionSilencesTheSource) {
  const auto findings = taint_of(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> ages;\n"
      "int sum() {\n"
      "  int s = 0;\n"
      "  // mris-analyze: allow(taint-unordered)\n"
      "  for (const auto& kv : ages) s += kv.second;\n"
      "  return s;\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "taint-unordered"));
}

// --- thread-safety --------------------------------------------------------

std::vector<Finding> ts_of(const std::string& text) {
  std::vector<SourceFile> files = {make_source("t.cpp", text)};
  return analyze_threadsafety(files, Options{});
}

TEST(ThreadSafety, MutableStaticWithoutAnnotationIsFlagged) {
  const auto findings = ts_of(
      "namespace x {\n"
      "static int g_hits = 0;\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "ts-global"));
  EXPECT_EQ(line_of(findings, "ts-global"), 2);
}

TEST(ThreadSafety, ConstexprMutexAndAtomicGlobalsAreExempt) {
  const auto findings = ts_of(
      "namespace x {\n"
      "constexpr int kLimit = 8;\n"
      "static const char* kName = \"mris\";\n"
      "static std::mutex g_mu;\n"
      "static std::atomic<int> g_count{0};\n"
      "static std::once_flag g_once;\n"
      "static int g_state MRIS_GUARDED_BY(g_mu) = 0;\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "ts-global"));
}

TEST(ThreadSafety, GuardedFieldTouchedWithoutNamingMutex) {
  const auto findings = ts_of(
      "class Queue {\n"
      " public:\n"
      "  void add(int v) { items_.push_back(v); }\n"
      "  int size() const {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    return items_.size();\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_ MRIS_GUARDED_BY(mu_);\n"
      "};\n");
  // add() never names mu_; size() locks it.
  std::size_t guard = 0;
  for (const auto& f : findings) guard += f.rule == "ts-guard";
  EXPECT_EQ(guard, 1u);
  EXPECT_EQ(line_of(findings, "ts-guard"), 3);
}

TEST(ThreadSafety, RequiresAnnotationInSignatureCountsAsNaming) {
  const auto findings = ts_of(
      "class Queue {\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_ MRIS_GUARDED_BY(mu_);\n"
      "  void add_locked(int v) MRIS_REQUIRES(mu_) { items_.push_back(v); }\n"
      "};\n");
  EXPECT_FALSE(has_rule(findings, "ts-guard"));
}

TEST(ThreadSafety, ConstructorIsExemptFromGuardDiscipline) {
  const auto findings = ts_of(
      "class Queue {\n"
      "  std::mutex mu_;\n"
      "  std::vector<int> items_ MRIS_GUARDED_BY(mu_);\n"
      " public:\n"
      "  Queue() { items_.reserve(8); }\n"
      "  ~Queue() { items_.clear(); }\n"
      "};\n");
  EXPECT_FALSE(has_rule(findings, "ts-guard"));
}

TEST(ThreadSafety, GuardRegistrySpansFiles) {
  // Annotation in the header, touch in the .cpp — the pass must join them.
  std::vector<SourceFile> files = {
      make_source("q.hpp",
                  "class Queue {\n"
                  "  std::mutex mu_;\n"
                  "  std::vector<int> items_ MRIS_GUARDED_BY(mu_);\n"
                  "  void add(int v);\n"
                  "};\n"),
      make_source("q.cpp", "void Queue::add(int v) { items_.push_back(v); }\n"),
  };
  const auto findings = analyze_threadsafety(files, Options{});
  ASSERT_TRUE(has_rule(findings, "ts-guard"));
  EXPECT_EQ(findings[0].file, "q.cpp");
}

TEST(ThreadSafety, ByRefCaptureSubmittedToPool) {
  const auto findings = ts_of(
      "void fan_out(util::ThreadPool& pool, int& acc) {\n"
      "  pool.submit([&acc] { ++acc; });\n"
      "  pool.submit([acc] { (void)acc; });\n"
      "}\n");
  std::size_t refcap = 0;
  for (const auto& f : findings) refcap += f.rule == "ts-ref-capture";
  EXPECT_EQ(refcap, 1u);
  EXPECT_EQ(line_of(findings, "ts-ref-capture"), 2);
}

// --- fixtures end to end --------------------------------------------------

std::vector<Finding> analyze_dir(const std::string& dir,
                                 const Options& options = {},
                                 std::vector<SourceFile>* loaded = nullptr) {
  const std::vector<std::string> paths = collect_sources(dir);
  std::vector<SourceFile> files;
  std::vector<std::string> rels;
  for (const std::string& p : paths) {
    SourceFile f;
    if (!load_source(p, f)) continue;
    rels.push_back(
        std::filesystem::path(p).lexically_relative(dir).generic_string());
    f.path = rels.back();
    files.push_back(std::move(f));
  }
  std::vector<Finding> all = analyze_layering(files, rels, options).findings;
  for (const SourceFile& f : files) {
    for (const auto& pass : {analyze_lexical, analyze_taint}) {
      const auto found = pass(f, options);
      all.insert(all.end(), found.begin(), found.end());
    }
  }
  const auto ts = analyze_threadsafety(files, options);
  all.insert(all.end(), ts.begin(), ts.end());
  if (loaded != nullptr) *loaded = std::move(files);
  return all;
}

TEST(Fixtures, GoodTreeIsClean) {
  const auto findings = analyze_dir(std::string(MRIS_ANALYZE_FIXTURES) +
                                    "/good");
  EXPECT_TRUE(findings.empty())
      << findings.size() << " unexpected finding(s), first: "
      << format_finding(findings.front());
}

TEST(Fixtures, EveryBadTreeTripsItsRule) {
  const std::vector<std::string> rules = {
      "layer-upward", "layer-cycle",     "taint-unordered",
      "taint-pointer-key", "taint-flow", "ts-global",
      "ts-guard",     "ts-ref-capture"};
  for (const std::string& rule : rules) {
    const auto findings =
        analyze_dir(std::string(MRIS_ANALYZE_FIXTURES) + "/bad/" + rule);
    EXPECT_TRUE(has_rule(findings, rule)) << "fixture for " << rule;
  }
}

TEST(Fixtures, StaleTreeReportsExactlyTheOrphans) {
  // Lexical and cross-file rules alike: each live allow is kept, each
  // orphan is reported once.
  Options raw;
  raw.honor_suppressions = false;
  std::vector<SourceFile> files;
  const auto findings =
      analyze_dir(std::string(MRIS_ANALYZE_FIXTURES) + "/stale", raw, &files);
  std::vector<std::tuple<std::string, int, std::string>> got;
  for (const SourceFile& f : files) {
    for (const StaleSuppression& s : stale_suppressions(f, findings)) {
      got.emplace_back(s.file, s.line, s.rule);
    }
  }
  const std::vector<std::tuple<std::string, int, std::string>> want = {
      {"sim/queue.hpp", 16, "ts-guard"},
      {"stale.cpp", 12, "no-float"},
      {"util/includes.hpp", 9, "layer-upward"},
  };
  EXPECT_EQ(got, want);
}

// --- comment/string stripping --------------------------------------------

TEST(LintStripTest, LineCommentsAreBlanked) {
  const std::string s = strip_comments_and_strings("int x; // rand()\nint y;");
  EXPECT_EQ(s.find("rand"), std::string::npos);
  EXPECT_NE(s.find("int y;"), std::string::npos);
}

TEST(LintStripTest, BlockCommentsPreserveNewlines) {
  const std::string s =
      strip_comments_and_strings("a /* rand()\n time() */ b");
  EXPECT_EQ(s.find("rand"), std::string::npos);
  EXPECT_EQ(s.find("time"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 1);
  EXPECT_NE(s.find('a'), std::string::npos);
  EXPECT_NE(s.find('b'), std::string::npos);
}

TEST(LintStripTest, StringLiteralsAreBlanked) {
  const std::string s =
      strip_comments_and_strings("call(\"rand() \\\" time()\");");
  EXPECT_EQ(s.find("rand"), std::string::npos);
  EXPECT_EQ(s.find("time"), std::string::npos);
  EXPECT_NE(s.find("call("), std::string::npos);
}

TEST(LintStripTest, RawStringsAreBlanked) {
  const std::string s = strip_comments_and_strings(
      "auto d = R\"doc(rand() \" ' float)doc\"; int after;");
  EXPECT_EQ(s.find("rand"), std::string::npos);
  EXPECT_EQ(s.find("float"), std::string::npos);
  EXPECT_NE(s.find("int after;"), std::string::npos);
}

TEST(LintStripTest, DigitSeparatorIsNotACharLiteral) {
  const std::string s =
      strip_comments_and_strings("int n = 1'000'000; float f;");
  EXPECT_NE(s.find("float f;"), std::string::npos);
  // Hex digits after a separator still belong to the number.
  EXPECT_NE(strip_comments_and_strings("int h = 0xFF'FF'FF; float g;")
                .find("float g;"),
            std::string::npos);
}

TEST(LintStripTest, CharLiteralsAreBlanked) {
  const std::string s = strip_comments_and_strings("char c = 'f'; int g;");
  // The 'f' must not survive as code, the rest must.
  EXPECT_NE(s.find("char c ="), std::string::npos);
  EXPECT_NE(s.find("int g;"), std::string::npos);
  EXPECT_EQ(s.find("'f'"), std::string::npos);
}

TEST(LintStripTest, PrefixedCharLiteralsHoldingAQuoteAreBlanked) {
  // After an identifier the quote opens a literal, so the '"' inside must
  // not open a string that swallows the code after it.
  for (const std::string lit : {"U'\"'", "L'\"'", "u8'\"'", "return '\"'"}) {
    const std::string s =
        strip_comments_and_strings(lit + ";\nfloat f = 0;\nint g = rand();");
    EXPECT_NE(s.find("float f = 0;"), std::string::npos) << lit;
    EXPECT_NE(s.find("int g = rand();"), std::string::npos) << lit;
    EXPECT_EQ(s.find('"'), std::string::npos) << lit;
  }
  const auto findings = lint("char32_t q = U'\"';\nfloat f = 0;\nint g = rand();");
  EXPECT_TRUE(has_rule(findings, "no-float", 2));
  EXPECT_TRUE(has_rule(findings, "determinism-rand", 3));
}

// --- lexical rules ---------------------------------------------------------

TEST(LintRuleTest, FlagsRandFamily) {
  EXPECT_TRUE(has_rule(lint("int x = std::rand();"), "determinism-rand", 1));
  EXPECT_TRUE(has_rule(lint("srand(7);"), "determinism-rand", 1));
  EXPECT_TRUE(
      has_rule(lint("std::random_device rd;"), "determinism-rand", 1));
  EXPECT_TRUE(has_rule(lint("std::mt19937 gen;"), "determinism-rand", 1));
}

TEST(LintRuleTest, FlagsWallClockReads) {
  EXPECT_TRUE(has_rule(lint("long t = time(nullptr);"), "determinism-time"));
  EXPECT_TRUE(has_rule(lint("auto c = clock();"), "determinism-time"));
  EXPECT_TRUE(has_rule(lint("auto n = std::chrono::steady_clock::now();"),
                       "determinism-time"));
}

TEST(LintRuleTest, IdentifiersContainingRuleWordsAreClean) {
  EXPECT_TRUE(lint("double completion_time(int j);").empty());
  EXPECT_TRUE(lint("double start_time = 0.0;").empty());
  EXPECT_TRUE(lint("int operand = 3;").empty());
  EXPECT_TRUE(lint("static_assert(sizeof(int) == 4);").empty());
}

TEST(LintRuleTest, RngHeaderIsExemptFromDeterminismRules) {
  EXPECT_TRUE(lint("#pragma once\n// impl\nstd::uint64_t x = rand();\n",
                   "src/util/rng.hpp")
                  .empty());
}

TEST(LintRuleTest, FlagsUnorderedIteration) {
  EXPECT_TRUE(has_rule(lint("for (auto& kv : unordered_map_) f(kv);"),
                       "taint-unordered"));
  EXPECT_TRUE(lint("for (auto& kv : sorted_map_) f(kv);").empty());
  // Declaring one is fine; only iterating is flagged.
  EXPECT_TRUE(lint("std::unordered_map<int, int> m;").empty());
}

TEST(LintRuleTest, TracksUnorderedVariablesAcrossLines) {
  // The declaration and the range-for are lines apart; the symbol table
  // remembers which identifiers were declared with an unordered_* type.
  EXPECT_TRUE(has_rule(lint("std::unordered_map<int, int> hist;\n"
                            "void f() {\n"
                            "  for (auto& kv : hist) g(kv);\n"
                            "}\n"),
                       "taint-unordered", 3));
  // Reference parameters count as declarations too.
  EXPECT_TRUE(has_rule(lint("void f(const std::unordered_set<int>& seen) {\n"
                            "  for (int s : seen) g(s);\n"
                            "}\n"),
                       "taint-unordered", 2));
  // A for loop over an unrelated name stays clean.
  EXPECT_TRUE(lint("std::unordered_map<int, int> hist;\n"
                   "void f(std::vector<int>& v) {\n"
                   "  for (int s : v) g(s);\n"
                   "}\n")
                  .empty());
}

TEST(LintRuleTest, FlagsIteratorAndForEachTraversal) {
  // begin()-family iterators on a known unordered variable.
  EXPECT_TRUE(has_rule(lint("std::unordered_map<int, int> hist;\n"
                            "void f() {\n"
                            "  auto it = hist.begin();\n"
                            "}\n"),
                       "taint-unordered", 3));
  // std::for_each over an unordered container.
  EXPECT_TRUE(has_rule(lint("std::unordered_set<int> seen;\n"
                            "void f() {\n"
                            "  std::for_each(seen.cbegin(), seen.cend(), g);\n"
                            "}\n"),
                       "taint-unordered", 3));
  // begin() on an ordered container stays clean.
  EXPECT_TRUE(lint("std::map<int, int> sorted;\n"
                   "void f() {\n"
                   "  auto it = sorted.begin();\n"
                   "}\n")
                  .empty());
  // A range-for line is reported once, not once per matching branch.
  const auto findings = lint("std::unordered_map<int, int> hist;\n"
                             "void f() {\n"
                             "  for (auto& kv : hist) g(kv);\n"
                             "}\n");
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LintRuleTest, FlagsFloat) {
  EXPECT_TRUE(has_rule(lint("float f = 0.5f;"), "no-float", 1));
  EXPECT_TRUE(lint("double d = 0.5; int afloat = 1;").empty());
}

TEST(LintRuleTest, FlagsNakedAssertButNotContractsHeader) {
  EXPECT_TRUE(has_rule(lint("assert(x > 0);"), "naked-assert"));
  EXPECT_TRUE(has_rule(lint("#include <cassert>"), "naked-assert"));
  EXPECT_TRUE(
      lint("#pragma once\nvoid f() { assert(1); }\n", "src/util/contracts.hpp")
          .empty());
}

TEST(LintRuleTest, FlagsStdout) {
  EXPECT_TRUE(has_rule(lint("std::cout << x;"), "stdout"));
  EXPECT_TRUE(has_rule(lint("printf(\"%d\", x);"), "stdout"));
  EXPECT_TRUE(lint("std::snprintf(buf, sizeof buf, \"%d\", x);").empty());
}

TEST(LintRuleTest, FlagsRawIoOutsideRecoveryLayer) {
  EXPECT_TRUE(has_rule(lint("std::fwrite(p, 1, n, f);"), "raw-io"));
  EXPECT_TRUE(has_rule(lint("::fsync(fd);"), "raw-io"));
  EXPECT_TRUE(has_rule(lint("fdatasync(fd);"), "raw-io"));
  EXPECT_TRUE(has_rule(lint("pwrite(fd, p, n, 0);"), "raw-io"));
  EXPECT_TRUE(has_rule(lint("::write(fd, p, n);"), "raw-io"));
  EXPECT_TRUE(has_rule(lint("return ::write(fd, p, n);"), "raw-io"));
}

TEST(LintRuleTest, RawIoSparesMethodsHelpersAndRecoveryLayer) {
  // Method calls and write_* helpers are not the write(2) syscall.
  EXPECT_TRUE(lint("store->write(meta, payload);").empty());
  EXPECT_TRUE(lint("snapstore_.write(meta, payload);").empty());
  EXPECT_TRUE(lint("util::write_csv(f, table);").empty());
  EXPECT_TRUE(lint("exp::write_series_csv(path, series);").empty());
  EXPECT_TRUE(lint("store::write(meta, payload);").empty());
  // The recovery IO layer itself owns raw durable writes.
  EXPECT_TRUE(lint("void f() { std::fwrite(p, 1, n, file); }\n",
                   "src/sim/recovery/journal.cpp")
                  .empty());
  EXPECT_TRUE(lint("void f() { ::fsync(fd); ::write(fd, p, n); }\n",
                   "src/sim/recovery/snapshot.cpp")
                  .empty());
}

TEST(LintRuleTest, FlagsVectorIntrinsicsOutsideSimdLayer) {
  EXPECT_TRUE(has_rule(lint("#include <immintrin.h>"), "raw-simd"));
  EXPECT_TRUE(has_rule(lint("__m256d v = _mm256_loadu_pd(p);"), "raw-simd"));
  EXPECT_TRUE(has_rule(lint("auto m = _mm_set1_pd(x);"), "raw-simd"));
  EXPECT_TRUE(has_rule(lint("__m512d z;"), "raw-simd"));
}

TEST(LintRuleTest, RawSimdSparesLookalikesAndTheSimdLayer) {
  // Identifiers merely containing the prefixes are not intrinsics.
  EXPECT_TRUE(lint("int comm_mm = 0; double x_mm256 = 1.0;").empty());
  EXPECT_TRUE(lint("shared_memory__m256 = nullptr;").empty());
  // No path is exempt: the rule holds in every file.
  EXPECT_TRUE(has_rule(lint("__m256d v = _mm256_add_pd(a, b);\n#pragma once\n",
                            "src/util/simd.hpp"),
                       "raw-simd", 1));
  // Suppressions work like every other rule.
  EXPECT_FALSE(has_rule(lint("__m256d v;  // mris-analyze: allow(raw-simd)"),
                        "raw-simd"));
}

TEST(LintRuleTest, HeaderRequiresPragmaOnce) {
  EXPECT_TRUE(has_rule(lint("int f();\n", "x/h.hpp"), "pragma-once", 1));
  EXPECT_TRUE(lint("#pragma once\nint f();\n", "x/h.hpp").empty());
  // Not required for .cpp files.
  EXPECT_TRUE(lint("int f() { return 1; }\n", "x/h.cpp").empty());
}

// --- suppressions of the lexical rules ------------------------------------

TEST(LintSuppressionTest, SameLineAllowSilencesRule) {
  EXPECT_TRUE(lint("float f;  // mris-analyze: allow(no-float)").empty());
}

TEST(LintSuppressionTest, PreviousLineAllowSilencesRule) {
  EXPECT_TRUE(lint("// mris-analyze: allow(no-float)\nfloat f;").empty());
}

TEST(LintSuppressionTest, AllowAllSilencesEveryRule) {
  EXPECT_TRUE(lint("float f = rand();  // mris-analyze: allow(all)").empty());
}

TEST(LintSuppressionTest, WrongRuleDoesNotSilence) {
  EXPECT_TRUE(has_rule(lint("float f;  // mris-analyze: allow(stdout)"),
                       "no-float"));
}

TEST(LintSuppressionTest, FileLevelAllowSilencesWholeFile) {
  EXPECT_TRUE(
      lint("// mris-analyze: allow-file(no-float)\n\nfloat a;\nfloat b;")
          .empty());
}

TEST(LintSuppressionTest, NoSuppressModeReportsAnyway) {
  Options options;
  options.honor_suppressions = false;
  EXPECT_TRUE(has_rule(lint("float f;  // mris-analyze: allow(no-float)",
                            "x/test.cpp", options),
                       "no-float"));
}

// --- stale-suppression audit ----------------------------------------------

TEST(LintStaleTest, LiveSuppressionIsNotStale) {
  EXPECT_TRUE(stale_of("float f;  // mris-analyze: allow(no-float)").empty());
  // A previous-line allow covering the next line is live too.
  EXPECT_TRUE(stale_of("// mris-analyze: allow(no-float)\nfloat f;").empty());
}

TEST(LintStaleTest, OrphanedSuppressionIsReported) {
  const auto stale = stale_of("int i = 0;  // mris-analyze: allow(no-float)");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].line, 1);
  EXPECT_EQ(stale[0].rule, "no-float");
  EXPECT_FALSE(stale[0].file_wide);
  // The fix-style rendering names the comment to delete.
  EXPECT_NE(format_stale(stale[0]).find("mris-analyze: allow(no-float)"),
            std::string::npos);
}

TEST(LintStaleTest, AllowAllIsLiveIfAnyRuleFires) {
  EXPECT_TRUE(
      stale_of("float f = rand();  // mris-analyze: allow(all)").empty());
  EXPECT_EQ(stale_of("int i = 0;  // mris-analyze: allow(all)").size(), 1u);
}

TEST(LintStaleTest, FileWideSuppressionCheckedAgainstWholeFile) {
  // Live: a float appears further down the file.
  EXPECT_TRUE(stale_of("// mris-analyze: allow-file(no-float)\n"
                       "int a;\n"
                       "float b;\n")
                  .empty());
  // Stale: the rule never fires anywhere.
  const auto stale = stale_of("// mris-analyze: allow-file(no-float)\n"
                              "int a;\n");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_TRUE(stale[0].file_wide);
  EXPECT_NE(format_stale(stale[0]).find("allow-file(no-float)"),
            std::string::npos);
}

TEST(LintStaleTest, OtherFilesFindingsDoNotKeepAnAllowAlive) {
  const SourceFile f =
      make_source("a.cpp", "int i = 0;  // mris-analyze: allow(no-float)");
  const std::vector<Finding> raw = {{"b.cpp", 1, "no-float", "elsewhere"}};
  EXPECT_EQ(stale_suppressions(f, raw).size(), 1u);
}

// --- lexical fixture files (the same ones the ctests scan) -----------------

std::string lexical_fixtures() {
  return std::string(MRIS_ANALYZE_FIXTURES) + "/lexical";
}

std::vector<Finding> lint_file(const std::string& path) {
  SourceFile f;
  EXPECT_TRUE(load_source(path, f)) << path;
  return lint(f.original, path);
}

TEST(LintFixtureTest, GoodFixturesAreClean) {
  const auto files = collect_sources(lexical_fixtures() + "/good");
  ASSERT_GE(files.size(), 2u);
  for (const auto& path : files) {
    for (const auto& f : lint_file(path)) ADD_FAILURE() << format_finding(f);
  }
}

TEST(LintFixtureTest, BadFixturesTripEveryRule) {
  std::vector<Finding> all;
  for (const auto& path : collect_sources(lexical_fixtures() + "/bad")) {
    const auto findings = lint_file(path);
    all.insert(all.end(), findings.begin(), findings.end());
  }
  for (const char* rule :
       {"determinism-rand", "determinism-time", "taint-unordered", "no-float",
        "naked-assert", "stdout", "pragma-once", "raw-io", "raw-simd"}) {
    EXPECT_TRUE(has_rule(all, rule)) << rule;
  }
}

TEST(LintFixtureTest, BadFixtureFindingsAreExactlyTheMarkedLines) {
  // Every (file, line, rule) the bad tree must produce, and nothing else.
  std::set<std::tuple<std::string, int, std::string>> got;
  for (const auto& path : collect_sources(lexical_fixtures() + "/bad")) {
    for (const auto& f : lint_file(path)) {
      got.emplace(std::filesystem::path(f.file).filename().string(), f.line,
                  f.rule);
    }
  }
  const std::set<std::tuple<std::string, int, std::string>> want = {
      {"missing_pragma.hpp", 1, "pragma-once"},
      {"raw_io.cpp", 7, "raw-io"},
      {"raw_io.cpp", 8, "raw-io"},
      {"raw_io.cpp", 9, "raw-io"},
      {"raw_io.cpp", 10, "raw-io"},
      {"raw_io.cpp", 11, "raw-io"},
      {"raw_simd.cpp", 3, "raw-simd"},
      {"raw_simd.cpp", 6, "raw-simd"},
      {"raw_simd.cpp", 7, "raw-simd"},
      {"raw_simd.cpp", 9, "raw-simd"},
      {"unordered_iter2.cpp", 12, "taint-unordered"},
      {"unordered_iter2.cpp", 17, "taint-unordered"},
      {"violations.cpp", 3, "naked-assert"},
      {"violations.cpp", 12, "determinism-rand"},
      {"violations.cpp", 13, "determinism-time"},
      {"violations.cpp", 14, "determinism-rand"},
      {"violations.cpp", 20, "taint-unordered"},
      {"violations.cpp", 24, "no-float"},
      {"violations.cpp", 25, "naked-assert"},
      {"violations.cpp", 26, "stdout"},
      {"violations.cpp", 27, "no-float"},
  };
  EXPECT_EQ(got, want);
}

TEST(LintFixtureTest, RawIoFixtureLinesAreExact) {
  const auto findings = lint_file(lexical_fixtures() + "/bad/raw_io.cpp");
  EXPECT_TRUE(has_rule(findings, "raw-io", 7));   // fwrite
  EXPECT_TRUE(has_rule(findings, "raw-io", 8));   // fsync
  EXPECT_TRUE(has_rule(findings, "raw-io", 9));   // fdatasync
  EXPECT_TRUE(has_rule(findings, "raw-io", 10));  // pwrite
  EXPECT_TRUE(has_rule(findings, "raw-io", 11));  // ::write
  for (const auto& f : findings) EXPECT_EQ(f.rule, "raw-io");
}

TEST(LintFixtureTest, BadFixtureLinesAreExact) {
  const auto findings = lint_file(lexical_fixtures() + "/bad/violations.cpp");
  EXPECT_TRUE(has_rule(findings, "naked-assert", 3));
  EXPECT_TRUE(has_rule(findings, "determinism-rand", 12));
  EXPECT_TRUE(has_rule(findings, "determinism-time", 13));
  EXPECT_TRUE(has_rule(findings, "determinism-rand", 14));
  EXPECT_TRUE(has_rule(findings, "taint-unordered", 20));
  EXPECT_TRUE(has_rule(findings, "no-float", 24));
  EXPECT_TRUE(has_rule(findings, "naked-assert", 25));
  EXPECT_TRUE(has_rule(findings, "stdout", 26));
}

TEST(LintFixtureTest, CollectSourcesIsSortedAndFiltered) {
  const auto files = collect_sources(lexical_fixtures());
  ASSERT_GE(files.size(), 4u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const auto& f : files) {
    EXPECT_TRUE(f.ends_with(".hpp") || f.ends_with(".cpp")) << f;
  }
}

}  // namespace
}  // namespace mris::analyze
