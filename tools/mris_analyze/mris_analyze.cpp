// mris_analyze: the project's static-analysis tool (see frontend.hpp).
//
//   mris_analyze [--no-suppress] [--stale] [--rule R]... [--json PATH]
//                [--md PATH] [--list-rules] <src-root>
//
// Passes: per-file lexical rules, include-graph layering, nondeterminism
// taint, thread-safety discipline (--list-rules prints every rule id).
//
// --stale audits the suppression comments instead of the code: every pass
// runs with suppressions ignored, and each `mris-analyze: allow(...)` whose
// rule no longer fires where it points is printed, fix-style.
//
// Exit codes: 0 clean, 1 findings (or stale suppressions), 2 usage/I-O
// error.  --json/--md write the deterministic layering summary regardless
// of findings, so CI can upload the report from a red run too.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/mris_analyze/frontend.hpp"
#include "tools/mris_analyze/layering.hpp"
#include "tools/mris_analyze/lexical.hpp"
#include "tools/mris_analyze/taint.hpp"
#include "tools/mris_analyze/threadsafety.hpp"

namespace {

constexpr const char* kRules[] = {
    "determinism-rand", "determinism-time", "pragma-once",  "no-float",
    "naked-assert",     "stdout",           "raw-io",       "raw-simd",
    "layer-upward",     "layer-cycle",      "taint-unordered",
    "taint-pointer-key", "taint-flow",      "ts-global",    "ts-guard",
    "ts-ref-capture",
};

int usage() {
  std::cerr << "usage: mris_analyze [--no-suppress] [--stale] [--rule R]... "
               "[--json PATH] [--md PATH] [--list-rules] <src-root>\n";
  return 2;
}

bool write_text(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

/// Path relative to the scanned root, for module attribution.
std::string relative_to(const std::string& root, const std::string& path) {
  std::string prefix = root;
  while (!prefix.empty() && prefix.back() == '/') prefix.pop_back();
  if (path.size() > prefix.size() + 1 &&
      path.compare(0, prefix.size(), prefix) == 0 &&
      path[prefix.size()] == '/') {
    return path.substr(prefix.size() + 1);
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using mris::analyze::Finding;
  using mris::analyze::Options;
  using mris::analyze::SourceFile;

  Options options;
  bool stale_mode = false;
  std::string root, json_path, md_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-suppress") {
      options.honor_suppressions = false;
    } else if (arg == "--stale") {
      stale_mode = true;
      options.honor_suppressions = false;
    } else if (arg == "--rule" && i + 1 < argc) {
      options.rule_filter.push_back(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--md" && i + 1 < argc) {
      md_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const char* r : kRules) std::cout << r << "\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (root.empty()) {
      root = arg;
    } else {
      return usage();
    }
  }
  // The audit needs every rule's raw findings.
  if (root.empty() || (stale_mode && !options.rule_filter.empty())) {
    return usage();
  }

  const std::vector<std::string> paths = mris::analyze::collect_sources(root);
  if (paths.empty()) {
    std::cerr << "mris_analyze: no .hpp/.cpp sources under '" << root
              << "'\n";
    return 2;
  }

  std::vector<SourceFile> files;
  std::vector<std::string> rel_paths;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    SourceFile f;
    if (!mris::analyze::load_source(p, f)) {
      std::cerr << "mris_analyze: cannot read '" << p << "'\n";
      return 2;
    }
    files.push_back(std::move(f));
    rel_paths.push_back(relative_to(root, p));
  }

  std::vector<Finding> findings;
  const mris::analyze::LayeringResult layering =
      mris::analyze::analyze_layering(files, rel_paths, options);
  findings.insert(findings.end(), layering.findings.begin(),
                  layering.findings.end());
  for (const SourceFile& f : files) {
    for (const auto& pass : {mris::analyze::analyze_lexical,
                             mris::analyze::analyze_taint}) {
      const std::vector<Finding> found = pass(f, options);
      findings.insert(findings.end(), found.begin(), found.end());
    }
  }
  const std::vector<Finding> ts =
      mris::analyze::analyze_threadsafety(files, options);
  findings.insert(findings.end(), ts.begin(), ts.end());

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  if (stale_mode) {
    std::size_t stale = 0;
    for (const SourceFile& f : files) {
      for (const auto& s : mris::analyze::stale_suppressions(f, findings)) {
        std::cout << mris::analyze::format_stale(s) << "\n";
        ++stale;
      }
    }
    std::cout << "mris_analyze: " << stale << " stale suppression"
              << (stale == 1 ? "" : "s") << " in " << files.size()
              << " files\n";
    return stale == 0 ? 0 : 1;
  }
  for (const Finding& f : findings) {
    std::cout << mris::analyze::format_finding(f) << "\n";
  }

  if (!json_path.empty() &&
      !write_text(json_path, mris::analyze::layers_json(layering))) {
    std::cerr << "mris_analyze: cannot write '" << json_path << "'\n";
    return 2;
  }
  if (!md_path.empty() &&
      !write_text(md_path, mris::analyze::layers_markdown(layering))) {
    std::cerr << "mris_analyze: cannot write '" << md_path << "'\n";
    return 2;
  }

  if (findings.empty()) {
    std::cout << "mris_analyze: " << paths.size() << " files, "
              << layering.edge_count << " include edges: clean\n";
    return 0;
  }
  std::cout << "mris_analyze: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << "\n";
  return 1;
}
