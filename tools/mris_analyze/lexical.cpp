#include "tools/mris_analyze/lexical.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

namespace mris::analyze {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool contains(const std::string& line, const char* needle) {
  return line.find(needle) != std::string::npos;
}

bool is_directive(const std::string& stripped_line) {
  const std::size_t pos = stripped_line.find_first_not_of(" \t");
  return pos != std::string::npos && stripped_line[pos] == '#';
}

bool is_vector_intrinsic(const std::string& ident) {
  return starts_with(ident, "_mm") || starts_with(ident, "__m128") ||
         starts_with(ident, "__m256") || starts_with(ident, "__m512");
}

constexpr const char* kAssertMessage =
    "assert is compiled out in NDEBUG (RelWithDebInfo) builds; use "
    "MRIS_EXPECT/MRIS_ENSURE/MRIS_INVARIANT from util/contracts.hpp";
constexpr const char* kSimdMessage =
    "x86 vector intrinsics; the tree is scalar C++ (a vector kernel needs an "
    "end-to-end benchmark row that shows it, a scalar reference and an "
    "identity test)";
constexpr const char* kRawIoMessage =
    "' outside the recovery IO layer; durable writes must go through "
    "JournalWriter/SnapshotStore (src/sim/recovery/), which add retry, CRC "
    "framing, and fsync batching";

}  // namespace

std::vector<Finding> analyze_lexical(const SourceFile& file,
                                     const Options& options) {
  std::vector<Finding> findings;
  Reporter reporter(file, options, findings);
  const std::string& path = file.path;
  const bool determinism_exempt = ends_with(path, "util/rng.hpp");
  const bool assert_exempt = ends_with(path, "util/contracts.hpp");
  const bool raw_io_exempt = path.find("sim/recovery/") != std::string::npos;

  const auto& lines = file.stripped_lines;
  const bool is_header = ends_with(path, ".hpp") || ends_with(path, ".h");
  if (is_header &&
      std::none_of(lines.begin(), lines.end(), [](const std::string& l) {
        return contains(l, "#pragma once");
      })) {
    reporter.report(1, "pragma-once", "header is missing #pragma once");
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (!is_directive(l)) continue;
    const int line = static_cast<int>(i) + 1;
    if (!assert_exempt &&
        (contains(l, "<cassert>") || contains(l, "<assert.h>"))) {
      reporter.report(line, "naked-assert", kAssertMessage);
    }
    if (contains(l, "immintrin.h") || contains(l, "x86intrin.h") ||
        contains(l, "emmintrin.h") || contains(l, "xmmintrin.h")) {
      reporter.report(line, "raw-simd", kSimdMessage);
    }
  }

  static const std::set<std::string> kRandWords = {
      "rand", "srand", "rand_r", "random_device", "mt19937", "mt19937_64"};
  static const std::set<std::string> kTimeCalls = {"time", "clock",
                                                   "gettimeofday"};
  static const std::set<std::string> kClockWords = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kRawIoCalls = {
      "fwrite", "fsync", "fdatasync", "pwrite", "pwritev", "writev"};

  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident) continue;
    const bool call = i + 1 < tokens.size() && tokens[i + 1].text == "(";
    const int line = t.line;
    if (!determinism_exempt && kRandWords.count(t.text) != 0) {
      reporter.report(line, "determinism-rand",
                      "'" + t.text +
                          "' breaks seeded determinism; use the xoshiro "
                          "streams in util/rng.hpp");
    }
    if (!determinism_exempt && call && kTimeCalls.count(t.text) != 0) {
      reporter.report(line, "determinism-time",
                      "wall-clock reads make runs irreproducible; derive "
                      "times from the simulation clock");
    }
    if (!determinism_exempt && kClockWords.count(t.text) != 0) {
      reporter.report(line, "determinism-time",
                      "'std::chrono::" + t.text +
                          "' is a wall-clock read; results must not depend "
                          "on it");
    }
    if (t.text == "float") {
      reporter.report(line, "no-float",
                      "float is banned (doubles only): mixed precision makes "
                      "capacity comparisons platform-dependent");
    }
    if (!assert_exempt && call && t.text == "assert") {
      reporter.report(line, "naked-assert", kAssertMessage);
    }
    if (t.text == "cout" || (call && t.text == "printf")) {
      reporter.report(line, "stdout",
                      "library code must not write to stdout; return data "
                      "and let binaries print");
    }
    if (is_vector_intrinsic(t.text)) {
      reporter.report(line, "raw-simd", kSimdMessage);
    }
    if (raw_io_exempt || !call) continue;
    if (kRawIoCalls.count(t.text) != 0) {
      reporter.report(line, "raw-io", "'" + t.text + kRawIoMessage);
    }
    // The write(2) syscall only when global-qualified: `::write(` with no
    // name before the `::` (store->write() and ns::write() are fine).
    if (t.text == "write" && i >= 1 && tokens[i - 1].text == "::" &&
        (i < 2 || !tokens[i - 2].is_ident || tokens[i - 2].text == "return" ||
         tokens[i - 2].text == "else")) {
      reporter.report(line, "raw-io", std::string("'::write") + kRawIoMessage);
    }
  }

  // One finding per (line, rule, message), in line order.
  const auto key = [](const Finding& f) {
    return std::tie(f.line, f.rule, f.message);
  };
  std::sort(findings.begin(), findings.end(),
            [&](const Finding& a, const Finding& b) { return key(a) < key(b); });
  findings.erase(
      std::unique(findings.begin(), findings.end(),
                  [&](const Finding& a, const Finding& b) {
                    return key(a) == key(b);
                  }),
      findings.end());
  return findings;
}

}  // namespace mris::analyze
