// Fixture: a header obeying every lexical rule.  Comments and strings
// may mention rand(), time(), float and std::cout freely — the analyzer
// strips them before matching.
#pragma once

#include <cstdio>
#include <string>

namespace fixture {

/// Not a violation: "float" and srand() only appear in comments/strings.
inline std::string describe() { return "no float, no rand(), no time()"; }

/// Identifiers containing rule words are not violations.
inline double start_time(double completion_time) { return completion_time; }

inline double large = 1'000.5;  // digit separator is not a char literal

/// A genuine violation silenced by a same-line suppression.
inline void banner() {
  std::printf("fixture\n");  // mris-analyze: allow(stdout)
}

/// A genuine violation silenced by a previous-line suppression.
// mris-analyze: allow(no-float)
inline float narrow(double x) { return static_cast<float>(x); }

}  // namespace fixture
