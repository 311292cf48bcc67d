// The one SIMD kernel in the tree: the CADP knapsack relaxation.
//
// This header is the ONLY place allowed to touch x86 vector intrinsics
// (the mris_analyze `raw-simd` rule enforces that).  It holds two
// implementations of dp_relax:
//
//  * scalar::dp_relax — always compiled, the reference semantics;
//  * avx2::dp_relax   — 4-wide double lanes behind
//    `__attribute__((target("avx2")))`, compiled on x86 GCC/Clang.  No
//    -mavx2 build flag is needed or wanted: the attribute scopes AVX2
//    codegen to this one function, so a non-AVX2 CPU runs the scalar loop.
//
// dp_relax() picks between them once per process from
// __builtin_cpu_supports("avx2").  Both paths perform the same IEEE
// operations on the same values, so the choice never affects results, only
// wall-clock (tests/util/simd_test.cpp diffs the two directly).  A vector
// kernel belongs here only if it moves an end-to-end benchmark row by at
// least 5%; DESIGN.md §"dp_relax" has the measurements.
#pragma once

#include <cstddef>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MRIS_AVX2_COMPILED 1
#include <immintrin.h>
#else
#define MRIS_AVX2_COMPILED 0
#endif

namespace mris::util::simd {

namespace scalar {

/// 0/1-knapsack relaxation for one item of scaled size s, profit p:
/// dp[c] = max(dp[c], dp[c - s] + p) for c = cap down to s (inclusive).
/// Requires s <= cap; dp has cap + 1 entries.
inline void dp_relax(double* dp, std::size_t cap, std::size_t s, double p) {
  for (std::size_t c = cap + 1; c-- > s;) {
    const double cand = dp[c - s] + p;
    if (cand > dp[c]) dp[c] = cand;
  }
}

}  // namespace scalar

#if MRIS_AVX2_COMPILED

namespace avx2 {

/// scalar::dp_relax, four capacities per step.
__attribute__((target("avx2"))) inline void dp_relax(double* dp,
                                                     std::size_t cap,
                                                     std::size_t s,
                                                     double p) {
  // Descending blocks of 4 contiguous capacities.  Loading both operands
  // before the store preserves the scalar loop's dependence structure
  // even when s < 4 and the read block overlaps the write block: the
  // scalar loop at index c reads dp[c - s] < c, and all its prior writes
  // this item went to indices > c, so every read sees the pre-item value
  // — exactly what a whole-block load observes.
  constexpr std::size_t kLane = 4;
  const __m256d pv = _mm256_set1_pd(p);
  std::size_t c = cap;  // highest unprocessed index
  while (c >= s + kLane - 1 && c >= kLane - 1) {
    const std::size_t base = c - (kLane - 1);
    const __m256d cur = _mm256_loadu_pd(dp + base);
    const __m256d cand =
        _mm256_add_pd(_mm256_loadu_pd(dp + base - s), pv);
    const __m256d take = _mm256_cmp_pd(cand, cur, _CMP_GT_OQ);
    _mm256_storeu_pd(dp + base, _mm256_blendv_pd(cur, cand, take));
    if (base == 0) return;
    c = base - 1;
  }
  for (std::size_t i = c + 1; i-- > s;) {
    const double cand = dp[i - s] + p;
    if (cand > dp[i]) dp[i] = cand;
  }
}

}  // namespace avx2

#endif  // MRIS_AVX2_COMPILED

/// True when avx2::dp_relax is compiled in AND this CPU supports AVX2.
inline bool avx2_available() noexcept {
#if MRIS_AVX2_COMPILED
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

/// Name of the path dp_relax() runs on this CPU: "avx2" or "scalar".
inline const char* dp_relax_path() noexcept {
  return avx2_available() ? "avx2" : "scalar";
}

/// scalar::dp_relax, on the AVX2 path when this CPU has it.
inline void dp_relax(double* dp, std::size_t cap, std::size_t s, double p) {
#if MRIS_AVX2_COMPILED
  if (avx2_available()) {
    avx2::dp_relax(dp, cap, s, p);
    return;
  }
#endif
  scalar::dp_relax(dp, cap, s, p);
}

}  // namespace mris::util::simd
