// Identity tests for the CADP dp_relax kernel (util/simd.hpp): the AVX2
// path must be bit-identical to the scalar reference, including the
// overlapping read/write blocks of small item sizes.  Both functions are
// called directly; the tests skip on CPUs without AVX2 and are not built
// where the AVX2 path is not compiled.
#include "util/simd.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace mris::util::simd {
namespace {

#if MRIS_AVX2_COMPILED

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SimdKernelTest, DpRelaxIdentityIncludingSmallStrides) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  util::Xoshiro256 rng(0x55u);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t cap = util::uniform_index(rng, 64);
    std::vector<double> a(cap + 1), b(cap + 1);
    for (std::size_t c = 0; c <= cap; ++c) {
      a[c] = b[c] = static_cast<double>(util::uniform_index(rng, 1000)) * 0.123;
    }
    // s < 4 exercises the overlapping read/write blocks, s == 0 the
    // self-relaxation the Ibarra-Kim floor scaling can produce.
    const std::size_t s = util::uniform_index(rng, 2) == 0
                              ? util::uniform_index(rng, 4)
                              : util::uniform_index(rng, cap + 1);
    const double p = static_cast<double>(1 + util::uniform_index(rng, 100)) * 0.017;
    scalar::dp_relax(a.data(), cap, s, p);
    avx2::dp_relax(b.data(), cap, s, p);
    for (std::size_t c = 0; c <= cap; ++c) {
      ASSERT_EQ(bits(a[c]), bits(b[c]))
          << "cap=" << cap << " s=" << s << " c=" << c << " iter=" << iter;
    }
  }
}

TEST(SimdKernelTest, DpRelaxMatchesDefinitionAtSZero) {
  // s == 0: dp[c] = max(dp[c], dp[c] + p), i.e. every entry gains p when
  // p > 0.  The vector path must read pre-update values exactly like the
  // scalar loop does.
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  std::vector<double> dp = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  avx2::dp_relax(dp.data(), 5, 0, 0.5);
  for (std::size_t c = 0; c <= 5; ++c) {
    EXPECT_DOUBLE_EQ(dp[c], static_cast<double>(c + 1) + 0.5);
  }
}

#endif  // MRIS_AVX2_COMPILED

}  // namespace
}  // namespace mris::util::simd
