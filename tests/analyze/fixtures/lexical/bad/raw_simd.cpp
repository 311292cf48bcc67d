// Open-coded x86 vector intrinsics, which no file may hold: both the include
// and every _mm*/__m256 token must trip the raw-simd rule.
#include <immintrin.h>

double sum4(const double* p) {
  __m256d v = _mm256_loadu_pd(p);
  __m256d h = _mm256_hadd_pd(v, v);
  double out[4];
  _mm256_storeu_pd(out, h);
  return out[0] + out[2];
}
