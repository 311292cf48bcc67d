// Fixture: one violation of every content rule, each on a known line.
// Never compiled — scanned by mris_analyze tests only.
#include <cassert>  // line 3: naked-assert (cassert include)
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>
#include <unordered_map>

int bad_entropy() {
  int a = std::rand();     // line 12: determinism-rand
  long b = time(nullptr);  // line 13: determinism-time
  std::random_device rd;   // line 14: determinism-rand
  return a + static_cast<int>(b) + static_cast<int>(rd());
}

double bad_iteration(const std::unordered_map<int, double>& totals) {
  double total = 0.0;
  for (const auto& [k, v] : totals) total += v;  // line 20: taint-unordered
  return total;
}

float bad_width(double x) {  // line 24: no-float
  assert(x > 0.0);           // line 25: naked-assert
  std::cout << x << "\n";    // line 26: stdout
  return static_cast<float>(x);
}
