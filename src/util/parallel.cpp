#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace mris::util {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = std::min<std::size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  // One slot per index, so the rethrown error does not depend on timing.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  {
    // jthreads join on scope exit, also when starting a later one throws.
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace mris::util
