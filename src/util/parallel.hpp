// Per-call parallel loop for the experiment harness, which runs each data
// point as independent whole-simulation replications (10 downsample offsets
// per point, Section 7.1).
//
// Each call starts its own threads and joins them before returning: no
// queue, no shared pool, so a nested call just starts threads of its own.
// Callers keep results deterministic by writing slot i from fn(i) only.
#pragma once

#include <cstddef>
#include <functional>

namespace mris::util {

/// Runs fn(i) for every i in [0, n) on min(n, hardware_concurrency())
/// threads (at least 1), which claim indices one at a time from a shared
/// counter.  Returns once every index has run; if any fn(i) threw, rethrows
/// the exception of the lowest such i.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace mris::util
