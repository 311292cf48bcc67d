// Shared transient-IO retry loop for the journal and snapshot writers.
//
// Durability IO is retried, never trusted blindly and never allowed to take
// the run down: an operation gets 1 + io_max_retries attempts, back to back
// with no backoff; only after the whole budget fails does the caller take
// a rung down the degradation ladder (docs/RECOVERY.md).
#pragma once

#include "sim/recovery/options.hpp"

namespace mris::recovery {

/// Runs `op` (a bool() callable; true = success) up to 1 + io_max_retries
/// times.  Attempts that failed before an eventual success are counted
/// into stats->io_retries.  Returns false only when every attempt failed —
/// a *persistent* failure.
template <typename Op>
bool with_io_retries(const RecoveryOptions& options, RecoveryStats* stats,
                     Op&& op) {
  const int attempts = 1 + (options.io_max_retries > 0 ? options.io_max_retries : 0);
  for (int i = 0; i < attempts; ++i) {
    if (op()) {
      if (stats != nullptr) {
        stats->io_retries += static_cast<std::uint64_t>(i);
      }
      return true;
    }
  }
  return false;
}

}  // namespace mris::recovery
