// Pass 0: per-file lexical rules (the full catalog with rationale is in
// docs/CONTRACTS_AND_LINT.md).
//
//   determinism-rand  rand/srand/rand_r/random_device/mt19937(_64)
//   determinism-time  time()/clock()/gettimeofday() and std::chrono clocks
//   pragma-once       a header without the include-once pragma
//   no-float          the float keyword (doubles only)
//   naked-assert      assert() and <cassert>/<assert.h> (compiled out under
//                     NDEBUG; use MRIS_EXPECT/ENSURE/INVARIANT)
//   stdout            std::cout and printf() in library code
//   raw-io            fwrite/fsync/fdatasync/pwrite(v)/writev and the
//                     global-qualified ::write (durable writes go through
//                     JournalWriter/SnapshotStore)
//   raw-simd          immintrin.h-family includes and _mm*/__m128/__m256/
//                     __m512 identifiers, in every file
//
// Files implementing a rule are exempt from it: util/rng.hpp (both
// determinism rules), util/contracts.hpp (naked-assert) and anything under
// sim/recovery/ (raw-io).
//
// The rules match identifier tokens (a call is an identifier followed by
// `(`), so prose and identifiers that merely contain a rule word
// (completion_time, snprintf) never fire.  The tokenizer skips
// preprocessor lines, so the include and pragma checks read the stripped
// lines instead.
#pragma once

#include <vector>

#include "tools/mris_analyze/frontend.hpp"

namespace mris::analyze {

std::vector<Finding> analyze_lexical(const SourceFile& file,
                                     const Options& options);

}  // namespace mris::analyze
