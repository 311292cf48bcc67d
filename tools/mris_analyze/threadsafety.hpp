// Pass 3: thread-safety discipline.
//
// Work submitted to util::ThreadPool runs concurrently, so shared mutable
// state must be declared *as* shared.  src/util/contracts.hpp provides Clang-style
// annotation macros — MRIS_GUARDED_BY(m), MRIS_PT_GUARDED_BY(m),
// MRIS_REQUIRES(m) — that expand to the native attributes only under
// `-DMRIS_CLANG_THREAD_SAFETY` with clang, and to nothing otherwise.
// This pass enforces the discipline without needing clang at all:
//
//   ts-global       a mutable static / thread_local / namespace-scope
//                   variable in the scanned tree with no MRIS_GUARDED_BY
//                   annotation.  const/constexpr declarations, mutexes,
//                   and once_flags are exempt (they are either immutable
//                   or are themselves synchronization primitives);
//   ts-guard        a function body touches a field annotated
//                   MRIS_GUARDED_BY(m)/MRIS_PT_GUARDED_BY(m) but neither
//                   names `m` anywhere in its span (lock, lock_guard,
//                   MRIS_REQUIRES(m) in the signature — any mention
//                   counts) nor is a constructor/destructor of the
//                   owning class (single-threaded by construction);
//   ts-ref-capture  a lambda passed to ThreadPool::submit whose capture
//                   list captures by reference — the task may outlive
//                   the enclosing frame.  Legitimate uses (futures joined
//                   before the frame exits) carry an explicit
//                   `// mris-analyze: allow(ts-ref-capture)`.
//
// ts-guard uses the whole-project guarded-field registry: annotations
// live in headers while the touching code lives in .cpp files, so the
// pass runs over all files at once.
#pragma once

#include <vector>

#include "tools/mris_analyze/frontend.hpp"

namespace mris::analyze {

std::vector<Finding> analyze_threadsafety(const std::vector<SourceFile>& files,
                                          const Options& options);

}  // namespace mris::analyze
