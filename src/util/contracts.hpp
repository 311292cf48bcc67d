// Runtime contracts for the simulator's correctness-critical invariants.
//
// The default RelWithDebInfo build defines NDEBUG, which silently compiles
// out every `assert` — exactly in the configuration CI tests.  These macros
// are active in *every* build type.  The checks themselves are a single
// predictable branch; the failure path is out-of-line and cold, so a passing
// contract costs nearly nothing on hot paths.
//
//   MRIS_EXPECT(cond, msg)     precondition  (caller handed us bad state)
//   MRIS_ENSURE(cond, msg)     postcondition (we produced bad state)
//   MRIS_INVARIANT(cond, msg)  internal consistency (state became bad)
//
// Failure modes (set_contract_mode, thread-safe):
//   kThrow (default)  throw ContractViolation (a std::logic_error) with
//                     kind, condition text, message, and file:line;
//   kAbort            print the same diagnostic to stderr and abort() —
//                     the right mode under sanitizers/fuzzing, where a
//                     core dump beats an unwound stack;
//   kCount            log to stderr, bump a global counter, and continue —
//                     for measuring violation rates in soak runs.  Callers
//                     still guard against unusable state after a violated
//                     contract, so kCount degrades accuracy, not safety.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mris::util {

enum class ContractMode {
  kThrow,
  kAbort,
  kCount,
};

/// Thrown on contract failure in kThrow mode.  Derives from
/// std::logic_error so existing catch/EXPECT_THROW sites keep working.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Current global failure mode (thread-safe).
ContractMode contract_mode() noexcept;

/// Sets the global failure mode; returns the previous one.
ContractMode set_contract_mode(ContractMode mode) noexcept;

/// RAII guard that restores the previous mode (for tests).
class ScopedContractMode {
 public:
  explicit ScopedContractMode(ContractMode mode)
      : previous_(set_contract_mode(mode)) {}
  ~ScopedContractMode() { set_contract_mode(previous_); }
  ScopedContractMode(const ScopedContractMode&) = delete;
  ScopedContractMode& operator=(const ScopedContractMode&) = delete;

 private:
  ContractMode previous_;
};

/// Violations observed in kCount mode since the last reset.
std::uint64_t contract_violation_count() noexcept;
void reset_contract_violation_count() noexcept;

/// Cold failure handler: aborts, throws, or counts per the global mode.
/// Out of line so the fast path stays a bare branch.
[[noreturn]] void contract_failed_abort(const char* kind, const char* condition,
                                        const char* message, const char* file,
                                        int line);
void contract_failed(const char* kind, const char* condition,
                     const char* message, const char* file, int line);

}  // namespace mris::util

#define MRIS_CONTRACT_CHECK_(kind, cond, msg)                               \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      ::mris::util::contract_failed(kind, #cond, msg, __FILE__, __LINE__);  \
    }                                                                       \
  } while (false)

#define MRIS_EXPECT(cond, msg) MRIS_CONTRACT_CHECK_("precondition", cond, msg)
#define MRIS_ENSURE(cond, msg) MRIS_CONTRACT_CHECK_("postcondition", cond, msg)
#define MRIS_INVARIANT(cond, msg) MRIS_CONTRACT_CHECK_("invariant", cond, msg)

// --- thread-safety annotations ---------------------------------------------
//
// Clang-style capability annotations for state shared across ThreadPool
// workers.  They are contracts in the same spirit
// as MRIS_EXPECT: a field declared MRIS_GUARDED_BY(m) documents — and lets
// tooling enforce — that `m` must be held to touch it.
//
// Two independent checkers consume them:
//   * mris_analyze (tools/mris_analyze, always on in CI) checks lexically
//     that every function touching an annotated field names the guard;
//   * clang's -Wthread-safety checks them natively when building with
//     clang and -DMRIS_CLANG_THREAD_SAFETY (opt-in so the default gcc
//     -Werror build never sees unknown attributes).
//
//   MRIS_CAPABILITY(x)        type is a lockable capability (mutex-like)
//   MRIS_GUARDED_BY(x)        field requires holding x
//   MRIS_PT_GUARDED_BY(x)     pointed-to data requires holding x
//   MRIS_REQUIRES(x)          function must be called with x held
//   MRIS_ACQUIRE(x)           function acquires x
//   MRIS_RELEASE(x)           function releases x
//   MRIS_EXCLUDES(x)          function must be called with x NOT held
//   MRIS_NO_THREAD_SAFETY_ANALYSIS  opt a function out of clang's checker

#if defined(MRIS_CLANG_THREAD_SAFETY) && defined(__clang__)
#define MRIS_TS_ATTR_(x) __attribute__((x))
#else
#define MRIS_TS_ATTR_(x)  // no-op outside the opt-in clang build
#endif

#define MRIS_CAPABILITY(x) MRIS_TS_ATTR_(capability(x))
#define MRIS_GUARDED_BY(x) MRIS_TS_ATTR_(guarded_by(x))
#define MRIS_PT_GUARDED_BY(x) MRIS_TS_ATTR_(pt_guarded_by(x))
#define MRIS_REQUIRES(x) MRIS_TS_ATTR_(requires_capability(x))
#define MRIS_ACQUIRE(x) MRIS_TS_ATTR_(acquire_capability(x))
#define MRIS_RELEASE(x) MRIS_TS_ATTR_(release_capability(x))
#define MRIS_EXCLUDES(x) MRIS_TS_ATTR_(locks_excluded(x))
#define MRIS_NO_THREAD_SAFETY_ANALYSIS \
  MRIS_TS_ATTR_(no_thread_safety_analysis)
