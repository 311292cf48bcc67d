// Metamorphic and invariant oracles over the online scheduling engine,
// plus the harness that shrinks and archives any failure.
//
// An oracle is a named predicate over (instance, scheduler): it runs the
// scheduler through the engine (possibly several times, on transformed
// copies of the instance) and checks a relation that must hold for *every*
// instance — no expected-output files, so oracles compose with the
// adversarial generators and the shrinker.
//
// Standard catalog:
//
//   validator-clean            schedule feasible, S_j >= r_j, TWCT above the
//                              trivial bound
//   validator-clean-faults     same through the fault/recovery path
//                              (validate_fault_run); fault spec and optional
//                              explicit outage windows come from params,
//                              checkpointing on or off via `checkpoint`
//   fault-replay-determinism   a seeded faulty run replays byte-identically
//   crash-recovery             crash-at-any-point ≡ uninterrupted: seeded
//                              crash trials (run_crash_sweep, including
//                              torn mid-journal-write kills) must resume to
//                              a byte-identical schedule/log/attempt stream;
//                              params: crash_pairs, crash_seed,
//                              snapshot_every, plus the fault knobs
//   engine-chaos               an adversarial API-legal scheduler (random
//                              machines, deferrals) still yields feasible
//                              schedules — the engine must not depend on
//                              scheduler sanity
//   weight-scaling             w_j -> 2 w_j: identical schedule, TWCT
//                              exactly doubled (power-of-two scaling
//                              commutes with IEEE arithmetic)
//   time-scaling               r_j, p_j (and gamma_0) -> x2: starts exactly
//                              double, machines identical
//   resource-permutation       reversing the resource axes (on a dyadic
//                              1/64 demand grid, where sums are exact in
//                              any order) leaves the schedule unchanged
//   machine-augmentation       AWCT with M+1 machines <= slack * AWCT(M)
//                              (slack, default 2: exact monotonicity is
//                              false for online schedulers — Graham's
//                              anomalies — but a blowup bounds the damage)
//   job-removal                TWCT after deleting the last job <= slack *
//                              TWCT (same caveat)
//   ratio-awct                 MRIS only: AWCT <= 8R(1+eps) *
//                              awct_fluid_lower_bound (Thm 6.8 audited
//                              against the *lower bound*, a strictly harder
//                              empirical test than against OPT)
//   ratio-makespan             MRIS only: makespan <= 8R(1+eps) *
//                              makespan_lower_bound (Lemma 6.9)
//   simd-identity              scalar-dispatch and AVX2-dispatch runs place
//                              every job bit-identically (DESIGN.md §"SIMD
//                              kernels"; trivial when AVX2 is unavailable)
//   streaming-equivalence      admitting the jobs one frame at a time
//                              through StreamEngine (release order, idle
//                              hook fired between admissions — the daemon's
//                              drive pattern, docs/DAEMON.md) reproduces
//                              run_online() byte-for-byte: event stream,
//                              placements, attempts; outages/injected
//                              failures/checkpointing via the usual fault
//                              params (straggler stretch cleared: per-job
//                              tables need the full job set)
//
// The fixture catalog adds deliberately broken oracles (used to prove the
// shrinker and replay pipeline can actually catch, minimize and reproduce
// failures):
//
//   fixture-triple-heavy       fails whenever >= 3 jobs have dominant
//                              demand >= 0.5 — minimizes to exactly 3 jobs
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/instance.hpp"
// Known debt: oracles are parameterized on exp's scheduler registry; see
// the matching note in oracles.cpp.
// mris-analyze: allow(layer-upward)
#include "exp/schedulers.hpp"
#include "testkit/corpus.hpp"
#include "testkit/shrinker.hpp"

namespace mris::testkit {

struct OracleResult {
  bool ok = true;
  std::string message;  ///< first violated relation, empty when ok

  explicit operator bool() const noexcept { return ok; }
};

using OracleFn = std::function<OracleResult(
    const Instance&, const exp::SchedulerSpec&, const Params&)>;

class OracleCatalog {
 public:
  /// Registers an oracle; throws std::invalid_argument on duplicate names.
  void add(const std::string& name, OracleFn fn);

  /// nullptr when unknown.
  const OracleFn* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// All real oracles listed above.
  static OracleCatalog standard();

  /// standard() plus the deliberately-broken fixture oracles.
  static OracleCatalog with_fixtures();

 private:
  std::map<std::string, OracleFn> oracles_;
};

/// Runs `oracle` on (instance, scheduler); any exception is converted into
/// a failing result.  Throws std::invalid_argument only for an unknown
/// oracle or unparsable scheduler name.
OracleResult run_oracle(const OracleCatalog& catalog,
                        const std::string& oracle, const Instance& inst,
                        const std::string& scheduler,
                        const Params& params = {});

/// The audited competitive bound 8R(1+eps): eps is the spec's CADP error
/// parameter, or 1 for the GREEDY backend (whose capacity overshoot is
/// 2 zeta = (1+1) zeta).
double competitive_bound(const exp::SchedulerSpec& spec, int num_resources);

/// Directory minimized counterexamples are written to:
/// $MRIS_TESTKIT_ARTIFACTS, default "testkit_artifacts" under the CWD.
std::string artifacts_dir();

/// Replays a corpus entry: runs its oracle and checks the recorded
/// expectation (pass entries must pass, fail entries must still fail).
OracleResult replay_corpus_entry(const OracleCatalog& catalog,
                                 const CorpusEntry& entry);

struct CheckReport {
  bool ok = true;
  std::string message;      ///< failure + minimized-instance summary
  std::string corpus_path;  ///< minimized counterexample file, "" when ok
};

/// The harness step every testkit suite funnels failures through: runs the
/// oracle; on failure, shrinks the instance against it and writes the
/// minimized counterexample to artifacts_dir() as a ready-to-commit corpus
/// entry (expect: fail), returning its path in the report.
CheckReport check_and_minimize(const OracleCatalog& catalog,
                               const std::string& oracle,
                               const Instance& inst,
                               const std::string& scheduler,
                               const Params& params = {},
                               const ShrinkOptions& shrink = {});

}  // namespace mris::testkit
