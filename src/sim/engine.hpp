// Discrete-event engine enforcing the online model (Section 3): a
// scheduler learns a job's parameters only at its release time r_j, must
// assign an irrevocable (machine, start) with start >= now, and may request
// wakeups (MRIS's interval boundaries gamma_k).
//
// Event ordering at equal timestamps: completions first (capacity frees at
// C_j since jobs occupy [S_j, C_j)), then machine repairs, then machine
// crashes, then arrivals (so an arrival observes the post-fault cluster),
// then retry-ready notifications, then wakeups (so a wakeup at gamma_k
// observes every job with r_j <= gamma_k, as Algorithm 1 line 3 requires).
//
// Fault semantics (RunOptions::faults, see sim/faults.hpp): a machine
// outage kills every job running on it (the in-flight attempt is lost; the
// job is re-released to the scheduler), cancels every reservation starting
// inside the window, and blocks the window's capacity.  Stragglers extend a
// job's occupancy at its would-be completion; injected failures turn a
// completion into a requeue.  With no fault plan the engine byte-identically
// reproduces the fault-free behavior.
//
// Checkpoint/partial-restart (FaultPlan::checkpoint, sim/checkpoint): when
// the plan carries a checkpoint policy, a lost job salvages its last
// checkpoint and re-enters the queue with residual processing time
// restore_overhead + (p_j - salvaged) instead of full p_j.  The engine
// exposes resumed jobs through EngineContext::job() with
// Job::processing set to that residual, so every scheduler — MRIS's
// interval classification p_j <= gamma_k and knapsack volume v_j included —
// schedules by residual work without scheduler-side changes.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/recovery/options.hpp"

namespace mris {

class EngineContext;

namespace recovery {
class StateReader;
class StateWriter;
}  // namespace recovery

/// Interface implemented by every online scheduler in this library.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  /// Display name used in experiment output (e.g. "MRIS(WSJF,CADP)").
  virtual std::string name() const = 0;

  /// Called once at t=0 before any arrival; may schedule wakeups.
  virtual void on_start(EngineContext& /*ctx*/) {}

  /// A job was released; its parameters are now visible via ctx.job().
  /// Under faults this also fires when a killed/failed job is re-released
  /// (distinguish via ctx.retry_count(job) > 0).
  virtual void on_arrival(EngineContext& /*ctx*/, JobId /*job*/) {}

  /// A committed job finished on `machine` (capacity already freed).
  virtual void on_completion(EngineContext& /*ctx*/, JobId /*job*/,
                             MachineId /*machine*/) {}

  /// A wakeup previously requested via ctx.schedule_wakeup() fired.
  virtual void on_wakeup(EngineContext& /*ctx*/) {}

  /// Machine `machine` crashed; its in-flight jobs were already killed and
  /// re-released (each re-fires on_arrival after this callback).
  virtual void on_machine_down(EngineContext& /*ctx*/, MachineId /*machine*/) {
  }

  /// Machine `machine` repaired; its capacity is available again.
  virtual void on_machine_up(EngineContext& /*ctx*/, MachineId /*machine*/) {}

  /// A requeued job's retry backoff expired and it is still uncommitted.
  /// Defaults to re-exposing the job like an arrival, which makes every
  /// arrival-driven scheduler retry-aware for free.
  virtual void on_retry_ready(EngineContext& ctx, JobId job) {
    on_arrival(ctx, job);
  }

  /// Never called in-tree; kept only for perfbench's TracedScheduler.
  virtual void on_idle(EngineContext& /*ctx*/) {}

  // Durability hooks (docs/RECOVERY.md).  Whole-engine snapshots embed the
  // scheduler's internal state so a resumed run continues with the exact
  // decision state of the lost process.  A scheduler whose behavior is a
  // pure function of EngineContext keeps the no-op defaults; one with
  // internal mutable state (queues, shares, interval counters) must
  // serialize ALL of it — a partial snapshot resumes into divergence,
  // which the journal cross-check turns into a loud abort.
  virtual void save_state(recovery::StateWriter& /*w*/) const {}
  virtual void restore_state(recovery::StateReader& /*r*/) {}
};

/// The scheduler-facing API of the running simulation.  Only released jobs
/// are observable; commits must respect start >= now and resource capacity.
class EngineContext {
 public:
  virtual ~EngineContext() = default;

  virtual Time now() const = 0;
  virtual int num_machines() const = 0;
  virtual int num_resources() const = 0;
  virtual std::size_t num_jobs() const = 0;

  /// Parameters of a *released* job; throws std::logic_error if the job has
  /// not yet arrived (prevents accidental clairvoyance).  Under a fault
  /// plan with a checkpoint policy this is the job's *effective* view: a
  /// resumed job's `processing` is its residual work plus restore overhead,
  /// so demand-, volume- and processing-based scheduling decisions are
  /// automatically residual-aware.
  virtual const Job& job(JobId id) const = 0;

  /// Released-but-uncommitted jobs, in release order (re-released jobs are
  /// appended at their requeue time).
  virtual const std::vector<JobId>& pending() const = 0;

  /// Read access to machine reservation calendars.
  virtual const Cluster& cluster() const = 0;

  /// True if `id` fits on machine m over [start, start + p).
  virtual bool can_start(JobId id, MachineId m, Time start) const = 0;

  /// Earliest feasible start of `id` on machine m at or after `not_before`.
  virtual Time earliest_fit_on(JobId id, MachineId m, Time not_before) const = 0;

  /// Earliest feasible start over all machines (ties -> lowest machine id).
  virtual Time earliest_fit(JobId id, Time not_before,
                            MachineId& best_machine) const = 0;

  /// Irrevocably commits `id` to machine m starting at `start`
  /// (start >= now enforced; future starts are reservations a la MRIS).
  virtual void commit(JobId id, MachineId m, Time start) = 0;

  /// Non-throwing commit: returns false (leaving all state untouched)
  /// where commit() would throw — the job is unreleased/committed/gated,
  /// the start is in the past, or the reservation no longer fits (e.g. the
  /// scheduler lost a race with a machine outage).  True means the
  /// reservation was made exactly as by commit().
  virtual bool try_commit(JobId id, MachineId m, Time start) = 0;

  /// Requests on_wakeup() at time t (>= now).  Duplicate times coalesce.
  virtual void schedule_wakeup(Time t) = 0;

  // Fault/recovery observability -------------------------------------
  // (trivial constants in fault-free runs)

  /// Failed attempts of `id` so far (outage kills + injected failures).
  virtual int retry_count(JobId id) const = 0;

  /// Earliest time `id` may start: max(now, its retry-backoff gate).
  /// Commits below this are rejected; schedulers should place requeued
  /// jobs no earlier than this.
  virtual Time earliest_start(JobId id) const = 0;

  /// False while machine m is inside a revealed outage window.
  virtual bool machine_up(MachineId m) const = 0;

  /// Checkpointed progress of `id` in work units, in [0, p_j): the prefix
  /// of p_j that survived lost attempts under the plan's checkpoint policy.
  /// 0 for fresh jobs, fault-free runs, and restart-from-scratch plans.
  virtual Time checkpointed_progress(JobId /*id*/) const { return 0.0; }
};

/// One entry of the engine's record stream, handed to RunOptions::on_record
/// (and, under RunOptions::recovery, appended to the event journal).
struct EventRecord {
  enum class Kind {
    kArrival,
    kCompletion,
    kWakeup,
    kCommit,
    kMachineDown,
    kMachineUp,
    kJobFailed,   ///< injected failure at the job's actual completion
    kRequeue,     ///< a killed/failed job was re-released to the scheduler
    kRetryReady,  ///< a requeued job's backoff gate expired
  };
  Kind kind;
  Time t = 0.0;                        ///< when the event was processed
  JobId job = kInvalidJob;             ///< job-scoped kinds
  MachineId machine = kInvalidMachine; ///< machine-scoped kinds
  Time start = 0.0;                    ///< kCommit: the committed start
};

/// Short name of an event kind ("arrival", "completion", ...).
const char* event_kind_name(EventRecord::Kind kind);

/// Result of a full online run.
struct RunResult {
  Schedule schedule;
  std::size_t num_events = 0;  ///< processed engine events (diagnostics)
  /// Execution attempts, in completion/kill order.  Populated only when a
  /// fault plan was supplied (fault-free runs: exactly one successful
  /// attempt per job, so the schedule says it all).
  std::vector<Attempt> attempts;

  /// Durability counters (all-zero without RunOptions::recovery).
  recovery::RecoveryStats recovery;

  /// earliest_fit work of this run, summed over machines (a resumed run
  /// counts only the work done after its restore).
  FitCounters fit;
};

struct RunOptions {
  /// Optional fault plan (not owned; must outlive the run).  nullptr or an
  /// empty plan selects the zero-overhead fault-free path.
  const FaultPlan* faults = nullptr;

  /// Optional durability configuration (not owned; must outlive the run).
  /// nullptr disables snapshots, journaling, and resume entirely — the
  /// zero-overhead default path.  See sim/recovery/options.hpp.
  const recovery::RecoveryOptions* recovery = nullptr;

  /// Per-record observer, invoked for every EventRecord the engine emits
  /// (commits included) in emission order — the only way records leave the
  /// engine: the daemon's sinks, `mris simulate --log-events` and the run
  /// comparison (faults::RecordedRun) hang off it.  The engine buffers
  /// nothing, so a long-running run stays bounded-memory.  On a snapshot
  /// resume the hook first fires for the event journal's records before the
  /// cut (a resume without a journal has none to give), then for the
  /// re-executed tail, so an observer sees the uninterrupted run's stream.
  std::function<void(const EventRecord&)> on_record;
};

/// Simulates `scheduler` on `inst` from t=0 until every job is committed
/// and completed.  Throws std::runtime_error if the scheduler deadlocks
/// (no future events while jobs remain unassigned).
RunResult run_online(const Instance& inst, OnlineScheduler& scheduler,
                     const RunOptions& options = {});

/// Streaming admission driver over the single-loop engine (docs/DAEMON.md):
/// the job set is NOT known upfront — jobs are appended one frame at a time
/// by a long-running daemon, and the engine advances between admissions.
///
/// Equivalence contract: feeding the jobs of an instance in release order
/// (ties in id order) through
///
///   start(); for each job j: run_until_release(r_j); admit(j);  finish();
///
/// produces byte-identical results to run_online() on the batch instance.
/// Why: the engines pop events in (t, kind, seq) order and seq only breaks
/// ties *within* one (t, kind) class; run_until_release(r) stops strictly
/// before key (r, arrival), so an arrival admitted then occupies the same
/// relative position it would have had if seeded at t=0 — and every
/// downstream event order follows inductively.  The streaming-equivalence
/// testkit oracle checks this end to end, faults and checkpointing included.
///
/// Restriction vs run_online(): a fault plan must not carry per-job
/// stretch factors (a per-job table needs the full job set upfront;
/// outages, injected failures and checkpoint policies are all
/// supported).  With RunOptions::recovery the snapshot payload is
/// prefixed with the admitted-job count so a resuming daemon can rebuild
/// the instance prefix before restoring (serve/daemon.hpp drives this).
class StreamEngine {
 public:
  /// `inst` is the growing job store (usually empty at a fresh start; the
  /// already-admitted prefix when resuming): admit() appends to it.  It and
  /// `scheduler`/`options` must outlive the engine.
  StreamEngine(Instance& inst, OnlineScheduler& scheduler,
               const RunOptions& options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Initializes recovery (possibly restoring a snapshot of a previous
  /// daemon at its cut, and re-firing on_record for the journal's records
  /// before it) and fires on_start on a fresh run.  Call once, before
  /// anything else.
  void start();

  /// True after start() when the run resumed from a whole-engine snapshot —
  /// the caller must then skip re-admitting the restored prefix.
  bool resumed_from_snapshot() const;

  /// Appends the job to the instance (the id is assigned, `job.id` is
  /// ignored) and schedules its arrival.  Admissions must be fed in
  /// non-decreasing release order and the release must not lie in the
  /// already-processed past (throws std::logic_error otherwise).
  JobId admit(const Job& job);

  /// Processes every event strictly before key (release, arrival): the
  /// point in the event order where an arrival at `release` would slot in.
  void run_until_release(Time release);

  /// Drains all remaining events and finishes the run (final feasibility
  /// checks included).  The engine is spent afterwards.
  RunResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mris
