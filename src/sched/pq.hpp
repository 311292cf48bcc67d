// PRIORITY-QUEUE (PQ) schedulers — Section 4.
//
// At every event t (arrival or completion), sort the pending jobs by a
// heuristic and scan from the head, starting each job immediately (at t, on
// the lowest-indexed machine where it fits) whenever feasible.  Lemma 4.1
// shows this class is Omega(N)-competitive standalone; MRIS reuses it as an
// offline makespan subroutine (Section 5.2), available here as
// offline_pq_schedule().
//
// The online scan costs O(queue * R) reads of cached keys and demand rows
// per event plus O(M * R) per commit: a job whose demand exceeds, on some
// resource, the largest free capacity of any up machine is skipped before
// the machine loop.  That prefilter is exact (DESIGN.md, "PQ scan").
#pragma once

#include <span>
#include <vector>

#include "sched/heuristics.hpp"
#include "sim/engine.hpp"

namespace mris {

class PriorityQueueScheduler : public OnlineScheduler {
 public:
  explicit PriorityQueueScheduler(Heuristic heuristic = Heuristic::kWsjf)
      : heuristic_(heuristic) {}

  std::string name() const override {
    return "PQ-" + heuristic_name(heuristic_);
  }

  void on_arrival(EngineContext& ctx, JobId job) override;
  void on_completion(EngineContext& ctx, JobId job, MachineId machine) override;
  void on_machine_up(EngineContext& ctx, MachineId machine) override;

  // Durability hooks (docs/RECOVERY.md): the sorted pending queue is the
  // only mutable state (keys, demand rows and membership derive from it);
  // CA-PQ adds nothing mutable and inherits these.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

 protected:
  /// Scans the heuristic-ordered queue and greedily starts every job that
  /// fits right now.  Shared with CA-PQ.
  void scan_and_schedule(EngineContext& ctx);

  /// Inserts an arrived job into the sorted queue (kept ordered by the
  /// heuristic key so scans don't re-sort the whole pending set per event).
  void enqueue(EngineContext& ctx, JobId job);

  Heuristic heuristic_;

 private:
  struct Entry {
    double key;  ///< heuristic key, computed once at enqueue
    JobId id;
  };

  /// After restore_state() the queue holds ids only: recomputes keys,
  /// demand rows and membership from `ctx` (no-op otherwise).
  void rebuild_if_stale(const EngineContext& ctx);

  /// Per-resource max of free capacity over up machines (-inf if none).
  void refresh_max_free(std::size_t resources);

  std::vector<Entry> queue_;    ///< pending jobs, sorted by (key, id)
  std::vector<double> demand_;  ///< R-strided demand rows, parallel to queue_
  std::vector<char> queued_;    ///< membership of queue_, by job id
  bool stale_ = false;          ///< keys/demand_/queued_ need a rebuild

  // Per-event scratch, reused across scans.
  std::vector<double> free_;      ///< M x R free capacity at now
  std::vector<char> up_;          ///< machine_up() per machine
  std::vector<double> max_free_;  ///< per-resource max of free_ over up_
};

/// True when `demand` fits within the `available` capacity vector
/// (tolerance matches the cluster's).  A cheap necessary condition used to
/// prefilter placement attempts before the full calendar query.
bool fits_available(std::span<const double> available,
                    std::span<const double> demand);

/// Offline PQ list scheduling with backfilling (MRIS's subroutine): jobs
/// are sorted by `heuristic` (their releases are treated as zero) and each
/// is committed at its earliest feasible start >= not_before, on the machine
/// achieving that earliest start.  Returns the makespan of the committed
/// jobs (max completion), or not_before when `jobs` is empty.
///
/// The `commit` callback receives (job, machine, start) and must perform the
/// irrevocable reservation (EngineContext::commit in online runs, or
/// Cluster::reserve + Schedule::assign in offline unit tests).
Time offline_pq_schedule(
    const std::vector<JobId>& jobs, Heuristic heuristic, Time not_before,
    const std::function<const Job&(JobId)>& job_of,
    const std::function<Time(JobId, Time, MachineId&)>& earliest_fit,
    const std::function<void(JobId, MachineId, Time)>& commit);

/// The literal event-scan formulation of Section 5.2: walk candidate event
/// times forward from not_before (batch completions, plus the earliest
/// feasible start of any remaining job when the batch stalls); at each
/// event, scan the heuristic-ordered list and start every job that fits at
/// exactly that instant.  Produces the schedule structure used by the
/// Lemma 6.3 makespan proof; offline_pq_schedule() (earliest-fit per job in
/// priority order) is the backfilling-friendly variant MRIS uses by
/// default.  Same callback contract and return value as
/// offline_pq_schedule().
Time offline_pq_schedule_eventscan(
    const std::vector<JobId>& jobs, Heuristic heuristic, Time not_before,
    const std::function<const Job&(JobId)>& job_of,
    const std::function<Time(JobId, Time, MachineId&)>& earliest_fit,
    const std::function<void(JobId, MachineId, Time)>& commit);

}  // namespace mris
