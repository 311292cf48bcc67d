// PRIORITY-QUEUE (PQ) schedulers — Section 4.
//
// At every event t (arrival or completion), sort the pending jobs by a
// heuristic and scan from the head, starting each job immediately (at t, on
// the lowest-indexed machine where it fits) whenever feasible.  Lemma 4.1
// shows this class is Omega(N)-competitive standalone; MRIS reuses it as an
// offline makespan subroutine (Section 5.2), available here as
// offline_pq_schedule().
//
// Queued jobs are bucketed by exact demand row; each class keeps its jobs
// in (key, id) order.  A scan visits jobs in the global (key, id) order but
// drops a class as soon as its row fits on no up machine, because free
// capacity only falls during a scan.  Machines' free rows are kept across
// scans and re-read only when a machine's timeline version changed or now
// left the segment the row was read from; the per-resource max over up
// machines follows the rows that change.  Per event a scan costs O(C) for
// the C queued classes, plus O(log C) per job it actually tries and O(R)
// per row re-read (O(M * R) only when a row that held a max falls or the
// up set changes).  Rows repeat on the paper's traces, so C stays small
// however long the backlog; when every row is unique, the scan is one
// pass over the queue (DESIGN.md, "PQ scan").
#pragma once

#include <cstdint>
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

  void on_start(EngineContext& ctx) override;
  void on_arrival(EngineContext& ctx, JobId job) override;
  void on_completion(EngineContext& ctx, JobId job, MachineId machine) override;
  void on_machine_up(EngineContext& ctx, MachineId machine) override;

  // Durability hooks (docs/RECOVERY.md): the queued ids in (key, id) order
  // are the only mutable state (keys, classes and membership derive from
  // them); CA-PQ adds nothing mutable and inherits these.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

  /// Class slots allocated so far, live or recycled (for tests: the table
  /// is bounded by the live backlog's distinct rows, not by every row seen).
  std::size_t class_slots() const { return classes_.size(); }

 protected:
  /// Scans the heuristic-ordered queue and greedily starts every job that
  /// fits right now.  Shared with CA-PQ.
  void scan_and_schedule(EngineContext& ctx);

  /// Inserts an arrived job into its demand class (kept ordered by the
  /// heuristic key so scans don't re-sort the whole pending set per event).
  void enqueue(EngineContext& ctx, JobId job);

  Heuristic heuristic_;

 private:
  struct Entry {
    double key;  ///< heuristic key, computed once at enqueue
    JobId id;
  };
  /// A class's jobs sorted by descending (key, id): the head is back().
  using ClassJobs = std::vector<Entry>;
  /// A class and one of its jobs, ordered by that job's (key, id), with
  /// the class row's largest demand so that most dead classes are told
  /// without reading the row.
  struct Head {
    double key;
    JobId id;
    std::int32_t cls;
    std::int32_t peak_at;  ///< resource of the row's largest demand
    double peak;           ///< that demand
  };
  /// A class's place in a scan's merge: the next of its jobs to visit.
  struct Cursor {
    Head head;
    std::int32_t pos;  ///< index of head's job in the class; -1: back()
    bool kept;         ///< a job of this class stays queued this scan
  };

  /// `e` as the head of class `cls`.
  Head head_of(const Entry& e, std::int32_t cls) const;

  /// After restore_state() only the queued ids are known: rebuilds classes
  /// and order_ from `ctx` (no-op otherwise).
  void rebuild_if_stale(const EngineContext& ctx);

  std::span<const double> row_of(std::int32_t cls) const;
  /// The first entry of by_row_ whose row is not below `row`.
  std::vector<std::int32_t>::iterator find_row(std::span<const double> row);
  /// The class slot holding `demand`, created (or recycled) if absent.
  std::int32_t class_of(std::span<const double> demand);
  /// Returns an emptied class slot to the free list.
  void release_class(std::int32_t cls);

  /// This scan's free row of machine m, checked on first use; nullptr when
  /// m is down.
  double* free_row(const EngineContext& ctx, const Cluster& cluster,
                   std::size_t m);

  /// Re-reads machine m's row at now_ unless its key still covers it.
  void read_row(const Cluster& cluster, std::size_t m);

  /// Keeps a fresh max_free_ exact after machine m's row moved from was_
  /// to its new value, or marks it stale when a max may have fallen.
  void note_row_change(std::size_t m);

  /// Per-resource max of free capacity over up machines (-inf if none).
  void refresh_max_free(std::size_t resources);

  /// Empties the queue and drops every cached row (a new run or a
  /// restore: versions are keys into one cluster object only).
  void reset();

  // Queue state.  Every queued job sits in exactly one class; order_ holds
  // the non-empty classes sorted by their head's (key, id).
  std::vector<ClassJobs> classes_;      ///< by class slot
  std::vector<double> rows_;            ///< R-strided demand row per slot
  std::vector<std::int32_t> free_slots_;
  std::vector<std::int32_t> by_row_;    ///< live slots, sorted by row
  std::vector<Head> order_;
  std::vector<char> queued_;            ///< membership, by job id
  std::vector<JobId> restored_;         ///< queued ids awaiting a rebuild
  bool stale_ = false;
  std::size_t resources_ = 0;           ///< R, the row width

  // Per-scan scratch, reused across scans.
  std::vector<Cursor> revisit_;         ///< min-heap by head (key, id)
  enum MachineRow : char { kUnread, kDown, kUp };
  std::vector<MachineRow> up_;          ///< per machine, read on first use
  Time now_ = 0.0;

  // Machine rows, kept across scans.  free_'s row m is machine m's free
  // capacity at every t in [from, until) while its timeline version is
  // `version`; a commit edits the row in place and voids its key.
  struct RowKey {
    std::uint64_t version = 0;
    Time from = 0.0;
    Time until = 0.0;  ///< [0, 0): no row cached
  };
  std::vector<RowKey> row_keys_;        ///< per machine
  std::vector<double> free_;            ///< M x R free capacity
  std::vector<double> was_;             ///< a row before its last change
  std::vector<double> max_free_;        ///< per-resource max of free_ over up
  std::vector<char> max_up_;            ///< the up set max_free_ covers
  bool max_stale_ = true;               ///< max_free_ needs a rebuild
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
