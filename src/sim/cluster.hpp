// A cluster of M identical machines, each a ResourceProfile.  Tracks all
// committed (irrevocable) job reservations and provides the placement
// queries shared by every scheduler: feasibility "now", earliest feasible
// start (backfilling), and remaining capacity snapshots.
//
// The earliest_fit lower-bound memo (resource_profile.hpp) lives here: a
// registry of up to kMaxFitClasses demand rows, each keyed by the row's
// exact bytes, and one FitStaircase per (class, machine).  A placement
// hashes the job's row once and hands each machine its staircase, instead
// of each machine looking the row up again.  Rows first seen once the
// registry is full (continuous demands) run the plain scan.  release() and
// release_until() clear that machine's staircases, and restore_state()
// clears all of them; when no staircase holds a step any more, the
// registry empties too, so later rows can take classes.  The memo is a
// pure cache: never serialized, and no answer depends on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/job.hpp"
#include "core/schedule.hpp"
#include "sim/resource_profile.hpp"

namespace mris {

class Cluster {
 public:
  Cluster(int num_machines, int num_resources);

  int num_machines() const noexcept {
    return static_cast<int>(machines_.size());
  }
  int num_resources() const noexcept { return num_resources_; }

  const ResourceProfile& machine(MachineId m) const {
    return machines_.at(static_cast<std::size_t>(m));
  }

  /// True if `job` fits on machine `m` over [start, start + p_j).
  bool fits(const Job& job, MachineId m, Time start) const;

  /// Earliest start >= not_before at which `job` fits on machine `m`.
  Time earliest_fit_on(const Job& job, MachineId m, Time not_before) const;

  /// Earliest start over all machines; returns the chosen machine through
  /// `best_machine` (lowest index on ties).  `floors`, if given, holds one
  /// extra not_before per machine (the engine's revealed outages).  Each
  /// machine's search gives up once it cannot beat the best start so far.
  Time earliest_fit(const Job& job, Time not_before, MachineId& best_machine,
                    std::span<const Time> floors = {}) const;

  /// Reserves `job` on machine `m` at `start`.  Throws std::logic_error if
  /// infeasible (callers must query first; this guards scheduler bugs).
  void reserve(const Job& job, MachineId m, Time start);

  /// Removes a reservation of `demand` over [start, start + duration) on
  /// machine `m` — the fault model's cancel/requeue path.
  void release(MachineId m, Time start, Time duration,
               std::span<const double> demand);

  /// release with an exact interval end: cancelling a tail of an existing
  /// reservation must pass the end breakpoint it was reserved with, not a
  /// recomputed start + duration (see ResourceProfile header).
  void release_until(MachineId m, Time start, Time end,
                     std::span<const double> demand);

  /// Adds `demand` over [start, start + duration) WITHOUT a feasibility
  /// check.  Used for outage capacity blocks and straggler overruns, which
  /// may legitimately exceed capacity 1 (the fault validator applies the
  /// oversubscription policy instead).  Demand entries must be >= 0 (see
  /// ResourceProfile::reserve).
  void force_reserve(MachineId m, Time start, Time duration,
                     std::span<const double> demand);

  /// force_reserve with an exact interval end (straggler extensions are
  /// later released by the same endpoints).
  void force_reserve_until(MachineId m, Time start, Time end,
                           std::span<const double> demand);

  /// Blocks the full capacity of machine `m` over [from, to) — an outage
  /// window: nothing with non-zero demand fits inside it afterwards.
  void block(MachineId m, Time from, Time to);

  /// Compacts every machine's committed past before t (jobs never start in
  /// the past, so the engine advances this with its event clock).  Queries
  /// at or after t are unaffected; queries before t become invalid.
  void prune_before(Time t);

  /// Remaining capacity of machine `m` at time t, written into `out`
  /// (size == num_resources()).
  void available_into(MachineId m, Time t, std::span<double> out) const;

  /// available_into, returning the end of t's segment on machine `m`: the
  /// row stays exact over [t, end) while version(m) is unchanged
  /// (ResourceProfile::available_until).
  Time available_until(MachineId m, Time t, std::span<double> out) const {
    return machine(m).available_until(t, out);
  }

  /// Machine `m`'s timeline version (ResourceProfile::version): a cache key
  /// for rows read from it, valid for this cluster object only.
  std::uint64_t version(MachineId m) const { return machine(m).version(); }

  /// earliest_fit work summed over machines (see FitCounters).
  FitCounters fit_counters() const;

  /// Latest reservation end across machines (0 when empty) — the frontier
  /// used by the no-backfilling MRIS ablation.
  Time horizon() const;

  /// Serializes every machine's timeline into an engine snapshot
  /// (docs/RECOVERY.md).  The machine count and resource count are run
  /// constants covered by the snapshot fingerprint, not serialized here.
  void save_state(recovery::StateWriter& w) const;
  void restore_state(recovery::StateReader& r);

 private:
  /// The memo class of `demand`, created on first use; -1 once the
  /// registry holds kMaxFitClasses other rows.
  int fit_class(std::span<const double> demand) const;

  /// Machine m's staircase for class k (nullptr for k == -1).
  FitStaircase* staircase(int k, std::size_t m) const {
    return k < 0 ? nullptr
                 : &stairs_[static_cast<std::size_t>(k) * machines_.size() +
                            m];
  }

  /// Forgets machine m's recorded answers (its usage went down).
  void clear_staircases(std::size_t m);
  void clear_fit_memo();

  int num_resources_;
  std::vector<ResourceProfile> machines_;
  /// Memo registry: per class the hash of its row and the row itself
  /// (fit_rows_[k * R .. (k + 1) * R)); an open-addressed index over them
  /// by hash, each slot 0 (empty) or a class index + 1, allocated by the
  /// first lookup; and the staircases, class-major.
  mutable std::vector<std::uint64_t> fit_keys_;
  mutable std::vector<double> fit_rows_;
  mutable std::vector<std::uint8_t> fit_slots_;
  mutable std::vector<FitStaircase> stairs_;
};

}  // namespace mris
