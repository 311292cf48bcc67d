// A cluster of M identical machines, each a ResourceProfile.  Tracks all
// committed (irrevocable) job reservations and provides the placement
// queries shared by every scheduler: feasibility "now", earliest feasible
// start (backfilling), and remaining capacity snapshots.
#pragma once

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
  int num_resources_;
  std::vector<ResourceProfile> machines_;
};

}  // namespace mris
