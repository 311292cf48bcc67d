// Experiment runner: evaluates scheduler specs on instances, validates every
// produced schedule, and replicates data points across downsample offsets
// in parallel (10 replications per point, mean ± 95% CI — Section 7.1).
//
// Fault-aware evaluation: a FaultPlan in the RunOptions runs a scheduler
// through the engine's fault/recovery path; metrics are then computed from
// the *actual* execution attempts (stretched runtimes, retries) and the run
// is checked with the outage-aware validator.  A run that throws (scheduler
// bug, validation failure) is recorded as failed instead of aborting the
// whole replication batch.
#pragma once

#include <functional>
#include <string>

#include "core/metrics.hpp"
#include "exp/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/recovery/options.hpp"
#include "util/stats.hpp"

namespace mris::exp {

/// Metrics of one scheduler run on one instance.
struct EvalResult {
  double awct = 0.0;        ///< average weighted completion time
  double twct = 0.0;        ///< total weighted completion time
  double awft = 0.0;        ///< average weighted flow time
  double makespan = 0.0;
  double mean_delay = 0.0;  ///< mean queuing delay S_j - r_j
  std::size_t num_jobs = 0;

  // Fault/recovery metrics (trivial in fault-free runs).
  std::size_t retries = 0;    ///< total failed attempts across all jobs
  double wasted_work = 0.0;   ///< volume burnt by killed/failed attempts
  double checkpoint_overhead = 0.0;  ///< volume spent restoring checkpoints
  double salvaged_work = 0.0;        ///< volume recovered from checkpoints
  double goodput = 1.0;  ///< useful / (useful + wasted + overhead) work

  /// Durability counters (all zero unless the run carried RecoveryOptions):
  /// snapshots/journal volume, degradation rungs, resume path.
  recovery::RecoveryStats recovery;

  /// The run's schedule (for CDFs / Gantt / schedule files); empty when
  /// the run failed.
  Schedule schedule;

  /// True when the run threw (scheduler exception or validation failure);
  /// all metric fields are then meaningless and `error` holds the cause.
  bool failed = false;
  std::string error;
};

/// Runs `spec` online on `inst` and returns metrics and schedule.  A
/// scheduler exception or validation failure is captured in the result
/// (failed/error), never thrown, so one broken run cannot take down a
/// replication batch.  `options` goes to the engine as is: a non-empty
/// `faults` plan runs the engine's fault path and is checked with
/// validate_fault_run(); `recovery` attaches the durability subsystem
/// (snapshots + write-ahead journal, docs/RECOVERY.md), resume included;
/// `on_record` sees the run's record stream.
EvalResult evaluate(const Instance& inst, const SchedulerSpec& spec,
                    RunOptions options = {});

/// Aggregated metrics of one (scheduler, parameter) data point.  Means are
/// taken over successful runs only; failed_runs counts the rest.
struct PointResult {
  util::MeanCi awct;
  util::MeanCi makespan;
  util::MeanCi mean_delay;
  util::MeanCi wasted_work;
  util::MeanCi checkpoint_overhead;
  util::MeanCi goodput;
  std::size_t failed_runs = 0;
};

/// Builds the rep-th fault plan for a replication batch (empty function ==
/// fault-free).
using FaultFactory = std::function<FaultPlan(std::size_t)>;

/// Evaluates every scheduler of `lineup` on `reps` replications in
/// parallel and returns one PointResult per scheduler.  `make_instance(rep)`
/// builds the rep-th instance (typically a distinct downsample offset, as
/// in the paper); instances and fault plans are built once per rep and
/// shared across schedulers.
std::vector<PointResult> replicate_lineup(
    std::size_t reps,
    const std::function<Instance(std::size_t)>& make_instance,
    const std::vector<SchedulerSpec>& lineup,
    const FaultFactory& make_faults = {});

}  // namespace mris::exp
