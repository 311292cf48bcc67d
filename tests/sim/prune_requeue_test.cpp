// Regression: timeline pruning × fault-requeued jobs.  The engine prunes
// the committed horizon of every machine each kPruneEvery (32) completions;
// a job killed by an outage re-arrives afterwards and its retry may gate on
// state near the pruned boundary.  The checkpoint-chain replay inside
// validate_fault_run must keep holding — and recovery snapshots taken after
// a prune must restore the pruned timelines exactly (a snapshot taken right
// after a prune serializes a shorter timeline; the resumed run must not
// diverge because of it).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "sched/pq.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/faults/crash.hpp"

namespace mris {
namespace {

namespace fs = std::filesystem;

/// >= 2*kPruneEvery completions before, between and after outages: short
/// staggered jobs on two machines, so prunes fire repeatedly while outage
/// kills keep requeueing work.
Instance churn_instance(int jobs) {
  InstanceBuilder builder(2, 1);
  for (int i = 0; i < jobs; ++i) {
    builder.add(/*release=*/0.5 * i, /*processing=*/1.0 + 0.25 * (i % 3),
                /*weight=*/1.0 + (i % 2), /*demand=*/{0.45 + 0.05 * (i % 2)});
  }
  return builder.build();
}

FaultPlan churn_plan(const Instance& inst) {
  FaultPlan plan;
  // Outages placed deep into the run, past the first prune cycles, on both
  // machines; each kills whatever runs there and forces requeues.
  plan.outages.push_back({0, 20.0, 22.5});
  plan.outages.push_back({1, 35.0, 36.5});
  plan.outages.push_back({0, 50.0, 51.0});
  plan.retry_backoff = 0.75;
  plan.checkpoint.kind = CheckpointPolicy::Kind::kPeriodic;
  plan.checkpoint.interval = 0.5;
  plan.checkpoint.restore_overhead = 0.1;
  plan.validate(inst.num_machines(), inst.num_jobs());
  return plan;
}

TEST(PruneRequeueTest, CheckpointChainSurvivesPruning) {
  const Instance inst = churn_instance(120);  // ~4 prune cycles
  const FaultPlan plan = churn_plan(inst);
  RunOptions options;
  options.faults = &plan;
  PriorityQueueScheduler scheduler;
  const RunResult r = run_online(inst, scheduler, options);

  // Outages actually hit running jobs (otherwise this test guards nothing).
  std::size_t killed = 0;
  for (const Attempt& a : r.attempts) {
    if (a.outcome == Attempt::Outcome::kMachineFailure) ++killed;
  }
  ASSERT_GT(killed, 0u) << "no attempt was killed; outages miss all work";

  const ValidationResult v =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(PruneRequeueTest, ReplayIsDeterministicAcrossPrunes) {
  const Instance inst = churn_instance(120);
  const FaultPlan plan = churn_plan(inst);
  RunOptions options;
  options.faults = &plan;
  const auto run_once = [&] {
    PriorityQueueScheduler scheduler;
    return faults::run_recorded(inst, scheduler, options);
  };
  EXPECT_EQ("", faults::first_difference(run_once(), run_once()));
}

TEST(PruneRequeueTest, SnapshotAfterPruneRestoresExactly) {
  const Instance inst = churn_instance(120);
  const FaultPlan plan = churn_plan(inst);
  RunOptions options;
  options.faults = &plan;
  recovery::RecoveryOptions rec;
  // Snapshot on a cadence chosen to land shortly after prune points, and
  // crash late enough that requeued jobs and pruned timelines are both in
  // the restored state.
  rec.snapshot_every = 10;
  const std::string dir =
      (fs::temp_directory_path() / "mris_prune_requeue").string();
  const auto factory = [] {
    return std::make_unique<PriorityQueueScheduler>();
  };
  const auto reports = faults::run_crash_sweep(inst, factory, options, rec,
                                               5, 0x9121EULL, dir);
  for (const auto& report : reports) {
    EXPECT_EQ("", report.detail)
        << "crash after event " << report.trial.kill_after_events;
  }
}

}  // namespace
}  // namespace mris
