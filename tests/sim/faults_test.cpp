// Tests of the fault-injection subsystem: plan construction/validation,
// engine recovery semantics (outage kills, cancelled reservations,
// stragglers, injected failures, retry backoff gates), the zero-overhead
// fault-free guarantee, the outage-aware run validator, and the runner's
// per-run failure containment.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/runner.hpp"
#include "sched/mris.hpp"
#include "sched/pq.hpp"
#include "sim/engine.hpp"
#include "sim/faults/crash.hpp"

namespace mris {
namespace {

/// Greedy scheduler used throughout: earliest feasible placement on
/// arrival.  Records the retry count visible at each (re-)arrival and the
/// time of each completion callback.
class GreedyFault : public OnlineScheduler {
 public:
  std::string name() const override { return "greedy-fault"; }
  void on_arrival(EngineContext& ctx, JobId job) override {
    retry_counts.push_back(ctx.retry_count(job));
    MachineId m = kInvalidMachine;
    const Time s = ctx.earliest_fit(job, ctx.earliest_start(job), m);
    ctx.commit(job, m, s);
  }
  void on_completion(EngineContext& ctx, JobId, MachineId) override {
    completion_times.push_back(ctx.now());
  }
  std::vector<int> retry_counts;
  std::vector<Time> completion_times;
};

// --- FaultPlan validation ------------------------------------------------

TEST(FaultPlanTest, DefaultPlanIsEmptyAndValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate(4, 10));
}

TEST(FaultPlanTest, AllOnesStretchIsStillEmpty) {
  FaultPlan plan;
  plan.stretch.assign(10, 1.0);
  EXPECT_TRUE(plan.empty());
  plan.stretch[3] = 1.5;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, OutagesAndFailuresMakePlanNonEmpty) {
  FaultPlan plan;
  plan.outages.push_back({0, 1.0, 2.0});
  EXPECT_FALSE(plan.empty());
  plan.outages.clear();
  plan.failure_prob = 0.1;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  const auto reject = [](FaultPlan plan) {
    EXPECT_THROW(plan.validate(2, 3), std::invalid_argument);
  };
  {
    FaultPlan p;
    p.failure_prob = 1.0;  // must be < 1 so runs terminate
    reject(p);
  }
  {
    FaultPlan p;
    p.failure_prob = -0.1;
    reject(p);
  }
  {
    FaultPlan p;
    p.max_retries = -1;
    reject(p);
  }
  {
    FaultPlan p;
    p.retry_backoff = -2.0;
    reject(p);
  }
  {
    FaultPlan p;
    p.stretch = {1.0, 1.0};  // 2 entries for 3 jobs
    reject(p);
  }
  {
    FaultPlan p;
    p.stretch = {1.0, 0.5, 1.0};  // stretch < 1
    reject(p);
  }
  {
    FaultPlan p;
    p.outages = {{2, 1.0, 2.0}};  // machine out of range
    reject(p);
  }
  {
    FaultPlan p;
    p.outages = {{0, 2.0, 1.0}};  // up <= down
    reject(p);
  }
  {
    FaultPlan p;
    p.outages = {{0, 3.0, 4.0}, {0, 1.0, 2.0}};  // unsorted
    reject(p);
  }
  {
    FaultPlan p;
    p.outages = {{0, 1.0, 3.0}, {0, 2.0, 4.0}};  // overlapping
    reject(p);
  }
  {
    FaultPlan p;  // touching windows must be merged by the caller
    p.outages = {{0, 1.0, 2.0}, {0, 2.0, 3.0}};
    reject(p);
  }
}

TEST(FaultPlanTest, InterleavedMachinesAreFine) {
  FaultPlan plan;
  plan.outages = {{0, 1.0, 5.0}, {1, 2.0, 3.0}, {0, 6.0, 7.0}};
  EXPECT_NO_THROW(plan.validate(2, 1));
}

// --- Plan generation -----------------------------------------------------

Instance plan_instance() {
  InstanceBuilder b(3, 2);
  for (int i = 0; i < 12; ++i) {
    b.add(1.5 * i, 1.0 + (i % 4), 1.0, {0.3, 0.4});
  }
  return b.build();
}

bool same_outages(const std::vector<OutageWindow>& a,
                  const std::vector<OutageWindow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].machine != b[i].machine || a[i].down != b[i].down ||
        a[i].up != b[i].up) {
      return false;
    }
  }
  return true;
}

TEST(MakeFaultPlanTest, SameSeedYieldsIdenticalPlan) {
  const Instance inst = plan_instance();
  FaultSpec spec;
  spec.mtbf = 10.0;
  spec.mttr = 2.0;
  spec.straggler_prob = 0.5;
  spec.failure_prob = 0.1;
  const FaultPlan a = make_fault_plan(spec, inst, 7);
  const FaultPlan b = make_fault_plan(spec, inst, 7);
  EXPECT_TRUE(same_outages(a.outages, b.outages));
  EXPECT_EQ(a.stretch, b.stretch);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_FALSE(a.outages.empty());  // mtbf 10 over a ~38 horizon
  EXPECT_FALSE(a.stretch.empty());
}

TEST(MakeFaultPlanTest, DifferentSeedYieldsDifferentPlan) {
  const Instance inst = plan_instance();
  FaultSpec spec;
  spec.mtbf = 10.0;
  spec.straggler_prob = 0.5;
  const FaultPlan a = make_fault_plan(spec, inst, 7);
  const FaultPlan b = make_fault_plan(spec, inst, 8);
  EXPECT_TRUE(!same_outages(a.outages, b.outages) || a.stretch != b.stretch);
}

TEST(MakeFaultPlanTest, DisabledKnobsYieldEmptyPlan) {
  const Instance inst = plan_instance();
  const FaultPlan plan = make_fault_plan(FaultSpec{}, inst, 3);
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate(inst.num_machines(), inst.num_jobs()));
}

TEST(FailureDrawTest, DeterministicInUnitInterval) {
  const double d = failure_draw(42, 3, 1);
  EXPECT_EQ(d, failure_draw(42, 3, 1));
  for (JobId j = 0; j < 20; ++j) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const double v = failure_draw(42, j, attempt);
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
  // Distinct (job, attempt) keys decorrelate.
  EXPECT_NE(failure_draw(42, 0, 0), failure_draw(42, 0, 1));
  EXPECT_NE(failure_draw(42, 0, 0), failure_draw(42, 1, 0));
  EXPECT_NE(failure_draw(42, 0, 0), failure_draw(43, 0, 0));
}

// --- Zero-overhead fault-free guarantee ----------------------------------

Instance regression_instance() {
  InstanceBuilder b(3, 2);
  for (int i = 0; i < 14; ++i) {
    b.add((i % 5) * 1.3, 1.0 + (i % 4), 1.0 + 0.5 * (i % 3),
          {0.2 + 0.15 * (i % 5), 0.1 + 0.2 * (i % 4)});
  }
  return b.build();
}

template <typename Scheduler>
void expect_empty_plan_byte_identical() {
  const Instance inst = regression_instance();

  Scheduler s1;
  const faults::RecordedRun plain = faults::run_recorded(inst, s1, {});

  Scheduler s2;
  RunOptions null_opts;
  null_opts.faults = nullptr;
  EXPECT_EQ("", faults::first_difference(
                    plain, faults::run_recorded(inst, s2, null_opts)));

  Scheduler s3;
  FaultPlan empty_plan;
  empty_plan.stretch.assign(inst.num_jobs(), 1.0);  // still empty()
  RunOptions empty_opts;
  empty_opts.faults = &empty_plan;
  EXPECT_EQ("", faults::first_difference(
                    plain, faults::run_recorded(inst, s3, empty_opts)));
}

TEST(FaultFreeRegressionTest, EmptyPlanIsByteIdenticalForPq) {
  expect_empty_plan_byte_identical<PriorityQueueScheduler>();
}

TEST(FaultFreeRegressionTest, EmptyPlanIsByteIdenticalForMris) {
  expect_empty_plan_byte_identical<MrisScheduler>();
}

// --- Engine recovery semantics -------------------------------------------

TEST(FaultEngineTest, OutageKillsRunningJobAndRequeues) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 4.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 2.0, 3.0}};

  GreedyFault sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);

  // One kill at the outage start, one clean run after the repair.
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].outcome, Attempt::Outcome::kMachineFailure);
  EXPECT_EQ(r.attempts[0].machine, 0);
  EXPECT_DOUBLE_EQ(r.attempts[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.attempts[0].end, 2.0);  // kill instant == down
  EXPECT_EQ(r.attempts[1].outcome, Attempt::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(r.attempts[1].start, 3.0);  // restart at the repair
  EXPECT_DOUBLE_EQ(r.attempts[1].end, 7.0);    // full p, work was lost

  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 3.0);
  ASSERT_EQ(sched.retry_counts.size(), 2u);  // arrival + re-release
  EXPECT_EQ(sched.retry_counts[0], 0);
  EXPECT_EQ(sched.retry_counts[1], 1);

  const ValidationResult valid =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(valid.ok) << valid.message;
}

TEST(FaultEngineTest, ReservationInsideOutageCancelledWithoutRetryPenalty) {
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 4.0, 1.0, {1.0})
                            .add(0.0, 1.0, 1.0, {1.0})
                            .build();
  FaultPlan plan;
  plan.outages = {{0, 1.0, 6.0}};

  GreedyFault sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);

  // Job 0 runs [0,4) and is killed at t=1; job 1's reservation [4,5)
  // starts inside the window and is cancelled silently: no attempt is
  // recorded for it and its retry count stays 0.
  std::size_t kills = 0;
  for (const Attempt& a : r.attempts) {
    kills += a.outcome == Attempt::Outcome::kMachineFailure;
  }
  EXPECT_EQ(kills, 1u);
  ASSERT_EQ(r.attempts.size(), 3u);  // 1 kill + 2 completions

  // Killed job restarts at the repair; the cancelled one queues behind it.
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 6.0);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(1), 10.0);
  // Arrival order: j0, j1, then re-releases (killed before cancelled).
  ASSERT_EQ(sched.retry_counts.size(), 4u);
  EXPECT_EQ(sched.retry_counts[2], 1);  // job 0, genuine loss
  EXPECT_EQ(sched.retry_counts[3], 0);  // job 1, silent cancel

  const ValidationResult valid =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(valid.ok) << valid.message;
}

TEST(FaultEngineTest, StragglerExtendsOccupancyUntilActualCompletion) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 2.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.stretch = {2.0};

  GreedyFault sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);

  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].outcome, Attempt::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(r.attempts[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.attempts[0].end, 4.0);  // 2.0 * p
  ASSERT_EQ(sched.completion_times.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.completion_times[0], 4.0);
  // The schedule still shows the declared placement.
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 0.0);

  const ValidationResult valid =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(valid.ok) << valid.message;
}

TEST(FaultEngineTest, InjectedFailuresRespectRetryBudget) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 1.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.failure_prob = 1.0 - 1e-9;  // every draw fails until the budget caps
  plan.max_retries = 2;
  plan.seed = 42;

  GreedyFault sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);

  ASSERT_EQ(r.attempts.size(), 3u);  // 2 injected failures + forced success
  EXPECT_EQ(r.attempts[0].outcome, Attempt::Outcome::kJobFailure);
  EXPECT_EQ(r.attempts[1].outcome, Attempt::Outcome::kJobFailure);
  EXPECT_EQ(r.attempts[2].outcome, Attempt::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(r.attempts[2].start, 2.0);  // back-to-back restarts
  EXPECT_DOUBLE_EQ(r.attempts[2].end, 3.0);
  EXPECT_EQ(sched.retry_counts, (std::vector<int>{0, 1, 2}));

  const ValidationResult valid =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(valid.ok) << valid.message;
}

TEST(FaultEngineTest, RetryBackoffGatesRecommitUntilRetryReady) {
  // Job killed at t=1 with backoff 5: the gate is t=6, commits below it
  // are rejected, and on_retry_ready fires exactly at the gate.
  class GateProbe : public OnlineScheduler {
   public:
    std::string name() const override { return "gate-probe"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      if (ctx.retry_count(job) == 0) ctx.commit(job, 0, ctx.now());
    }
    void on_machine_down(EngineContext& ctx, MachineId machine) override {
      EXPECT_EQ(machine, 0);
      EXPECT_FALSE(ctx.machine_up(0));
      EXPECT_TRUE(ctx.machine_up(1));
      ASSERT_EQ(ctx.pending().size(), 1u);
      const JobId job = ctx.pending()[0];
      EXPECT_DOUBLE_EQ(ctx.earliest_start(job), 6.0);
      // Machine 1 is idle and up, but the gate rejects an early restart.
      EXPECT_FALSE(ctx.try_commit(job, 1, ctx.now()));
      EXPECT_THROW(ctx.commit(job, 1, ctx.now()), std::logic_error);
    }
    void on_machine_up(EngineContext& ctx, MachineId machine) override {
      up_times.push_back(ctx.now());
      EXPECT_TRUE(ctx.machine_up(machine));
    }
    void on_retry_ready(EngineContext& ctx, JobId job) override {
      retry_ready_time = ctx.now();
      ctx.commit(job, 1, ctx.now());
    }
    std::vector<Time> up_times;
    Time retry_ready_time = -1.0;
  };

  const Instance inst =
      InstanceBuilder(2, 1).add(0.0, 4.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 1.0, 2.0}};
  plan.retry_backoff = 5.0;

  GateProbe sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);

  EXPECT_DOUBLE_EQ(sched.retry_ready_time, 6.0);  // 1 + 5 * 2^0
  EXPECT_EQ(sched.up_times, (std::vector<Time>{2.0}));
  EXPECT_EQ(r.schedule.assignment(0).machine, 1);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 6.0);

  const ValidationResult valid =
      validate_fault_run(inst, plan, r.attempts, r.schedule);
  EXPECT_TRUE(valid.ok) << valid.message;
}

// --- Metrics and validation ----------------------------------------------

TEST(FaultMetricsTest, SummarizeAttemptsCountsWork) {
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 2.0, 1.0, {1.0})
                            .add(0.0, 1.0, 1.0, {0.5})
                            .build();
  const std::vector<Attempt> attempts = {
      {0, 0, 0.0, 1.0, Attempt::Outcome::kMachineFailure},
      {0, 0, 2.0, 4.0, Attempt::Outcome::kCompleted},
      {1, 0, 0.0, 1.0, Attempt::Outcome::kJobFailure},
      {1, 0, 1.0, 2.0, Attempt::Outcome::kCompleted},
  };
  const FaultMetrics m = summarize_attempts(inst, attempts);
  EXPECT_EQ(m.total_attempts, 4u);
  EXPECT_EQ(m.killed_by_outage, 1u);
  EXPECT_EQ(m.injected_failures, 1u);
  EXPECT_EQ(m.retries, (std::vector<int>{1, 1}));
  EXPECT_DOUBLE_EQ(m.useful_work, 2.0 * 1.0 + 1.0 * 0.5);
  EXPECT_DOUBLE_EQ(m.wasted_work, 1.0 * 1.0 + 1.0 * 0.5);
  EXPECT_DOUBLE_EQ(m.goodput, 2.5 / 4.0);
}

TEST(FaultValidatorTest, AcceptsConsistentRunAndRejectsTampering) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 2.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 5.0, 6.0}};
  Schedule sched(1);
  sched.assign(0, 0, 0.0);
  const std::vector<Attempt> good = {
      {0, 0, 0.0, 2.0, Attempt::Outcome::kCompleted}};
  EXPECT_TRUE(validate_fault_run(inst, plan, good, sched).ok);

  {
    // Completed attempt with the wrong duration.
    std::vector<Attempt> bad = good;
    bad[0].end = 3.0;
    EXPECT_FALSE(validate_fault_run(inst, plan, bad, sched).ok);
  }
  {
    // No completed attempt at all.
    const std::vector<Attempt> bad = {};
    EXPECT_FALSE(validate_fault_run(inst, plan, bad, sched).ok);
  }
  {
    // A kill that does not coincide with any outage of its machine.
    const std::vector<Attempt> bad = {
        {0, 0, 0.0, 4.0, Attempt::Outcome::kMachineFailure},
        {0, 0, 4.0, 6.0, Attempt::Outcome::kCompleted}};
    EXPECT_FALSE(validate_fault_run(inst, plan, bad, sched).ok);
  }
  {
    // Attempt occupancy crossing an outage window.
    Schedule overlap(1);
    overlap.assign(0, 0, 4.5);
    const std::vector<Attempt> bad = {
        {0, 0, 4.5, 6.5, Attempt::Outcome::kCompleted}};
    EXPECT_FALSE(validate_fault_run(inst, plan, bad, overlap).ok);
  }
  {
    // More injected failures than the retry budget allows.
    FaultPlan strict = plan;
    strict.failure_prob = 0.5;
    strict.max_retries = 0;
    Schedule late(1);
    late.assign(0, 0, 2.0);
    const std::vector<Attempt> bad = {
        {0, 0, 0.0, 2.0, Attempt::Outcome::kJobFailure},
        {0, 0, 2.0, 4.0, Attempt::Outcome::kCompleted}};
    EXPECT_FALSE(validate_fault_run(inst, strict, bad, late).ok);
  }
}

// --- Runner failure containment ------------------------------------------

Instance runner_instance() {
  InstanceBuilder b(2, 1);
  for (int i = 0; i < 8; ++i) {
    b.add(0.5 * i, 1.0 + (i % 3), 1.0, {0.5});
  }
  return b.build();
}

TEST(FaultRunnerTest, EvaluateCapturesBadPlanInsteadOfThrowing) {
  const Instance inst = runner_instance();
  exp::SchedulerSpec spec;
  spec.kind = exp::SchedulerKind::kPq;
  FaultPlan bad;
  bad.failure_prob = 1.5;  // rejected by FaultPlan::validate
  RunOptions options;
  options.faults = &bad;
  const exp::EvalResult r = exp::evaluate(inst, spec, options);
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("failure_prob"), std::string::npos) << r.error;
}

TEST(FaultRunnerTest, ReplicateCountsFailedRunsAndKeepsGoingAlive) {
  exp::SchedulerSpec spec;
  spec.kind = exp::SchedulerKind::kPq;
  const auto make_instance = [](std::size_t) { return runner_instance(); };

  const exp::PointResult broken = exp::replicate_lineup(
      4, make_instance, {spec}, [](std::size_t) {
        FaultPlan bad;
        bad.failure_prob = 1.5;
        return bad;
      })[0];
  EXPECT_EQ(broken.failed_runs, 4u);
  EXPECT_EQ(broken.awct.n, 0u);

  const exp::PointResult healthy = exp::replicate_lineup(
      4, make_instance, {spec}, [](std::size_t rep) {
        FaultPlan plan;
        plan.failure_prob = 0.2;
        plan.seed = rep;
        return plan;
      })[0];
  EXPECT_EQ(healthy.failed_runs, 0u);
  EXPECT_EQ(healthy.awct.n, 4u);
  EXPECT_GT(healthy.awct.mean, 0.0);
}

}  // namespace
}  // namespace mris
