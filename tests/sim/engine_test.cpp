#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/metrics.hpp"

namespace mris {
namespace {

/// Starts every job immediately on arrival on the first machine that fits
/// now, else at the earliest feasible future time (reservation).
class GreedyReserver : public OnlineScheduler {
 public:
  std::string name() const override { return "greedy-reserver"; }
  void on_arrival(EngineContext& ctx, JobId job) override {
    MachineId m = kInvalidMachine;
    const Time s = ctx.earliest_fit(job, ctx.now(), m);
    ctx.commit(job, m, s);
  }
};

/// Never schedules anything — used to test deadlock detection.
class DoNothing : public OnlineScheduler {
 public:
  std::string name() const override { return "do-nothing"; }
};

/// Records the visibility of jobs at each arrival.
class Spy : public OnlineScheduler {
 public:
  std::string name() const override { return "spy"; }
  void on_arrival(EngineContext& ctx, JobId job) override {
    arrival_times.push_back(ctx.now());
    pending_sizes.push_back(ctx.pending().size());
    // Unreleased jobs must be invisible.
    for (std::size_t id = 0; id < ctx.num_jobs(); ++id) {
      try {
        const Job& j = ctx.job(static_cast<JobId>(id));
        EXPECT_LE(j.release, ctx.now());
      } catch (const std::logic_error&) {
        // Expected for unreleased jobs.
      }
    }
    MachineId m = kInvalidMachine;
    const Time s = ctx.earliest_fit(job, ctx.now(), m);
    ctx.commit(job, m, s);
  }
  std::vector<Time> arrival_times;
  std::vector<std::size_t> pending_sizes;
};

Instance simple_instance() {
  return InstanceBuilder(1, 1)
      .add(0.0, 2.0, 1.0, {1.0})
      .add(1.0, 2.0, 1.0, {1.0})
      .build();
}

TEST(EngineTest, RunsToCompletionAndValidates) {
  const Instance inst = simple_instance();
  GreedyReserver sched;
  const RunResult r = run_online(inst, sched);
  EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 0.0);
  // Job 1 must wait for job 0 (full-machine demand).
  EXPECT_DOUBLE_EQ(r.schedule.start_time(1), 2.0);
}

TEST(EngineTest, DeadlockDetected) {
  const Instance inst = simple_instance();
  DoNothing sched;
  EXPECT_THROW(run_online(inst, sched), std::runtime_error);
}

TEST(EngineTest, UnreleasedJobsInvisible) {
  const Instance inst = InstanceBuilder(2, 1)
                            .add(0.0, 1.0, 1.0, {0.5})
                            .add(5.0, 1.0, 1.0, {0.5})
                            .build();
  Spy spy;
  run_online(inst, spy);
  ASSERT_EQ(spy.arrival_times.size(), 2u);
  EXPECT_DOUBLE_EQ(spy.arrival_times[0], 0.0);
  EXPECT_DOUBLE_EQ(spy.arrival_times[1], 5.0);
}

TEST(EngineTest, CommitInPastRejected) {
  class PastCommitter : public OnlineScheduler {
   public:
    std::string name() const override { return "past"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      if (ctx.now() > 0.0) {
        EXPECT_THROW(ctx.commit(job, 0, 0.0), std::logic_error);
      }
      ctx.commit(job, 0, ctx.now());
    }
  };
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 1.0, 1.0, {0.1})
                            .add(3.0, 1.0, 1.0, {0.1})
                            .build();
  PastCommitter sched;
  const RunResult r = run_online(inst, sched);
  EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
}

TEST(EngineTest, DoubleCommitRejected) {
  class DoubleCommitter : public OnlineScheduler {
   public:
    std::string name() const override { return "double"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      ctx.commit(job, 0, ctx.now());
      EXPECT_THROW(ctx.commit(job, 0, ctx.now() + 10.0), std::logic_error);
    }
  };
  const Instance inst = InstanceBuilder(1, 1).add(0, 1, 1, {0.5}).build();
  DoubleCommitter sched;
  run_online(inst, sched);
}

TEST(EngineTest, FutureReservationHonored) {
  // Commit job 1 at a future time; the completion event must fire and the
  // schedule must record the reservation.
  class FutureCommitter : public OnlineScheduler {
   public:
    std::string name() const override { return "future"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      ctx.commit(job, 0, ctx.now() + 100.0);
      saw_arrival = true;
    }
    void on_completion(EngineContext& ctx, JobId, MachineId) override {
      completion_time = ctx.now();
    }
    bool saw_arrival = false;
    Time completion_time = -1.0;
  };
  const Instance inst = InstanceBuilder(1, 1).add(0, 2, 1, {0.5}).build();
  FutureCommitter sched;
  const RunResult r = run_online(inst, sched);
  EXPECT_TRUE(sched.saw_arrival);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 100.0);
  EXPECT_DOUBLE_EQ(sched.completion_time, 102.0);
}

TEST(EngineTest, WakeupsFireInOrderAndCoalesce) {
  class Waker : public OnlineScheduler {
   public:
    std::string name() const override { return "waker"; }
    void on_start(EngineContext& ctx) override {
      ctx.schedule_wakeup(3.0);
      ctx.schedule_wakeup(1.0);
      ctx.schedule_wakeup(3.0);  // duplicate coalesces
    }
    void on_arrival(EngineContext& ctx, JobId job) override {
      ctx.commit(job, 0, ctx.now());
    }
    void on_wakeup(EngineContext& ctx) override {
      fired.push_back(ctx.now());
    }
    std::vector<Time> fired;
  };
  const Instance inst = InstanceBuilder(1, 1).add(0, 10, 1, {0.5}).build();
  Waker sched;
  run_online(inst, sched);
  ASSERT_EQ(sched.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.fired[0], 1.0);
  EXPECT_DOUBLE_EQ(sched.fired[1], 3.0);
}

TEST(EngineTest, CompletionFreesCapacityBeforeSameTimeArrival) {
  // Job 0 occupies [0, 1); job 1 arrives exactly at t=1 and must fit
  // immediately because completions are processed before arrivals.
  class Immediate : public OnlineScheduler {
   public:
    std::string name() const override { return "immediate"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      ASSERT_TRUE(ctx.can_start(job, 0, ctx.now()));
      ctx.commit(job, 0, ctx.now());
    }
  };
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 1.0, 1.0, {1.0})
                            .add(1.0, 1.0, 1.0, {1.0})
                            .build();
  Immediate sched;
  const RunResult r = run_online(inst, sched);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(1), 1.0);
}

TEST(EngineTest, EventCountIsReported) {
  const Instance inst = simple_instance();
  GreedyReserver sched;
  const RunResult r = run_online(inst, sched);
  // 2 arrivals + 2 completions.
  EXPECT_EQ(r.num_events, 4u);
}

TEST(EngineTest, EmptyInstanceCompletesTrivially) {
  const Instance inst = InstanceBuilder(1, 1).build();
  GreedyReserver sched;
  const RunResult r = run_online(inst, sched);
  EXPECT_EQ(r.num_events, 0u);
  EXPECT_TRUE(r.schedule.complete());
}

TEST(EngineTest, EarliestFitMatchesPerMachineArgmin) {
  // ctx.earliest_fit must equal the argmin of ctx.earliest_fit_on over the
  // machines, lowest index on ties, with every revealed outage applied as a
  // no-start floor.  The argmin runs before the per-machine calls, so
  // those also check that its given-up searches leave later unbounded
  // answers unchanged.
  class ArgminChecker : public OnlineScheduler {
   public:
    std::string name() const override { return "argmin-checker"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      const Time from = ctx.earliest_start(job);
      for (const Time nb : {from, from + 0.5, from}) {
        MachineId m = kInvalidMachine;
        const Time s = ctx.earliest_fit(job, nb, m);
        Time best = std::numeric_limits<Time>::infinity();
        MachineId best_m = kInvalidMachine;
        int at_best = 0;
        for (MachineId k = 0; k < ctx.num_machines(); ++k) {
          const Time sk = ctx.earliest_fit_on(job, k, nb);
          if (sk < best) {
            best = sk;
            best_m = k;
            at_best = 0;
          }
          if (sk == best) ++at_best;
          if (!ctx.machine_up(k)) ++floored;
        }
        EXPECT_EQ(s, best) << "job " << job << " not_before " << nb;
        EXPECT_EQ(m, best_m) << "job " << job << " not_before " << nb;
        if (at_best > 1) ++ties;
      }
      MachineId m = kInvalidMachine;
      const Time s = ctx.earliest_fit(job, from, m);
      ctx.commit(job, m, s);
    }
    int ties = 0;
    int floored = 0;
  };
  // Every fifth job's demand is below the fit tolerance, so the outage's
  // capacity block alone would not keep it off a down machine; only the
  // revealed-outage floor does.
  InstanceBuilder b(3, 2);
  for (int j = 0; j < 40; ++j) {
    if (j % 5 == 0) {
      b.add(0.5 * (j / 2), 2.0, 1.0, {1e-12, 0.0});
    } else {
      b.add(0.5 * (j / 2), 1.0 + (j * 7 % 5), 1.0,
            {0.25 * (1 + j % 3), 0.5 * (j % 2)});
    }
  }
  const Instance inst = b.build();
  FaultPlan plan;
  plan.outages = {{0, 2.0, 6.0}, {1, 3.0, 9.0}, {0, 10.0, 12.0},
                  {2, 11.0, 13.0}};
  ArgminChecker sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_GT(sched.ties, 0);
  EXPECT_GT(sched.floored, 0);
  EXPECT_GT(r.fit.abandoned, 0u);
}

// --- Event ordering at equal timestamps under faults ---------------------
// The documented order is: completions, repairs, crashes, arrivals,
// retry-ready, wakeups.  Each test pins one adjacent pair.

TEST(EngineFaultOrderingTest, CompletionAtCrashInstantSurvives) {
  // Job occupies [0, 2); the machine crashes at exactly t=2.  Completions
  // are processed before crashes, so the job finishes instead of dying.
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 2.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 2.0, 3.0}};
  GreedyReserver sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].outcome, Attempt::Outcome::kCompleted);
  EXPECT_DOUBLE_EQ(r.attempts[0].end, 2.0);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 0.0);
}

TEST(EngineFaultOrderingTest, ArrivalAtCrashInstantSeesMachineDown) {
  class Observer : public OnlineScheduler {
   public:
    std::string name() const override { return "observer"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      saw_down = !ctx.machine_up(0);
      MachineId m = kInvalidMachine;
      const Time s = ctx.earliest_fit(job, ctx.now(), m);
      fit = s;
      ctx.commit(job, m, s);
    }
    bool saw_down = false;
    Time fit = -1.0;
  };
  const Instance inst =
      InstanceBuilder(1, 1).add(2.0, 1.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 2.0, 5.0}};
  Observer sched;
  RunOptions opts;
  opts.faults = &plan;
  const RunResult r = run_online(inst, sched, opts);
  EXPECT_TRUE(sched.saw_down);  // the crash was processed first
  EXPECT_DOUBLE_EQ(sched.fit, 5.0);
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 5.0);
}

TEST(EngineFaultOrderingTest, RepairProcessedBeforeSameTimeArrival) {
  class Observer : public OnlineScheduler {
   public:
    std::string name() const override { return "observer"; }
    void on_arrival(EngineContext& ctx, JobId job) override {
      saw_up = ctx.machine_up(0);
      ctx.commit(job, 0, ctx.now());
    }
    bool saw_up = false;
  };
  const Instance inst =
      InstanceBuilder(1, 1).add(3.0, 1.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 1.0, 3.0}};
  Observer sched;
  std::vector<EventRecord::Kind> at3;
  RunOptions opts;
  opts.faults = &plan;
  opts.on_record = [&at3](const EventRecord& e) {
    if (e.t == 3.0) at3.push_back(e.kind);
  };
  const RunResult r = run_online(inst, sched, opts);
  EXPECT_TRUE(sched.saw_up);  // repair precedes the arrival at t=3
  EXPECT_DOUBLE_EQ(r.schedule.start_time(0), 3.0);

  // The record stream confirms the order of the same-timestamp events.
  ASSERT_GE(at3.size(), 2u);
  EXPECT_EQ(at3[0], EventRecord::Kind::kMachineUp);
  EXPECT_EQ(at3[1], EventRecord::Kind::kArrival);
}

TEST(EngineFaultOrderingTest, WakeupAtCrashInstantObservesOutage) {
  class Waker : public OnlineScheduler {
   public:
    std::string name() const override { return "waker"; }
    void on_start(EngineContext& ctx) override { ctx.schedule_wakeup(2.0); }
    void on_arrival(EngineContext& ctx, JobId job) override {
      ctx.commit(job, 0, ctx.now());
    }
    void on_wakeup(EngineContext& ctx) override {
      saw_down = !ctx.machine_up(0);
    }
    bool saw_down = false;
  };
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 1.0, 1.0, {1.0}).build();
  FaultPlan plan;
  plan.outages = {{0, 2.0, 4.0}};
  Waker sched;
  RunOptions opts;
  opts.faults = &plan;
  run_online(inst, sched, opts);
  EXPECT_TRUE(sched.saw_down);  // the crash at t=2 precedes the wakeup
}

// --- Lazy pending removal -------------------------------------------------

/// Every wakeup commits every other pending job, walking the list back to
/// front — so commits land out of pending order and part of the backlog
/// survives each sweep.  At the start of every callback, i.e. after every
/// event, it checks pending() against `model`, which an on_record hook
/// maintains the eager way: arrival and requeue append, commit erases.
/// It reads pending() nowhere else, so the dead entries a sweep leaves
/// behind survive until the next event — which may requeue the same job.
class BackwardSweeper : public OnlineScheduler {
 public:
  explicit BackwardSweeper(const std::vector<JobId>& model) : model_(model) {}
  std::string name() const override { return "backward-sweeper"; }

  void on_start(EngineContext& ctx) override { arm(ctx); }
  void on_arrival(EngineContext& ctx, JobId) override {
    check(ctx);
    arm(ctx);
  }
  void on_completion(EngineContext& ctx, JobId, MachineId) override {
    check(ctx);
  }
  void on_machine_down(EngineContext& ctx, MachineId) override { check(ctx); }
  void on_machine_up(EngineContext& ctx, MachineId) override { check(ctx); }
  void on_wakeup(EngineContext& ctx) override {
    armed_ = false;
    check(ctx);
    const std::vector<JobId> batch = ctx.pending();
    std::size_t committed = 0;
    for (std::size_t k = batch.size(); k-- > 0;) {
      if ((batch.size() - 1 - k) % 2 != 0) continue;
      const JobId id = batch[k];
      MachineId m = kInvalidMachine;
      const Time s = ctx.earliest_fit(id, ctx.earliest_start(id), m);
      if (ctx.try_commit(id, m, s)) {
        ++committed;
        if (id != batch.front()) ++out_of_order_commits;
      }
    }
    if (committed < batch.size()) arm(ctx);
  }

  int out_of_order_commits = 0;
  int checks = 0;

 private:
  void arm(EngineContext& ctx) {
    if (armed_) return;
    ctx.schedule_wakeup(ctx.now() + 0.5);
    armed_ = true;
  }
  void check(EngineContext& ctx) {
    ++checks;
    ASSERT_EQ(ctx.pending(), model_) << "t=" << ctx.now();
  }

  const std::vector<JobId>& model_;
  bool armed_ = false;
};

TEST(EngineTest, LazyPendingMatchesEagerEraseUnderCommitsAndRequeues) {
  // A burst at t=0, then a trickle.  The first sweep (t=0.5) starts jobs
  // on machine 0, and the outage at t=1 kills or cancels them before any
  // other event reads pending(); injected failures requeue more later.
  InstanceBuilder b(2, 1);
  for (int i = 0; i < 24; ++i) {
    const Time release = i < 16 ? 0.0 : 3.0 + 0.2 * (i - 16);
    b.add(release, 1.0 + 0.25 * (i % 3), 1.0, {0.3 + 0.1 * (i % 4)});
  }
  const Instance inst = b.build();
  FaultPlan plan;
  plan.outages = {{0, 1.0, 2.0}, {1, 4.1, 4.6}};
  plan.failure_prob = 0.3;
  plan.seed = 5;
  std::vector<JobId> model;
  int requeues = 0;
  RunOptions opts;
  opts.faults = &plan;
  opts.on_record = [&](const EventRecord& rec) {
    switch (rec.kind) {
      case EventRecord::Kind::kArrival:
        model.push_back(rec.job);
        break;
      case EventRecord::Kind::kRequeue:
        ++requeues;
        model.push_back(rec.job);
        break;
      case EventRecord::Kind::kCommit:
        model.erase(std::find(model.begin(), model.end(), rec.job));
        break;
      default:
        break;
    }
  };
  BackwardSweeper sched(model);
  const RunResult r = run_online(inst, sched, opts);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_TRUE(model.empty());
  EXPECT_GT(requeues, 0);
  EXPECT_GT(sched.out_of_order_commits, 0);
  EXPECT_GT(sched.checks, 50);
}

// --- Streaming admission order ------------------------------------------

TEST(StreamEngineTest, AdmitRejectsDecreasingRelease) {
  const Instance jobs = InstanceBuilder(1, 1)
                            .add(10.0, 1.0, 1.0, {0.5})
                            .add(5.0, 1.0, 1.0, {0.5})
                            .build();
  Instance grow(std::vector<Job>{}, 1, 1);
  GreedyReserver sched;
  StreamEngine engine(grow, sched);
  engine.start();
  engine.admit(jobs.job(0));
  // Nothing is processed yet, so only the admission order catches this.
  EXPECT_THROW(engine.admit(jobs.job(1)), std::logic_error);
  EXPECT_EQ(grow.num_jobs(), 1u);  // the rejected job was not stored
  const RunResult r = engine.finish();
  EXPECT_TRUE(r.schedule.complete());
}

}  // namespace
}  // namespace mris
