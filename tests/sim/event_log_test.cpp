// Tests of the engine record stream (RunOptions::on_record).
#include <gtest/gtest.h>

#include <vector>

#include "sched/mris.hpp"
#include "sched/pq.hpp"
#include "sim/engine.hpp"
#include "sim/faults/crash.hpp"

namespace mris {
namespace {

Instance two_jobs() {
  return InstanceBuilder(1, 1)
      .add(0.0, 2.0, 1.0, {1.0})
      .add(1.0, 1.0, 1.0, {1.0})
      .build();
}

TEST(EventLogTest, RecordsAllKindsInTimeOrder) {
  const Instance inst = two_jobs();
  MrisScheduler sched;  // uses wakeups, so all four kinds appear
  std::vector<EventRecord> log;
  RunOptions opts;
  opts.on_record = [&log](const EventRecord& e) { log.push_back(e); };
  run_online(inst, sched, opts);

  ASSERT_FALSE(log.empty());
  bool saw_arrival = false, saw_completion = false, saw_wakeup = false,
       saw_commit = false;
  Time prev = 0.0;
  for (const EventRecord& e : log) {
    EXPECT_GE(e.t, prev);
    prev = e.t;
    switch (e.kind) {
      case EventRecord::Kind::kArrival:
        saw_arrival = true;
        break;
      case EventRecord::Kind::kCompletion:
        saw_completion = true;
        break;
      case EventRecord::Kind::kWakeup:
        saw_wakeup = true;
        break;
      case EventRecord::Kind::kCommit:
        saw_commit = true;
        break;
      default:
        break;  // fault kinds cannot appear in a fault-free run
    }
  }
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_completion);
  EXPECT_TRUE(saw_wakeup);
  EXPECT_TRUE(saw_commit);
}

TEST(EventLogTest, CommitRecordsMatchSchedule) {
  const Instance inst = two_jobs();
  PriorityQueueScheduler sched;
  const faults::RecordedRun run = faults::run_recorded(inst, sched, {});

  std::size_t commits = 0;
  for (const EventRecord& e : run.records) {
    if (e.kind != EventRecord::Kind::kCommit) continue;
    ++commits;
    EXPECT_EQ(run.result.schedule.assignment(e.job).machine, e.machine);
    EXPECT_DOUBLE_EQ(run.result.schedule.start_time(e.job), e.start);
    EXPECT_GE(e.start, e.t);  // commits never start in the past
  }
  EXPECT_EQ(commits, inst.num_jobs());
}

TEST(EventLogTest, ArrivalAndCompletionCountsMatchJobs) {
  const Instance inst = two_jobs();
  PriorityQueueScheduler sched;
  std::size_t arrivals = 0, completions = 0;
  for (const EventRecord& e : faults::run_recorded(inst, sched, {}).records) {
    arrivals += e.kind == EventRecord::Kind::kArrival;
    completions += e.kind == EventRecord::Kind::kCompletion;
  }
  EXPECT_EQ(arrivals, inst.num_jobs());
  EXPECT_EQ(completions, inst.num_jobs());
}

TEST(EventLogTest, KindNames) {
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kArrival), "arrival");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kCompletion), "completion");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kWakeup), "wakeup");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kCommit), "commit");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kMachineDown),
               "machine-down");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kMachineUp), "machine-up");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kJobFailed), "job-failed");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kRequeue), "requeue");
  EXPECT_STREQ(event_kind_name(EventRecord::Kind::kRetryReady), "retry-ready");
}

}  // namespace
}  // namespace mris
