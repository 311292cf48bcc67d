// Crash-recovery verification (docs/RECOVERY.md): for seeded (trace, crash
// point) pairs — including kills mid-journal-write that leave torn frames —
// a run killed and resumed must produce a schedule, record stream, and
// attempt stream byte-identical to the uninterrupted run.  This is the
// acceptance bar of the durability subsystem, exercised across schedulers
// with and without faults/checkpoints, plus resume edge cases (fingerprint
// refusal, journal-only and snapshot-only replay, divergence detection) and
// the run comparison itself (first_difference names every field).
#include "sim/faults/crash.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "sched/drf.hpp"
#include "sched/mris.hpp"
#include "sched/pq.hpp"
#include "sim/faults.hpp"
#include "sim/recovery/journal.hpp"
#include "sim/recovery/snapshot.hpp"
#include "testkit/generators.hpp"

namespace mris {
namespace {

namespace fs = std::filesystem;
using faults::CrashReplayReport;
using faults::CrashTrial;
using recovery::RecoveryOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("mris_crash_" + name)).string();
  fs::create_directories(dir);
  return dir;
}

Instance mixed_instance(std::uint64_t seed, int jobs = 40) {
  testkit::GenConfig config;
  config.num_jobs = static_cast<std::size_t>(jobs);
  config.machines = 3;
  config.resources = 2;
  return testkit::make_family_instance(testkit::Family::kMixed, config, seed);
}

void expect_all_identical(const std::vector<CrashReplayReport>& reports) {
  int torn = 0;
  for (const CrashReplayReport& r : reports) {
    EXPECT_EQ("", r.detail)
        << "crash after event " << r.trial.kill_after_events
        << (r.trial.torn_write_bytes > 0 ? " (torn write)" : "");
    if (r.trial.torn_write_bytes > 0) ++torn;
  }
  EXPECT_GT(torn, 0) << "sweep exercised no mid-journal-write kills";
}

// --- the acceptance sweep: >= 20 seeded (trace, crash point) pairs --------

TEST(CrashRecoveryTest, SweepPqScheduler) {
  const Instance inst = mixed_instance(11);
  RunOptions options;
  RecoveryOptions rec;
  rec.snapshot_every = 8;  // PQ never wakes up; snapshot on cadence
  const auto reports = faults::run_crash_sweep(
      inst, [] { return std::make_unique<PriorityQueueScheduler>(); },
      options, rec, 7, 0xA11CEull, temp_dir("pq"));
  ASSERT_EQ(reports.size(), 7u);
  expect_all_identical(reports);
}

TEST(CrashRecoveryTest, SweepMrisSchedulerSnapshotsAtWakeups) {
  const Instance inst = mixed_instance(22);
  RunOptions options;
  RecoveryOptions rec;  // default: snapshot at gamma_k wakeups only
  const auto reports = faults::run_crash_sweep(
      inst, [] { return std::make_unique<MrisScheduler>(); }, options, rec, 7,
      0xB0B0ull, temp_dir("mris"));
  ASSERT_EQ(reports.size(), 7u);
  expect_all_identical(reports);
}

TEST(CrashRecoveryTest, SweepMrisUnderFaultsAndCheckpoints) {
  const Instance inst = mixed_instance(33);
  FaultSpec spec;
  spec.mtbf = 30.0;
  spec.mttr = 4.0;
  spec.straggler_prob = 0.2;
  spec.failure_prob = 0.1;
  spec.retry_backoff = 0.5;
  spec.checkpoint.kind = CheckpointPolicy::Kind::kPeriodic;
  spec.checkpoint.interval = 1.0;
  spec.checkpoint.restore_overhead = 0.25;
  const FaultPlan plan = make_fault_plan(spec, inst, 77);
  RunOptions options;
  options.faults = &plan;
  RecoveryOptions rec;
  rec.snapshot_every = 16;
  rec.journal_sync_every = 8;
  const auto reports = faults::run_crash_sweep(
      inst, [] { return std::make_unique<MrisScheduler>(); }, options, rec, 8,
      0xFA117ull, temp_dir("mris_faults"));
  ASSERT_EQ(reports.size(), 8u);
  expect_all_identical(reports);
  // The resumed runs must still pass the duration-aware fault validator.
  for (const CrashReplayReport& r : reports) {
    EXPECT_TRUE(r.resumed.resumed_from_snapshot ||
                r.resumed.resumed_journal_only)
        << "crash after event " << r.trial.kill_after_events
        << " resumed from nothing";
  }
}

TEST(CrashRecoveryTest, SweepDrfScheduler) {
  const Instance inst = mixed_instance(44, 30);
  RunOptions options;
  RecoveryOptions rec;
  rec.snapshot_every = 6;
  rec.journal_sync_every = 4;
  const auto reports = faults::run_crash_sweep(
      inst, [] { return std::make_unique<DrfScheduler>(); }, options, rec, 6,
      0xD2Full, temp_dir("drf"));
  ASSERT_EQ(reports.size(), 6u);
  expect_all_identical(reports);
}

TEST(CrashRecoveryTest, SweepRunsOneBaselineForAllPairs) {
  // One plain baseline for the sweep, then a crashed and a resumed run per
  // pair: 1 + 2P schedulers.
  const Instance inst = mixed_instance(55, 20);
  RecoveryOptions rec;
  rec.snapshot_every = 5;
  int built = 0;
  const auto reports = faults::run_crash_sweep(
      inst,
      [&built] {
        ++built;
        return std::make_unique<PriorityQueueScheduler>();
      },
      RunOptions{}, rec, 3, 0x5EEDull, temp_dir("one_baseline"));
  ASSERT_EQ(reports.size(), 3u);
  expect_all_identical(reports);
  EXPECT_EQ(built, 1 + 2 * 3);
}

// --- targeted crash points ------------------------------------------------

TEST(CrashRecoveryTest, KillAfterVeryFirstEvent) {
  const Instance inst = mixed_instance(55, 20);
  RunOptions options;
  RecoveryOptions rec;
  rec.snapshot_every = 4;
  CrashTrial trial;
  trial.kill_after_events = 1;
  const CrashReplayReport r = faults::run_crash_trial(
      inst, [] { return std::make_unique<PriorityQueueScheduler>(); },
      options, rec, trial, temp_dir("first"));
  EXPECT_EQ("", r.detail);
}

TEST(CrashRecoveryTest, KillAfterLastEvent) {
  const Instance inst = mixed_instance(55, 20);
  RunOptions options;
  RecoveryOptions rec;
  rec.snapshot_every = 4;
  // Learn the event count, then kill exactly at the end.
  RunResult plain;
  {
    PriorityQueueScheduler s;
    plain = run_online(inst, s, options);
  }
  CrashTrial trial;
  trial.kill_after_events = plain.num_events;
  const CrashReplayReport r = faults::run_crash_trial(
      inst, [] { return std::make_unique<PriorityQueueScheduler>(); },
      options, rec, trial, temp_dir("last"));
  EXPECT_EQ("", r.detail);
}

TEST(CrashRecoveryTest, TornWriteOfEverySingleFrameByte) {
  // Tear the same mid-run record at every possible byte offset: the
  // truncation rule must hold regardless of where the write was cut.
  const Instance inst = mixed_instance(66, 12);
  RunOptions options;
  RecoveryOptions rec;
  rec.snapshot_every = 4;
  const std::string dir = temp_dir("torn_all");
  for (std::uint32_t keep = 1; keep <= 32; keep += 5) {
    CrashTrial trial;
    trial.kill_after_events = 9;
    trial.torn_write_bytes = keep;
    const CrashReplayReport r = faults::run_crash_trial(
        inst, [] { return std::make_unique<PriorityQueueScheduler>(); },
        options, rec, trial, dir);
    EXPECT_EQ("", r.detail) << "torn at byte " << keep;
    EXPECT_GT(r.resumed.journal_torn_bytes, 0u) << "keep=" << keep;
  }
}

// --- resume edge cases ----------------------------------------------------

TEST(CrashRecoveryTest, JournalOnlyResumeReplaysFromTimeZero) {
  const Instance inst = mixed_instance(77, 16);
  const std::string dir = temp_dir("journal_only");
  RecoveryOptions rec;
  rec.journal_path = dir + "/engine.mrjl";  // no snapshot path at all
  rec.journal_sync_every = 1;  // synchronous: the kill loses no records
  RunOptions options;
  options.recovery = &rec;

  CrashPlan plan;
  plan.kill_after_events = 10;
  RecoveryOptions crashed = rec;
  crashed.crash = &plan;
  RunOptions crash_options = options;
  crash_options.recovery = &crashed;
  {
    PriorityQueueScheduler s;
    EXPECT_THROW(run_online(inst, s, crash_options), EngineKilled);
  }

  RecoveryOptions resume = rec;
  resume.resume = true;
  RunOptions resume_options = options;
  resume_options.recovery = &resume;
  PriorityQueueScheduler s;
  const faults::RecordedRun r = faults::run_recorded(inst, s, resume_options);
  EXPECT_TRUE(r.result.recovery.resumed_journal_only);
  EXPECT_FALSE(r.result.recovery.resumed_from_snapshot);
  EXPECT_GT(r.result.recovery.resume_replayed_events, 0u);

  PriorityQueueScheduler s2;
  EXPECT_EQ("", faults::first_difference(
                    r, faults::run_recorded(inst, s2, RunOptions{})));
}

TEST(CrashRecoveryTest, SnapshotOnlyResumeRefiresTheTailOnly) {
  // With no journal there is no pre-cut history to give: on_record fires
  // for the re-executed tail alone, and the run still ends as the
  // uninterrupted one does.
  const Instance inst = mixed_instance(78, 16);
  PriorityQueueScheduler s0;
  const faults::RecordedRun full =
      faults::run_recorded(inst, s0, RunOptions{});

  const std::string dir = temp_dir("snapshot_only");
  RecoveryOptions rec;
  rec.snapshot_path = dir + "/engine.mrsn";  // no journal path at all
  rec.snapshot_every = 4;
  CrashPlan plan;
  plan.kill_after_events = 10;
  RecoveryOptions crashed = rec;
  crashed.crash = &plan;
  RunOptions crash_options;
  crash_options.recovery = &crashed;
  {
    PriorityQueueScheduler s;
    EXPECT_THROW(run_online(inst, s, crash_options), EngineKilled);
  }
  RecoveryOptions resume = rec;
  resume.resume = true;
  RunOptions resume_options;
  resume_options.recovery = &resume;
  PriorityQueueScheduler s;
  faults::RecordedRun resumed = faults::run_recorded(inst, s, resume_options);
  EXPECT_TRUE(resumed.result.recovery.resumed_from_snapshot);
  ASSERT_LT(resumed.records.size(), full.records.size());
  // The records it gave are the uninterrupted run's tail: prepending the
  // rest gives back the uninterrupted run exactly.
  resumed.records.insert(
      resumed.records.begin(), full.records.begin(),
      full.records.end() - static_cast<std::ptrdiff_t>(resumed.records.size()));
  EXPECT_EQ("", faults::first_difference(full, resumed));
}

TEST(CrashRecoveryTest, ResumeRefusesForeignFingerprint) {
  const Instance inst = mixed_instance(88, 16);
  const std::string dir = temp_dir("foreign");
  RecoveryOptions rec;
  rec.snapshot_path = dir + "/engine.mrsn";
  rec.journal_path = dir + "/engine.mrjl";
  rec.snapshot_every = 4;
  RunOptions options;
  options.recovery = &rec;
  {
    PriorityQueueScheduler s;
    run_online(inst, s, options);
  }
  // Same files, different scheduler => different fingerprint => refusal.
  RecoveryOptions resume = rec;
  resume.resume = true;
  RunOptions resume_options;
  resume_options.recovery = &resume;
  DrfScheduler drf;
  EXPECT_THROW(run_online(inst, drf, resume_options), std::runtime_error);
}

TEST(CrashRecoveryTest, ResumeDetectsJournalDivergence) {
  const Instance inst = mixed_instance(99, 16);
  const std::string dir = temp_dir("diverge");
  RecoveryOptions rec;
  rec.journal_path = dir + "/engine.mrjl";
  RunOptions options;
  options.recovery = &rec;
  {
    PriorityQueueScheduler s;
    run_online(inst, s, options);
  }
  // Doctor one mid-journal record (valid CRC, wrong content): the resumed
  // run's re-derived stream must disagree and abort loudly.
  recovery::JournalContents contents =
      recovery::read_journal(rec.journal_path, recovery::kEventJournal);
  ASSERT_TRUE(contents.ok);
  const std::vector<EventRecord> records = recovery::event_records(contents);
  ASSERT_GT(records.size(), 4u);
  recovery::RecoveryStats stats;
  {
    recovery::JournalWriter writer(rec, &stats);
    std::uint64_t fingerprint = contents.fingerprint;
    ASSERT_TRUE(writer.open_fresh(fingerprint));
    for (std::size_t i = 0; i < records.size(); ++i) {
      EventRecord r = records[i];
      if (i == 3) r.t += 1.0;  // the lie
      ASSERT_TRUE(writer.append(r));
    }
    ASSERT_TRUE(writer.sync());
  }
  RecoveryOptions resume = rec;
  resume.resume = true;
  RunOptions resume_options;
  resume_options.recovery = &resume;
  PriorityQueueScheduler s;
  EXPECT_THROW(run_online(inst, s, resume_options), std::runtime_error);
}

TEST(CrashRecoveryTest, ResumeWithNothingOnDiskStartsFresh) {
  const Instance inst = mixed_instance(12, 10);
  const std::string dir = temp_dir("fresh");
  fs::remove(dir + "/engine.mrsn");
  fs::remove(dir + "/engine.mrjl");
  RecoveryOptions rec;
  rec.snapshot_path = dir + "/engine.mrsn";
  rec.journal_path = dir + "/engine.mrjl";
  rec.resume = true;  // nothing to resume from
  RunOptions options;
  options.recovery = &rec;
  PriorityQueueScheduler s;
  const RunResult r = run_online(inst, s, options);
  EXPECT_FALSE(r.recovery.resumed_from_snapshot);
  EXPECT_FALSE(r.recovery.resumed_journal_only);
  EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
}

// --- the run comparison itself ---------------------------------------------

/// A change to exactly one field of a recorded run, and the name
/// first_difference must give it.
struct Mutation {
  const char* name;
  const char* expected;
  void (*apply)(faults::RecordedRun&);
};

faults::RecordedRun sample_run() {
  faults::RecordedRun run;
  run.result.schedule = Schedule(2);
  run.result.schedule.assign(0, 1, 4.0);
  run.result.schedule.assign(1, 0, 2.5);
  run.result.num_events = 6;
  run.records = {{EventRecord::Kind::kArrival, 0.0, 0, kInvalidMachine, 0.0},
                 {EventRecord::Kind::kCommit, 0.5, 0, 1, 4.0}};
  run.result.attempts = {
      {0, 0, 1.0, 3.0, Attempt::Outcome::kMachineFailure, 0.25, 0.0, 1.5},
      {0, 1, 4.0, 6.0, Attempt::Outcome::kCompleted, 0.25, 1.5, 2.0}};
  return run;
}

#define MUTATION(name, expected, body) \
  Mutation { name, expected, [](faults::RecordedRun& r) { body; } }

const Mutation kMutations[] = {
    MUTATION("event_count", "event count:", ++r.result.num_events),
    MUTATION("placement", "job 1 start:",
             r.result.schedule.unassign(1);
             r.result.schedule.assign(1, 0, 3.0)),
    MUTATION("record_count", "record count:", r.records.pop_back()),
    MUTATION("record_kind", "record 1 kind:",
             r.records[1].kind = EventRecord::Kind::kWakeup),
    MUTATION("record_t", "record 1 t:", r.records[1].t = 0.75),
    MUTATION("record_job", "record 1 job:", r.records[1].job = 1),
    MUTATION("record_machine", "record 1 machine:",
             r.records[1].machine = 0),
    MUTATION("record_start", "record 1 start:", r.records[1].start = 5.0),
    MUTATION("attempt_count", "attempt count:",
             r.result.attempts.pop_back()),
    MUTATION("attempt_job", "attempt 1 job:", r.result.attempts[1].job = 1),
    MUTATION("attempt_machine", "attempt 1 machine:",
             r.result.attempts[1].machine = 2),
    MUTATION("attempt_start", "attempt 1 start:",
             r.result.attempts[1].start = 4.5),
    MUTATION("attempt_end", "attempt 1 end:",
             r.result.attempts[1].end = 7.0),
    MUTATION("attempt_outcome", "attempt 1 outcome:",
             r.result.attempts[1].outcome = Attempt::Outcome::kJobFailure),
    MUTATION("attempt_restore", "attempt 1 restore:",
             r.result.attempts[1].restore = 0.5),
    MUTATION("attempt_progress_in", "attempt 1 progress_in:",
             r.result.attempts[1].progress_in = 1.0),
    MUTATION("attempt_progress_out", "attempt 1 progress_out:",
             r.result.attempts[1].progress_out = 2.5),
    // Bitwise, as the encoding compares doubles: -0.0 differs from 0.0.
    MUTATION("negative_zero", "attempt 0 progress_in:",
             r.result.attempts[0].progress_in = -0.0)};

#undef MUTATION

// The parameter is an index into kMutations rather than a Mutation: gtest
// writes the parameter into each case's listed name, and a Mutation prints
// as its raw pointer bytes, which move with every build.
class FirstDifferenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FirstDifferenceTest, NamesTheOneChangedField) {
  const Mutation& mutation = kMutations[GetParam()];
  faults::RecordedRun changed = sample_run();
  mutation.apply(changed);
  EXPECT_EQ("", faults::first_difference(sample_run(), sample_run()));
  EXPECT_NE(faults::encode_run_result(sample_run()),
            faults::encode_run_result(changed));
  const std::string diff = faults::first_difference(sample_run(), changed);
  EXPECT_EQ(diff.rfind(mutation.expected, 0), 0u) << diff;
}

INSTANTIATE_TEST_SUITE_P(
    EveryField, FirstDifferenceTest,
    ::testing::Range<std::size_t>(0, std::size(kMutations)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kMutations[info.param].name);
    });

}  // namespace
}  // namespace mris
