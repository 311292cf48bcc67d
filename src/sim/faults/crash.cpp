#include "sim/faults/crash.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>

#include "sim/recovery/state_io.hpp"
#include "util/contracts.hpp"

namespace mris::faults {

namespace {

/// Counter-based mixer (splitmix64 finalizer) for deriving deterministic
/// crash points — interleaving-free, like every other draw in this repo.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// One compared field of a recorded run: its row ("job", "record",
/// "attempt"; "" for a count), the row's index, the field's name, and its
/// value's bits.  Every value is held as a double (ids, kinds and counts
/// convert exactly) and compared by its IEEE pattern, so -0.0 and NaN
/// compare exactly.
struct Field {
  const char* row;
  std::size_t index;
  const char* name;
  std::uint64_t bits;
};

/// Every field of a run, in encoding order.  Each count precedes its rows,
/// so two runs' lists stay aligned up to their first difference.
std::vector<Field> fields(const RecordedRun& run) {
  std::vector<Field> out;
  const auto add = [&out](const char* row, std::size_t i, const char* name,
                          double v) {
    out.push_back({row, i, name, std::bit_cast<std::uint64_t>(v)});
  };
  const RunResult& r = run.result;
  add("", 0, "event count", static_cast<double>(r.num_events));
  add("", 0, "job count", static_cast<double>(r.schedule.num_jobs()));
  for (std::size_t i = 0; i < r.schedule.num_jobs(); ++i) {
    const Assignment& a = r.schedule.assignment(static_cast<JobId>(i));
    add("job", i, "machine", a.machine);
    add("job", i, "start", a.start);
  }
  add("", 0, "record count", static_cast<double>(run.records.size()));
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const EventRecord& e = run.records[i];
    add("record", i, "kind", static_cast<int>(e.kind));
    add("record", i, "t", e.t);
    add("record", i, "job", e.job);
    add("record", i, "machine", e.machine);
    add("record", i, "start", e.start);
  }
  add("", 0, "attempt count", static_cast<double>(r.attempts.size()));
  for (std::size_t i = 0; i < r.attempts.size(); ++i) {
    const Attempt& a = r.attempts[i];
    add("attempt", i, "job", a.job);
    add("attempt", i, "machine", a.machine);
    add("attempt", i, "start", a.start);
    add("attempt", i, "end", a.end);
    add("attempt", i, "outcome", static_cast<int>(a.outcome));
    add("attempt", i, "restore", a.restore);
    add("attempt", i, "progress_in", a.progress_in);
    add("attempt", i, "progress_out", a.progress_out);
  }
  return out;
}

std::string show(const Field& f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::bit_cast<double>(f.bits));
  return buf;
}

}  // namespace

RecordedRun run_recorded(const Instance& inst, OnlineScheduler& scheduler,
                         RunOptions options) {
  RecordedRun run;
  options.on_record = [&run](const EventRecord& rec) {
    run.records.push_back(rec);
  };
  run.result = run_online(inst, scheduler, options);
  return run;
}

std::string encode_run_result(const RecordedRun& run) {
  recovery::StateWriter w;
  for (const Field& f : fields(run)) w.u64(f.bits);
  return w.take();
}

std::string first_difference(const RecordedRun& a, const RecordedRun& b) {
  const std::vector<Field> x = fields(a);
  const std::vector<Field> y = fields(b);
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i].bits == y[i].bits) continue;
    const std::string row =
        *x[i].row ? x[i].row + (" " + std::to_string(x[i].index)) + " " : "";
    return row + x[i].name + ": " + show(x[i]) + " vs " + show(y[i]);
  }
  return {};
}

namespace {

/// The pristine reference: an uninterrupted run with no durability
/// machinery at all — recovery must reproduce THIS, so any bias the
/// journaling layer introduced would also be caught.
RecordedRun run_baseline(const Instance& inst,
                         const SchedulerFactory& make_scheduler,
                         const RunOptions& base_options) {
  RunOptions plain = base_options;
  plain.recovery = nullptr;
  auto scheduler = make_scheduler();
  return run_recorded(inst, *scheduler, plain);
}

/// Steps (2) and (3) of run_crash_trial, compared against `baseline`.
CrashReplayReport run_trial_against(
    const RecordedRun& baseline, const Instance& inst,
    const SchedulerFactory& make_scheduler, const RunOptions& base_options,
    const recovery::RecoveryOptions& recovery_template, const CrashTrial& trial,
    const std::string& dir) {
  MRIS_EXPECT(trial.kill_after_events > 0,
              "crash trial needs a kill point >= 1");
  namespace fs = std::filesystem;
  fs::create_directories(dir);

  recovery::RecoveryOptions durable = recovery_template;
  durable.snapshot_path = dir + "/engine.mrsn";
  durable.journal_path = dir + "/engine.mrjl";
  durable.resume = false;
  durable.crash = nullptr;

  CrashReplayReport report;
  report.trial = trial;
  if (trial.kill_after_events > baseline.result.num_events) {
    report.detail = "kill point " + std::to_string(trial.kill_after_events) +
                    " past the run's " +
                    std::to_string(baseline.result.num_events) +
                    " events; crash would never fire";
    return report;
  }

  // (2) The doomed run: journal + snapshots on, killed per the trial.
  {
    CrashPlan plan;
    plan.kill_after_events = trial.kill_after_events;
    plan.torn_write_bytes = trial.torn_write_bytes;
    recovery::RecoveryOptions crashed = durable;
    crashed.crash = &plan;
    RunOptions options = base_options;
    options.recovery = &crashed;
    bool killed = false;
    try {
      auto scheduler = make_scheduler();
      run_online(inst, *scheduler, options);
    } catch (const EngineKilled&) {
      killed = true;
    }
    if (!killed) {
      report.detail = "crash plan never fired";
      return report;
    }
  }

  // (3) The survivor: a fresh process resuming from whatever the crash
  // left on disk.  Its records before the snapshot cut come from the
  // journal, the rest from re-execution.
  RecordedRun resumed;
  {
    recovery::RecoveryOptions resume = durable;
    resume.resume = true;
    RunOptions options = base_options;
    options.recovery = &resume;
    auto scheduler = make_scheduler();
    resumed = run_recorded(inst, *scheduler, options);
  }
  report.resumed = resumed.result.recovery;

  report.detail = first_difference(baseline, resumed);
  return report;
}

}  // namespace

CrashReplayReport run_crash_trial(
    const Instance& inst, const SchedulerFactory& make_scheduler,
    const RunOptions& base_options,
    const recovery::RecoveryOptions& recovery_template, const CrashTrial& trial,
    const std::string& dir) {
  return run_trial_against(run_baseline(inst, make_scheduler, base_options),
                           inst, make_scheduler, base_options,
                           recovery_template, trial, dir);
}

std::vector<CrashReplayReport> run_crash_sweep(
    const Instance& inst, const SchedulerFactory& make_scheduler,
    const RunOptions& base_options,
    const recovery::RecoveryOptions& recovery_template, int pairs,
    std::uint64_t seed, const std::string& dir) {
  MRIS_EXPECT(pairs > 0, "crash sweep needs at least one pair");

  // One uninterrupted run gives the crash-point range and the reference
  // every trial is compared against.
  const RecordedRun baseline = run_baseline(inst, make_scheduler, base_options);
  const std::uint64_t num_events = baseline.result.num_events;

  std::vector<CrashReplayReport> reports;
  reports.reserve(static_cast<std::size_t>(pairs));
  for (int i = 0; i < pairs; ++i) {
    CrashTrial trial;
    const std::uint64_t draw = mix64(seed ^ mix64(static_cast<std::uint64_t>(i)));
    trial.kill_after_events = num_events > 0 ? draw % num_events + 1 : 1;
    // Every third trial dies mid-journal-write: tear the frame after
    // 1..32 of its 33 bytes (u32 size + u32 crc + 25-byte payload), which
    // covers torn frame headers and torn payloads alike.
    if (i % 3 == 2) {
      trial.torn_write_bytes =
          static_cast<std::uint32_t>(mix64(draw) % 32 + 1);
    }
    reports.push_back(run_trial_against(baseline, inst, make_scheduler,
                                        base_options, recovery_template, trial,
                                        dir));
  }
  return reports;
}

}  // namespace mris::faults
