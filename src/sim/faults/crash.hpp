// Crash injection and crash-recovery verification (docs/RECOVERY.md).
//
// A CrashPlan kills the engine at a chosen event boundary — or mid-journal-
// write, leaving a torn frame — by throwing EngineKilled out of run_online.
// Within one OS process that is exactly what a real crash looks like to the
// durability subsystem: the in-memory engine state is gone, and only the
// snapshot + journal files survive.
//
// The harness below turns that into the recovery correctness oracle this
// repo treats as the acceptance bar: for any (instance, scheduler, fault
// plan, crash point), run once uninterrupted, run once crashed + resumed,
// and require the resumed run's schedule, record stream, attempts, and
// metrics to be BYTE-identical to the uninterrupted run.
//
// RecordedRun / first_difference are the one way two runs are compared in
// the tree: harness, testkit oracles, tests and recovery_overhead alike.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace mris {

/// Crash-injection plan, attached via RecoveryOptions::crash.
struct CrashPlan {
  /// Kill the engine when it has fully processed this many events (0
  /// disables).  The kill lands at the event *boundary*: the event's side
  /// effects and journal records happen, then the process dies before any
  /// snapshot — and the journal loses whatever was appended since the last
  /// fsync batch (bounded loss, re-derived on resume).
  std::uint64_t kill_after_events = 0;

  /// When > 0, the kill instead lands *mid-journal-write*: the record of
  /// event number kill_after_events is written torn (only this many bytes
  /// of its frame reach the file) and the event's side effects never
  /// happen.  Exercises the torn-record truncation rule.
  std::uint32_t torn_write_bytes = 0;
};

/// Thrown by run_online when a CrashPlan fires.  Deliberately NOT derived
/// from the engine's logic-error family: a crash is not a scheduler bug.
class EngineKilled : public std::runtime_error {
 public:
  explicit EngineKilled(std::uint64_t events)
      : std::runtime_error("engine killed by crash plan after " +
                           std::to_string(events) + " events"),
        events_processed(events) {}

  std::uint64_t events_processed = 0;
};

namespace faults {

/// Builds the scheduler for one run.  The harness needs a *fresh* scheduler
/// per run (uninterrupted, crashed, resumed) — resumed state must come from
/// the snapshot, never from a reused object.
using SchedulerFactory = std::function<std::unique_ptr<OnlineScheduler>()>;

/// One crash point to exercise.
struct CrashTrial {
  std::uint64_t kill_after_events = 0;
  std::uint32_t torn_write_bytes = 0;  ///< 0 = clean boundary kill
};

/// Outcome of one trial: uninterrupted vs crashed+resumed.
struct CrashReplayReport {
  /// Empty when the resumed run is byte-identical to the baseline; else
  /// their first difference, or why the trial could not run.
  std::string detail;
  CrashTrial trial;
  recovery::RecoveryStats resumed;  ///< stats of the resumed run
};

/// A finished run and its record stream, collected through
/// RunOptions::on_record.
struct RecordedRun {
  RunResult result;
  std::vector<EventRecord> records;
};

/// run_online with a collecting on_record (replacing any in `options`).
RecordedRun run_recorded(const Instance& inst, OnlineScheduler& scheduler,
                         RunOptions options);

/// Canonical byte encoding of a recorded run (schedule, event count,
/// records, attempts) — two runs are byte-identical iff these strings are
/// equal.  Durability counters and fit counters are excluded: they
/// describe the machinery, not the scheduling outcome.
std::string encode_run_result(const RecordedRun& run);

/// "" when the two runs encode identically, else their first difference,
/// naming the placement, record field, attempt field or count that
/// differs.
std::string first_difference(const RecordedRun& a, const RecordedRun& b);

/// Runs `trial` against a baseline: (1) uninterrupted run with NO recovery
/// machinery at all (so journaling bias would also be caught), (2) run with
/// journaling + snapshots under `recovery_template` (paths redirected into
/// `dir`), killed per the trial, (3) resumed run from the surviving
/// snapshot + journal.  Compares (3) to (1) byte-for-byte.
CrashReplayReport run_crash_trial(
    const Instance& inst, const SchedulerFactory& make_scheduler,
    const RunOptions& base_options,
    const recovery::RecoveryOptions& recovery_template, const CrashTrial& trial,
    const std::string& dir);

/// Seeded sweep: runs the baseline once, derives from its event count
/// `pairs` deterministic (crash point, torn?) pairs covering early/mid/late
/// kills and mid-journal-write tears, and runs each trial's crashed and
/// resumed runs against that one baseline.  All files live under `dir`.
std::vector<CrashReplayReport> run_crash_sweep(
    const Instance& inst, const SchedulerFactory& make_scheduler,
    const RunOptions& base_options,
    const recovery::RecoveryOptions& recovery_template, int pairs,
    std::uint64_t seed, const std::string& dir);

}  // namespace faults
}  // namespace mris
