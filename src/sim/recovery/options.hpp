// Engine-level durability configuration and observability
// (docs/RECOVERY.md).
//
// A run with RecoveryOptions attached maintains two durable artifacts:
//
//   * a write-ahead event journal (journal_path): every committed
//     EventRecord, CRC-framed and fsync'd in batches, appended *as the run
//     executes* — after a crash the journal is the authoritative record of
//     what the lost process had already decided;
//   * whole-engine snapshots (snapshot_path): the complete engine state —
//     event queue, per-machine timelines, scheduler-visible job views with
//     PR 3 residual/salvage state, retry/backoff gates, and the scheduler's
//     own state via OnlineScheduler::save_state — written atomically
//     (tmp + rename) at gamma_k epoch boundaries (wakeup events) and
//     every `snapshot_every` events.
//
// Resume (`resume = true`) restores `snapshot + journal tail`: the engine
// loads the newest valid snapshot, truncates any torn record off the
// journal, re-executes forward, and cross-checks every re-derived record
// against the journal tail (divergence means non-determinism or corruption
// and aborts the resume loudly).  With no usable snapshot it degrades to
// journal-only replay from t=0; with no journal either it starts fresh.
//
// Degradation ladder (stats record every rung taken): the first failed
// snapshot open, write or sync downgrades the run to journal-only mode and
// it keeps scheduling; the first failed journal operation downgrades it to
// in-memory mode — the run still completes, it is just no longer
// crash-durable.  Durability degrades before availability does.  Failed IO
// is never retried: a failed fsync may already have dropped the dirty
// pages, and a short write leaves part of a frame behind.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace mris {

struct CrashPlan;  // sim/faults/crash.hpp

namespace recovery {

struct SnapshotContents;  // sim/recovery/snapshot.hpp

/// Injectable IO fault hooks (tests only; nullptr members are "always
/// allow").  Each callback returns true to let the operation through and
/// false to fail it — the writer then degrades at once.
struct IoHooks {
  std::function<bool(const std::string& path)> allow_open;
  std::function<bool(const std::string& path, std::size_t bytes)> allow_write;
  std::function<bool(const std::string& path)> allow_sync;
};

struct RecoveryOptions {
  /// Snapshot file path; empty disables snapshots (journal-only mode).
  std::string snapshot_path;

  /// Journal file path; empty disables the journal.
  std::string journal_path;

  /// Snapshot after every N processed events (0 = only at wakeups).
  /// A snapshot is always taken right after each wakeup event — MRIS's
  /// gamma_k epoch boundaries, the natural consistent-cut points of
  /// Algorithm 1.
  std::uint64_t snapshot_every = 0;

  /// Resume from snapshot_path + journal_path if they hold a valid state
  /// for this (instance, scheduler, fault plan); start fresh otherwise.
  bool resume = false;

  /// The snapshot at snapshot_path, when the caller has already read it
  /// for this resume (not owned; may be nullptr): the engine restores from
  /// it instead of reading the file a second time.  serve_stream reads the
  /// snapshot before the engine exists, for its admitted-job count.
  const SnapshotContents* snapshot = nullptr;

  /// Journal fsync batching: flush + fsync every N appended records (and
  /// always at the end of the run).  1 = synchronous, paper-safe; larger
  /// batches trade bounded loss for throughput.
  std::uint32_t journal_sync_every = 64;

  /// Test hooks for IO fault injection (not owned; may be nullptr).
  const IoHooks* hooks = nullptr;

  /// Crash-injection plan (not owned; may be nullptr) — kills the engine
  /// at a chosen event boundary, optionally tearing the in-flight journal
  /// frame.  See sim/faults/crash.hpp.
  const CrashPlan* crash = nullptr;
};

/// Per-run durability counters, returned in RunResult::recovery.
struct RecoveryStats {
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshot_bytes = 0;  ///< size of the newest snapshot
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;

  // Degradation ladder.
  std::uint64_t snapshot_failures = 0;  ///< snapshotting stopped
  std::uint64_t journal_failures = 0;   ///< journaling stopped
  bool degraded_journal_only = false;
  bool degraded_in_memory = false;

  // Resume accounting.
  bool resumed_from_snapshot = false;
  bool resumed_journal_only = false;
  std::uint64_t resume_replayed_events = 0;  ///< re-executed after the cut
  std::uint64_t journal_torn_bytes = 0;      ///< truncated off a torn tail
};

}  // namespace recovery
}  // namespace mris
