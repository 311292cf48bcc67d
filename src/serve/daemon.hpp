// Scheduler-as-a-service driver (docs/DAEMON.md).
//
// serve_stream() is the daemon's core loop, transport-agnostic over a
// std::istream of protocol frames (serve/protocol.hpp): decode a frame,
// advance the engine to the admission point (StreamEngine::
// run_until_release), durably journal the admission (write-ahead, see
// below), admit, and stream every resulting EventRecord to the configured
// sink.  Memory stays bounded by the live backlog: the engine prunes
// committed calendar history as jobs complete, the sink buffers nothing,
// and the decoder holds at most one frame.
//
// The admission journal (`admissions.mraj`) records what the engine cannot:
// the job parameters of a stream the daemon never holds in full.  It is a
// recovery::JournalWriter log (the event journal's frame layout) with its
// own magic "MRAJ", version 2, the config fingerprint in its header, and
// one frame per accepted Job whose payload is the wire Job payload
// (serve/protocol.hpp, encode_job_payload).  Every append is fsync'd
// before StreamEngine::admit runs, so the admission journal is always at
// or ahead of the event journal; a failed write or sync makes serve_stream
// throw at once rather than admit (the writer does not retry).
//
// Restartability composes the engine's whole-engine snapshots + event
// journal (docs/RECOVERY.md) with the admission journal:
//
//   resume = read admission journal
//          -> rebuild the instance prefix recorded inside the snapshot
//             (its payload's leading u64) and restore the engine at its cut;
//             the engine feeds the event journal's pre-cut records to the
//             sink through RunOptions::on_record, then replays and
//             cross-checks the tail, which re-fires it the same way
//          -> re-admit the admission-journal tail
//          -> continue with the live stream.
//
// The producer replays its stream from seq 0 after a daemon restart; the
// daemon verifies already-journaled frames bit-for-bit against the
// admission journal (divergent replay is a ProtocolError) and admits only
// from the first new frame on.  End to end, a kill -9'd and resumed daemon
// produces byte-identical sink output and placement checksum to an
// uninterrupted run — the crash-recovery test asserts exactly this.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/sink.hpp"
#include "sim/engine.hpp"
#include "sim/recovery/journal.hpp"

namespace mris::serve {

/// The admission journal's header identity: "MRAJ", version 2 (the shared
/// frame layout; version 1 put the CRC after the payload).
inline constexpr recovery::JournalFormat kAdmissionJournal{0x4A41524Du, 2};

struct ServeOptions {
  int num_machines = 4;
  int num_resources = 2;

  /// Scheduler factory — the daemon builds (and on resume, restores) its
  /// scheduler through this, so serve depends only on the OnlineScheduler
  /// interface, not on any concrete scheduler or on exp's spec parsing.
  std::function<std::unique_ptr<OnlineScheduler>()> make_scheduler;

  /// Per-decision metric sink (not owned; may be nullptr for none).
  MetricsSink* sink = nullptr;

  /// State directory for durability; empty disables snapshots, both
  /// journals, and resume.  Layout: engine.snap, engine.journal,
  /// admissions.mraj.
  std::string state_dir;

  /// Forwarded to RecoveryOptions (docs/RECOVERY.md).
  std::uint64_t snapshot_every = 0;

  /// Resume from state_dir if it holds a valid prior run; fresh otherwise.
  bool resume = false;

  /// Fired after every LIVE admission (journaled + admitted; not for
  /// restored/re-admitted/deduped jobs) with the all-time admitted count.
  /// The kill -9 crash harness hangs _exit() off this to die mid-stream.
  std::function<void(std::uint64_t jobs_admitted)> on_admit;
};

/// Wall-clock decision-latency summary: one sample per live admission,
/// covering run_until_release + journal append + admit.
struct LatencySummary {
  std::uint64_t samples = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct ServeResult {
  RunResult run;
  std::uint64_t frames = 0;          ///< protocol frames decoded (live)
  std::uint64_t jobs = 0;            ///< total jobs admitted (all-time)
  std::uint64_t placement_checksum = 0;  ///< PlacementChecksum over commits
  bool resumed_from_snapshot = false;
  std::uint64_t resume_restored = 0;    ///< jobs restored inside the snapshot
  std::uint64_t resume_readmitted = 0;  ///< admission-journal tail re-admits
  std::uint64_t replay_deduped = 0;     ///< live frames verified + skipped
  LatencySummary latency;
};

/// The admission journal's config fingerprint: refuses to resume a journal
/// into a daemon with a different cluster shape or scheduler.
std::uint64_t config_fingerprint(int num_machines, int num_resources,
                                 const std::string& scheduler_name);

/// Runs the daemon loop over `in` until End-of-stream, then drains the
/// engine.  Throws ProtocolError on malformed input (nothing from the bad
/// frame onward is admitted), std::runtime_error on IO/config failures.
ServeResult serve_stream(std::istream& in, const ServeOptions& options);

}  // namespace mris::serve
