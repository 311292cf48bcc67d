// Versioned whole-engine snapshots (docs/RECOVERY.md).
//
// File layout ("MRSN"):
//
//   u32 magic · u32 version · u64 run fingerprint
//   u64 events_processed · u64 journal_records · f64 now
//   u64 payload size · u32 crc32(payload) · payload
//
// The payload is the engine's opaque serialized state (StateWriter bytes:
// event queue, machine timelines, job views, retry gates, scheduler state).
// The metadata prefix is what resume needs *before* decoding anything: the
// fingerprint refuses a snapshot from a different (instance, scheduler,
// fault plan), and journal_records says where in the journal this snapshot
// sits so the tail beyond it can be cross-checked during re-execution.
//
// Writes are atomic: the snapshot is written to `<path>.tmp`, fsync'd, and
// renamed over the target — a crash mid-snapshot leaves the previous valid
// snapshot untouched.  The first failed open, write or sync marks the
// store dead and bumps stats->snapshot_failures; the engine then degrades
// to journal-only mode rather than aborting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/recovery/options.hpp"

namespace mris::recovery {

inline constexpr std::uint32_t kSnapshotMagic = 0x4E53524Du;  // "MRSN"
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Resume-relevant metadata stored ahead of the opaque payload.
struct SnapshotMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t events_processed = 0;  ///< engine events up to this cut
  std::uint64_t journal_records = 0;   ///< journal length at this cut
  double now = 0.0;                    ///< simulation clock at this cut
};

/// Atomic snapshot writer with the same failure-containment contract as
/// JournalWriter: the first failed open, write or sync marks the store
/// dead, and every later write() is a no-op returning false.
class SnapshotStore {
 public:
  SnapshotStore(const RecoveryOptions& options, RecoveryStats* stats);

  /// Atomically replaces the snapshot at options.snapshot_path.  The
  /// payload is viewed, not copied — header and payload go to the file as
  /// two writes, so a snapshot never materializes a concatenated copy.
  bool write(const SnapshotMeta& meta, std::string_view payload);

  bool dead() const noexcept { return dead_; }

 private:
  const RecoveryOptions& options_;
  RecoveryStats* stats_;
  bool dead_ = false;
};

struct SnapshotContents {
  bool ok = false;
  std::string error;
  SnapshotMeta meta;
  std::string payload;
};

/// Reads and validates a snapshot (magic, version, size, CRC).  Never
/// throws; any corruption reports ok=false with a reason.
SnapshotContents read_snapshot(const std::string& path);

}  // namespace mris::recovery
