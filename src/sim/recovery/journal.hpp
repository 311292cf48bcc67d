// Append-only CRC-framed logs (docs/RECOVERY.md): the engine's write-ahead
// event journal and the daemon's admission journal share this one format.
//
// File layout:
//
//   header   u32 magic · u32 version · u64 fingerprint
//   frame*   u32 payload size · u32 crc32(payload) · payload
//
// The writer frames opaque payloads; a JournalFormat (magic + version)
// tells the files apart.  The event journal ("MRJL") holds one frame per
// committed EventRecord, in emission order (the order RunOptions::on_record
// sees them).  Appends are buffered and fsync'd every
// `journal_sync_every` records, so at most one batch is lost to a crash —
// plus possibly one *torn* frame if the crash hit mid-write.
//
// Torn-record truncation rule: on read, the journal ends at the first frame
// that is short, oversized, or fails its CRC; everything from that byte on
// is discarded (and truncate_journal() makes the cut permanent before a
// resumed run appends).  A torn frame never yields a payload — a record is
// either durable in full or it never happened.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/recovery/options.hpp"
#include "sim/recovery/state_io.hpp"

namespace mris::recovery {

/// A journal file's header identity.  A reader refuses a file whose magic
/// or version differs, so one journal is never replayed as another.
struct JournalFormat {
  std::uint32_t magic;
  std::uint32_t version;
};

inline constexpr JournalFormat kEventJournal{0x4C4A524Du, 1};  // "MRJL"

/// Serialized EventRecord payload (u8 kind, f64 t, i32 job, i32 machine,
/// f64 start) — exposed so tests can frame records by hand.  The writer
/// overload is the canonical encoder; the string form wraps it.
void encode_event_record(const EventRecord& rec, StateWriter& w);
std::string encode_event_record(const EventRecord& rec);
EventRecord decode_event_record(std::string_view payload);

/// Append-only journal writer with batched fsync.  All methods are
/// failure-containing: the first failed open, write or sync marks the
/// writer dead (no retry: see docs/RECOVERY.md), bumps
/// stats->journal_failures, and every later call returns false or becomes
/// a cheap no-op.  Writes go to options.journal_path.
class JournalWriter {
 public:
  JournalWriter(const RecoveryOptions& options, RecoveryStats* stats,
                JournalFormat format = kEventJournal);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates/truncates the journal and writes the header.
  bool open_fresh(std::uint64_t fingerprint);

  /// Re-opens an existing (already truncated-to-valid) journal for append.
  bool open_append();

  /// Appends one CRC frame around `payload`; fsyncs when the batch fills.
  bool append(std::string_view payload);

  /// Appends one engine event, encoded into a reused buffer.
  bool append(const EventRecord& rec);

  /// Crash injection: writes only the first `keep_bytes` bytes of the
  /// record's frame and flushes — the torn-write a real crash leaves
  /// behind.  The writer is dead afterwards.
  void append_torn(const EventRecord& rec, std::uint32_t keep_bytes);

  /// Crash injection at an event boundary: drops every record appended
  /// since the last fsync (truncating the file back to its synced length)
  /// and marks the writer dead — what dying with a dirty stdio buffer
  /// leaves behind.  Lost records are re-derived on resume.
  void kill();

  /// Flushes buffered frames and fsyncs.
  bool sync();

  void close();

  bool dead() const noexcept { return dead_; }

 private:
  bool write_bytes(std::string_view bytes);
  bool open_file(const char* mode);  ///< fopen, or give_up() on failure
  void give_up();

  const RecoveryOptions& options_;
  RecoveryStats* stats_;
  JournalFormat format_;
  StateWriter payload_;  ///< reused per-append buffers — one append runs
  StateWriter frame_;    ///< per engine event, so no fresh allocations
  std::FILE* file_ = nullptr;
  std::uint32_t unsynced_ = 0;
  std::uint64_t bytes_written_ = 0;  ///< file length including buffered
  std::uint64_t synced_bytes_ = 0;   ///< file length known durable
  bool dead_ = false;
};

/// Everything a read of the journal yields: the valid payload prefix, how
/// many bytes a torn/corrupt tail cost, and the header fingerprint.
struct JournalContents {
  bool ok = false;  ///< header present, well-formed, of the expected format
  std::string error;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> payloads;
  std::uint64_t valid_bytes = 0;  ///< header + intact frames
  std::uint64_t torn_bytes = 0;   ///< discarded by the truncation rule
};

/// Reads a journal of `format`, applying the torn-record truncation rule
/// (never throws; a missing, garbled or foreign file reports ok=false).
JournalContents read_journal(const std::string& path, JournalFormat format);

/// The event journal's records, decoded from its payloads.
std::vector<EventRecord> event_records(const JournalContents& contents);

/// Truncates the file to `valid_bytes` (making a torn-tail cut permanent).
bool truncate_journal(const std::string& path, std::uint64_t valid_bytes);

}  // namespace mris::recovery
