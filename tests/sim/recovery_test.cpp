// Unit tests of the durability subsystem's building blocks: the binary
// state codecs, the CRC-framed write-ahead journal (including the torn-
// record truncation rule), atomic snapshots, and the IO retry/degradation
// ladder driven through injected IoHooks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/pq.hpp"
#include "serve/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/faults/crash.hpp"
#include "sim/recovery/journal.hpp"
#include "sim/recovery/snapshot.hpp"
#include "sim/recovery/state_io.hpp"

namespace mris {
namespace {

namespace fs = std::filesystem;
using recovery::JournalContents;
using recovery::JournalWriter;
using recovery::RecoveryOptions;
using recovery::RecoveryStats;
using recovery::SnapshotContents;
using recovery::SnapshotMeta;
using recovery::SnapshotStore;
using recovery::StateReader;
using recovery::StateWriter;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("mris_recovery_" + name)).string();
}

JournalContents read_events(const std::string& path) {
  return recovery::read_journal(path, recovery::kEventJournal);
}

EventRecord sample_record(double t) {
  EventRecord rec;
  rec.kind = EventRecord::Kind::kCommit;
  rec.t = t;
  rec.job = 7;
  rec.machine = 2;
  rec.start = t + 1.5;
  return rec;
}

// --- StateWriter / StateReader -------------------------------------------

TEST(StateIoTest, RoundTripsEveryFieldType) {
  StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f64(3.141592653589793);
  w.str("hello\0world");  // embedded NUL must survive
  w.vec_f64({1.5, -0.0, 2.5});
  w.vec_i32({-1, 0, 1});
  w.vec_u64({9ull, 10ull});
  w.vec_char({1, 0, 1});

  StateReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");  // string literal stops at the NUL
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{1.5, -0.0, 2.5}));
  EXPECT_EQ(r.vec_i32(), (std::vector<std::int32_t>{-1, 0, 1}));
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{9ull, 10ull}));
  EXPECT_EQ(r.vec_char(), (std::vector<char>{1, 0, 1}));
  EXPECT_TRUE(r.done());
}

TEST(StateIoTest, DoublesRoundTripByBitPattern) {
  const double values[] = {
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  StateWriter w;
  for (double v : values) w.f64(v);
  StateReader r(w.data());
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0) << v;
  }
}

TEST(StateIoTest, ReaderThrowsOnUnderflow) {
  StateWriter w;
  w.u32(5);
  StateReader r(w.data());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW(r.u8(), std::runtime_error);
}

TEST(StateIoTest, VectorWithImpossibleLengthThrowsNotAllocates) {
  StateWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // absurd element count
  StateReader r(w.data());
  EXPECT_THROW(r.vec_f64(), std::runtime_error);
}

TEST(StateIoTest, EmptyVectorsRoundTrip) {
  StateWriter w;
  w.vec_f64({});
  w.vec_i32({});
  w.vec_u64({});
  w.vec_char({});
  StateReader r(w.data());
  EXPECT_TRUE(r.vec_f64().empty());
  EXPECT_TRUE(r.vec_i32().empty());
  EXPECT_TRUE(r.vec_u64().empty());
  EXPECT_TRUE(r.vec_char().empty());
  EXPECT_TRUE(r.done());
}

TEST(StateIoTest, LengthThatWrapsWhenScaledIsTruncation) {
  // 2^62 elements of 4 or 8 bytes wraps a 64-bit byte count to 0; the
  // reader must still report truncation, not try to allocate.
  for (int type = 0; type < 3; ++type) {
    StateWriter w;
    w.u64(std::uint64_t{1} << 62);
    w.u64(0);  // a few bytes of "payload"
    StateReader r(w.data());
    EXPECT_THROW(type == 0   ? (void)r.vec_i32()
                 : type == 1 ? (void)r.vec_f64()
                             : (void)r.vec_u64(),
                 std::runtime_error)
        << "type " << type;
  }
}

TEST(StateIoTest, FingerprintSeparatesInputs) {
  recovery::Fingerprint a, b;
  a.mix("mris").mix(std::uint64_t{1});
  b.mix("mris").mix(std::uint64_t{2});
  EXPECT_NE(a.value(), b.value());
  recovery::Fingerprint c;
  c.mix("mris").mix(std::uint64_t{1});
  EXPECT_EQ(a.value(), c.value());
}

TEST(StateIoTest, Crc32MatchesKnownVector) {
  // The classic check value for CRC-32/IEEE.
  EXPECT_EQ(recovery::crc32("123456789"), 0xCBF43926u);
}

// --- event record codec ---------------------------------------------------

TEST(JournalTest, EventRecordRoundTrips) {
  const EventRecord rec = sample_record(12.25);
  const std::string payload = recovery::encode_event_record(rec);
  const EventRecord back = recovery::decode_event_record(payload);
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.t, rec.t);
  EXPECT_EQ(back.job, rec.job);
  EXPECT_EQ(back.machine, rec.machine);
  EXPECT_EQ(back.start, rec.start);
}

// --- journal write / read / truncation ------------------------------------

TEST(JournalTest, WriteThenReadBackAllRecords) {
  const std::string path = temp_path("journal_rw.mrjl");
  RecoveryOptions options;
  options.journal_path = path;
  options.journal_sync_every = 2;
  RecoveryStats stats;
  {
    JournalWriter writer(options, &stats);
    ASSERT_TRUE(writer.open_fresh(0x1234u));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(writer.append(sample_record(i)));
    ASSERT_TRUE(writer.sync());
  }
  const JournalContents contents = read_events(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_EQ(contents.fingerprint, 0x1234u);
  ASSERT_EQ(contents.payloads.size(), 5u);
  EXPECT_EQ(contents.torn_bytes, 0u);
  const std::vector<EventRecord> records = recovery::event_records(contents);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(records[i].t, double(i));
  EXPECT_EQ(stats.journal_records, 5u);
  EXPECT_GT(stats.journal_bytes, 0u);
  fs::remove(path);
}

TEST(JournalTest, TornFrameIsTruncatedNeverDecoded) {
  const std::string path = temp_path("journal_torn.mrjl");
  RecoveryOptions options;
  options.journal_path = path;
  RecoveryStats stats;
  {
    JournalWriter writer(options, &stats);
    ASSERT_TRUE(writer.open_fresh(1));
    ASSERT_TRUE(writer.append(sample_record(1.0)));
    ASSERT_TRUE(writer.append(sample_record(2.0)));
    writer.append_torn(sample_record(3.0), 11);  // 11 of 33 frame bytes
    EXPECT_TRUE(writer.dead());
  }
  const JournalContents contents = read_events(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  ASSERT_EQ(contents.payloads.size(), 2u);  // the torn record never happened
  EXPECT_EQ(contents.torn_bytes, 11u);
  // Making the cut permanent leaves a cleanly appendable journal.
  ASSERT_TRUE(recovery::truncate_journal(path, contents.valid_bytes));
  const JournalContents clean = read_events(path);
  EXPECT_EQ(clean.payloads.size(), 2u);
  EXPECT_EQ(clean.torn_bytes, 0u);
  fs::remove(path);
}

TEST(JournalTest, CorruptedPayloadFailsCrcAndTruncatesThere) {
  const std::string path = temp_path("journal_crc.mrjl");
  RecoveryOptions options;
  options.journal_path = path;
  RecoveryStats stats;
  {
    JournalWriter writer(options, &stats);
    ASSERT_TRUE(writer.open_fresh(1));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer.append(sample_record(i)));
    ASSERT_TRUE(writer.sync());
  }
  // Flip one byte inside the second frame's payload.
  const std::uint64_t header = 16, frame = 8 + 25;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(header + frame + 8 + 3));
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  const JournalContents contents = read_events(path);
  ASSERT_TRUE(contents.ok);
  EXPECT_EQ(contents.payloads.size(), 1u);  // frames 2 and 3 discarded
  EXPECT_EQ(contents.valid_bytes, header + frame);
  EXPECT_EQ(contents.torn_bytes, 2 * frame);
  fs::remove(path);
}

TEST(JournalTest, MissingOrForeignFileReportsNotOk) {
  EXPECT_FALSE(read_events(temp_path("nonexistent.mrjl")).ok);
  const std::string path = temp_path("journal_foreign.mrjl");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a journal at all";
  }
  EXPECT_FALSE(read_events(path).ok);
  EXPECT_FALSE(recovery::read_journal(path, serve::kAdmissionJournal).ok);

  // Each journal's magic refuses the other's file: an event journal is
  // never replayed as admissions, nor the reverse.
  RecoveryOptions options;
  options.journal_path = path;
  const std::pair<recovery::JournalFormat, recovery::JournalFormat> cases[] = {
      {recovery::kEventJournal, serve::kAdmissionJournal},
      {serve::kAdmissionJournal, recovery::kEventJournal}};
  for (const auto& [written, other] : cases) {
    {
      JournalWriter writer(options, nullptr, written);
      ASSERT_TRUE(writer.open_fresh(1));
      ASSERT_TRUE(writer.append(sample_record(1.0)));
    }
    EXPECT_TRUE(recovery::read_journal(path, written).ok);
    const JournalContents foreign = recovery::read_journal(path, other);
    EXPECT_FALSE(foreign.ok);
    EXPECT_TRUE(foreign.payloads.empty());
  }
  fs::remove(path);
}

TEST(JournalTest, KillDropsTheUnsyncedBatch) {
  const std::string path = temp_path("journal_kill.mrjl");
  RecoveryOptions options;
  options.journal_path = path;
  options.journal_sync_every = 100;  // nothing auto-syncs
  RecoveryStats stats;
  JournalWriter writer(options, &stats);
  ASSERT_TRUE(writer.open_fresh(1));
  ASSERT_TRUE(writer.append(sample_record(1.0)));
  ASSERT_TRUE(writer.append(sample_record(2.0)));
  ASSERT_TRUE(writer.sync());  // records 1-2 durable
  ASSERT_TRUE(writer.append(sample_record(3.0)));
  writer.kill();  // record 3 dies with the stdio buffer
  EXPECT_TRUE(writer.dead());
  const JournalContents contents = read_events(path);
  ASSERT_TRUE(contents.ok);
  EXPECT_EQ(contents.payloads.size(), 2u);
  EXPECT_EQ(contents.torn_bytes, 0u);
  fs::remove(path);
}

// --- snapshot write / read ------------------------------------------------

TEST(SnapshotTest, WriteThenReadBack) {
  const std::string path = temp_path("snap_rw.mrsn");
  RecoveryOptions options;
  options.snapshot_path = path;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  SnapshotMeta meta;
  meta.fingerprint = 99;
  meta.events_processed = 17;
  meta.journal_records = 23;
  meta.now = 4.5;
  ASSERT_TRUE(store.write(meta, "engine-state-bytes"));
  EXPECT_EQ(stats.snapshots_taken, 1u);
  EXPECT_GT(stats.snapshot_bytes, 0u);

  const SnapshotContents contents = recovery::read_snapshot(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_EQ(contents.meta.fingerprint, 99u);
  EXPECT_EQ(contents.meta.events_processed, 17u);
  EXPECT_EQ(contents.meta.journal_records, 23u);
  EXPECT_EQ(contents.meta.now, 4.5);
  EXPECT_EQ(contents.payload, "engine-state-bytes");
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // atomic replace, no droppings
  fs::remove(path);
}

TEST(SnapshotTest, CorruptPayloadIsRejected) {
  const std::string path = temp_path("snap_corrupt.mrsn");
  RecoveryOptions options;
  options.snapshot_path = path;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  ASSERT_TRUE(store.write(SnapshotMeta{}, "payload-payload-payload"));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(recovery::read_snapshot(path).ok);
  fs::remove(path);
}

TEST(SnapshotTest, TruncatedFileIsRejected) {
  const std::string path = temp_path("snap_short.mrsn");
  RecoveryOptions options;
  options.snapshot_path = path;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  ASSERT_TRUE(store.write(SnapshotMeta{}, "0123456789"));
  fs::resize_file(path, fs::file_size(path) - 4);
  EXPECT_FALSE(recovery::read_snapshot(path).ok);
  fs::remove(path);
}

TEST(SnapshotTest, Version1IsRefused) {
  // Version 1 payloads carried a copy of the run's event log; version 2
  // leaves the history to the event journal.
  const std::string path = temp_path("snap_v1.mrsn");
  RecoveryOptions options;
  options.snapshot_path = path;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  ASSERT_TRUE(store.write(SnapshotMeta{}, "payload"));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // the u32 version follows the u32 magic
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, sizeof v1);
  }
  const SnapshotContents contents = recovery::read_snapshot(path);
  EXPECT_FALSE(contents.ok);
  EXPECT_EQ(contents.error, "unsupported snapshot version 1");
  fs::remove(path);
}

// --- IO failure and degradation ladder ------------------------------------

TEST(IoRetryTest, OneWriteFailureKillsTheStoreAtOnce) {
  // No retry: the first failed write takes the ladder rung, even when the
  // next attempt would have gone through.
  const std::string path = temp_path("snap_once.mrsn");
  int writes = 0;
  recovery::IoHooks hooks;
  hooks.allow_write = [&](const std::string&, std::size_t) {
    return ++writes > 1;
  };
  RecoveryOptions options;
  options.snapshot_path = path;
  options.hooks = &hooks;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  EXPECT_FALSE(store.write(SnapshotMeta{}, "payload"));
  EXPECT_TRUE(store.dead());
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(stats.snapshot_failures, 1u);
  EXPECT_EQ(stats.snapshots_taken, 0u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(IoRetryTest, OneJournalWriteFailureKeepsTheValidPrefix) {
  // The failed frame is not written again, so the records before it stay
  // readable and no torn tail is left behind.
  const std::string path = temp_path("journal_once.mrjl");
  int writes = 0;  // header, first frame, then the failing second frame
  recovery::IoHooks hooks;
  hooks.allow_write = [&](const std::string&, std::size_t) {
    return ++writes != 3;
  };
  RecoveryOptions options;
  options.journal_path = path;
  options.hooks = &hooks;
  RecoveryStats stats;
  JournalWriter writer(options, &stats);
  ASSERT_TRUE(writer.open_fresh(1));
  EXPECT_TRUE(writer.append(sample_record(1.0)));
  EXPECT_FALSE(writer.append(sample_record(2.0)));
  EXPECT_TRUE(writer.dead());
  EXPECT_FALSE(writer.append(sample_record(3.0)));
  EXPECT_EQ(writes, 3);
  EXPECT_EQ(stats.journal_failures, 1u);
  const JournalContents contents = read_events(path);
  ASSERT_TRUE(contents.ok);
  ASSERT_EQ(contents.payloads.size(), 1u);
  EXPECT_EQ(contents.torn_bytes, 0u);
  fs::remove(path);
}

TEST(IoRetryTest, PersistentSnapshotFailureKillsTheStoreOnly) {
  const std::string path = temp_path("snap_dead.mrsn");
  recovery::IoHooks hooks;
  hooks.allow_write = [](const std::string&, std::size_t) { return false; };
  RecoveryOptions options;
  options.snapshot_path = path;
  options.hooks = &hooks;
  RecoveryStats stats;
  SnapshotStore store(options, &stats);
  EXPECT_FALSE(store.write(SnapshotMeta{}, "payload"));
  EXPECT_TRUE(store.dead());
  EXPECT_EQ(stats.snapshot_failures, 1u);
  // Dead store: later writes are cheap no-ops.
  EXPECT_FALSE(store.write(SnapshotMeta{}, "payload"));
  EXPECT_EQ(stats.snapshot_failures, 1u);
  EXPECT_FALSE(fs::exists(path));
  fs::remove(path + ".tmp");
}

TEST(IoRetryTest, PersistentJournalFailureMarksWriterDead) {
  const std::string path = temp_path("journal_dead.mrjl");
  int syncs = 0;  // let the header's sync pass, fail every one after
  recovery::IoHooks hooks;
  hooks.allow_sync = [&](const std::string&) { return ++syncs <= 1; };
  RecoveryOptions options;
  options.journal_path = path;
  options.journal_sync_every = 1;  // sync (and fail) on the first append
  options.hooks = &hooks;
  RecoveryStats stats;
  JournalWriter writer(options, &stats);
  ASSERT_TRUE(writer.open_fresh(1));
  writer.append(sample_record(1.0));
  EXPECT_TRUE(writer.dead());
  EXPECT_EQ(stats.journal_failures, 1u);
  fs::remove(path);
}

// --- engine-level degradation ---------------------------------------------

Instance chain_instance(int jobs) {
  InstanceBuilder builder(2, 1);
  for (int i = 0; i < jobs; ++i) {
    builder.add(0.25 * i, 1.0 + 0.125 * (i % 4), 1.0, {0.5});
  }
  return builder.build();
}

TEST(RecoveryDegradationTest, SnapshotFailureDegradesToJournalOnly) {
  const Instance inst = chain_instance(12);
  recovery::IoHooks hooks;
  hooks.allow_write = [](const std::string& path, std::size_t) {
    return path.find(".mrsn") == std::string::npos;  // journal writes pass
  };
  RecoveryOptions rec;
  rec.snapshot_path = temp_path("degrade.mrsn");
  rec.journal_path = temp_path("degrade.mrjl");
  rec.snapshot_every = 4;
  rec.hooks = &hooks;
  RunOptions options;
  options.recovery = &rec;
  PriorityQueueScheduler scheduler;
  const RunResult r = run_online(inst, scheduler, options);
  EXPECT_TRUE(r.recovery.degraded_journal_only);
  EXPECT_FALSE(r.recovery.degraded_in_memory);
  EXPECT_EQ(r.recovery.snapshots_taken, 0u);
  EXPECT_GT(r.recovery.journal_records, 0u);
  // The run still finished and the journal is intact.
  EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
  const JournalContents contents = read_events(rec.journal_path);
  ASSERT_TRUE(contents.ok);
  EXPECT_EQ(contents.payloads.size(), r.recovery.journal_records);
  fs::remove(rec.snapshot_path);
  fs::remove(rec.journal_path);
}

TEST(RecoveryDegradationTest, TotalIoFailureDegradesToInMemory) {
  const Instance inst = chain_instance(8);
  recovery::IoHooks hooks;
  hooks.allow_write = [](const std::string&, std::size_t) { return false; };
  hooks.allow_sync = [](const std::string&) { return false; };
  RecoveryOptions rec;
  rec.snapshot_path = temp_path("dead.mrsn");
  rec.journal_path = temp_path("dead.mrjl");
  rec.snapshot_every = 2;
  rec.journal_sync_every = 1;
  rec.hooks = &hooks;
  RunOptions options;
  options.recovery = &rec;
  PriorityQueueScheduler scheduler;
  const RunResult r = run_online(inst, scheduler, options);
  EXPECT_TRUE(r.recovery.degraded_in_memory);
  EXPECT_TRUE(validate_schedule(inst, r.schedule).ok);
  fs::remove(rec.snapshot_path);
  fs::remove(rec.journal_path);
}

TEST(RecoveryDegradationTest, ObserverDoesNotChangeSnapshotBytes) {
  // Snapshots carry no record history, so watching the record stream must
  // not change what a durable run writes.
  const Instance inst = chain_instance(24);
  RecoveryOptions rec;
  rec.snapshot_path = temp_path("observed.mrsn");
  rec.journal_path = temp_path("observed.mrjl");
  rec.snapshot_every = 5;
  RunOptions options;
  options.recovery = &rec;
  PriorityQueueScheduler s1;
  PriorityQueueScheduler s2;
  const RecoveryStats quiet = run_online(inst, s1, options).recovery;
  const RecoveryStats observed =
      faults::run_recorded(inst, s2, options).result.recovery;
  EXPECT_GT(quiet.snapshots_taken, 0u);
  EXPECT_EQ(observed.snapshots_taken, quiet.snapshots_taken);
  EXPECT_EQ(observed.snapshot_bytes, quiet.snapshot_bytes);
  EXPECT_EQ(observed.journal_bytes, quiet.journal_bytes);
  fs::remove(rec.snapshot_path);
  fs::remove(rec.journal_path);
}

TEST(RecoveryDegradationTest, RecoveryMachineryDoesNotChangeTheSchedule) {
  const Instance inst = chain_instance(16);
  PriorityQueueScheduler plain_scheduler;
  const faults::RecordedRun plain =
      faults::run_recorded(inst, plain_scheduler, {});
  RecoveryOptions rec;
  rec.snapshot_path = temp_path("noop.mrsn");
  rec.journal_path = temp_path("noop.mrjl");
  rec.snapshot_every = 3;
  RunOptions options;
  options.recovery = &rec;
  PriorityQueueScheduler scheduler;
  const faults::RecordedRun durable =
      faults::run_recorded(inst, scheduler, options);
  EXPECT_EQ("", faults::first_difference(plain, durable));
  EXPECT_GT(durable.result.recovery.snapshots_taken, 0u);
  fs::remove(rec.snapshot_path);
  fs::remove(rec.journal_path);
}

}  // namespace
}  // namespace mris
