// Daemon restartability (serve/daemon.hpp + docs/DAEMON.md): a daemon that
// dies mid-stream — engine snapshot, engine journal, and admission journal
// all at an arbitrary cut — must, when restarted with resume and the
// producer's replayed stream, finish with byte-identical sink output and
// placement checksum to a daemon that never died.  The in-process "death"
// here is a stream cut at every prefix length (the daemon unwinds with a
// ProtocolError, leaving the state directory exactly as a crash between
// frames would); the hard kill -9 variant runs as the ctest shell script
// daemon_crash_kill (scripts/daemon_crash_test.sh), which cuts the process
// mid-write with no unwinding at all.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "exp/schedulers.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "testkit/generators.hpp"
#include "testkit/streams.hpp"

namespace mris::serve {
namespace {

using testkit::Family;
using testkit::GenConfig;
using testkit::make_family_instance;

Instance canonical(const Instance& inst) {
  std::vector<Job> jobs = inst.jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return Instance(std::move(jobs), inst.num_machines(), inst.num_resources());
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mris_serve_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

ServeOptions base_options(const Instance& inst, const std::string& scheduler,
                          MetricsSink* sink) {
  ServeOptions opts;
  opts.num_machines = inst.num_machines();
  opts.num_resources = inst.num_resources();
  opts.sink = sink;
  opts.snapshot_every = 8;  // frequent cuts so crashes land past a snapshot
  opts.make_scheduler = [&inst, scheduler] {
    return exp::make_scheduler(exp::parse_scheduler_spec(scheduler), inst);
  };
  return opts;
}

struct DaemonOutput {
  std::uint64_t checksum = 0;
  std::string sink;
  ServeResult result;
};

DaemonOutput run_to_completion(const Instance& inst, const std::string& bytes,
                               const std::string& state_dir, bool resume) {
  std::ostringstream sink_out;
  JsonlSink sink(sink_out);
  ServeOptions opts = base_options(inst, "mris", &sink);
  opts.state_dir = state_dir;
  opts.resume = resume;
  std::istringstream in(bytes);
  DaemonOutput out;
  out.result = serve_stream(in, opts);
  out.checksum = out.result.placement_checksum;
  out.sink = sink_out.str();
  return out;
}

TEST(DaemonRecoveryTest, ResumedDaemonIsByteIdenticalAtEveryCut) {
  const std::size_t iters = testkit::fuzz_iters(2);
  for (std::uint64_t seed = 0; seed < iters; ++seed) {
    GenConfig config;
    config.num_jobs = 18;
    const Instance inst =
        canonical(make_family_instance(Family::kMixed, config, seed));
    const std::string bytes = encode_stream(
        inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));

    const auto ref_dir = fresh_dir("ref_" + std::to_string(seed));
    const DaemonOutput reference =
        run_to_completion(inst, bytes, ref_dir.string(), false);

    // Crash at a sweep of byte cuts: before Hello, mid-frame, between
    // frames, just before End.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += std::max<std::size_t>(1, bytes.size() / 7)) {
      const auto dir = fresh_dir("crash_" + std::to_string(seed) + "_" +
                                 std::to_string(cut));
      {
        ServeOptions opts = base_options(inst, "mris", nullptr);
        opts.state_dir = dir.string();
        std::istringstream in(bytes.substr(0, cut));
        EXPECT_THROW(serve_stream(in, opts), ProtocolError)
            << "cut " << cut << " unexpectedly decoded as a whole stream";
      }
      const DaemonOutput resumed =
          run_to_completion(inst, bytes, dir.string(), true);
      EXPECT_EQ(resumed.checksum, reference.checksum)
          << "seed " << seed << " cut " << cut;
      EXPECT_EQ(resumed.sink, reference.sink)
          << "seed " << seed << " cut " << cut;
      EXPECT_EQ(resumed.result.jobs, inst.num_jobs())
          << "seed " << seed << " cut " << cut;
      std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(ref_dir);
  }
}

TEST(DaemonRecoveryTest, ResumeDedupesReplayedFrames) {
  GenConfig config;
  config.num_jobs = 16;
  const Instance inst =
      canonical(make_family_instance(Family::kReleaseBurst, config, 7));
  const std::string bytes = encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  const auto dir = fresh_dir("dedupe");

  // First run admits everything and completes.
  const DaemonOutput first =
      run_to_completion(inst, bytes, dir.string(), false);
  // A resumed daemon fed the identical stream must dedupe every Job frame
  // against the admission journal and still report identical output.
  const DaemonOutput second =
      run_to_completion(inst, bytes, dir.string(), true);
  // Every job comes back twice: once from durable state (snapshot restore +
  // journal re-admit) and once as a deduped live frame.
  EXPECT_EQ(second.result.replay_deduped, inst.num_jobs());
  EXPECT_EQ(second.result.resume_restored + second.result.resume_readmitted,
            inst.num_jobs());
  EXPECT_EQ(second.checksum, first.checksum);
  EXPECT_EQ(second.sink, first.sink);
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecoveryTest, DivergentReplayIsRejected) {
  GenConfig config;
  config.num_jobs = 10;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 9));
  const std::string bytes = encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  const auto dir = fresh_dir("divergent");
  run_to_completion(inst, bytes, dir.string(), false);

  // Replay a stream whose first job has a different weight: same framing,
  // valid CRC, but divergent content — the daemon must refuse it.
  std::vector<Job> tampered = inst.jobs();
  tampered[0].weight += 1.0;
  const std::string bad = encode_stream(
      tampered, static_cast<std::uint32_t>(inst.num_resources()));
  ServeOptions opts = base_options(inst, "mris", nullptr);
  opts.state_dir = dir.string();
  opts.resume = true;
  std::istringstream in(bad);
  EXPECT_THROW(serve_stream(in, opts), ProtocolError);
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecoveryTest, ConfigFingerprintGuardsTheAdmissionJournal) {
  GenConfig config;
  config.num_jobs = 8;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 13));
  const std::string bytes = encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  const auto dir = fresh_dir("fingerprint");
  run_to_completion(inst, bytes, dir.string(), false);

  // Same state dir, different scheduler: the admission journal's config
  // fingerprint must refuse the resume outright.
  ServeOptions opts = base_options(inst, "pq-wsjf", nullptr);
  opts.state_dir = dir.string();
  opts.resume = true;
  std::istringstream in(bytes);
  EXPECT_THROW(serve_stream(in, opts), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecoveryTest, AdmissionJournalRoundTripsAndTruncatesTornTails) {
  const auto dir = fresh_dir("mraj");
  const std::string path = (dir / "admissions.mraj").string();
  Job j;
  j.release = 2.0;
  j.processing = 3.0;
  j.weight = 1.5;
  j.tenant = 4;
  j.demand = {0.25, 0.75};
  {
    recovery::RecoveryOptions options;
    options.journal_path = path;
    options.journal_sync_every = 1;
    recovery::JournalWriter w(options, nullptr, kAdmissionJournal);
    ASSERT_TRUE(w.open_fresh(42));
    for (std::uint64_t seq = 0; seq < 2; ++seq) {
      recovery::StateWriter payload;
      encode_job_payload(payload, seq, j);
      ASSERT_TRUE(w.append(payload.data()));
    }
  }
  const recovery::JournalContents log =
      recovery::read_journal(path, kAdmissionJournal);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_EQ(log.fingerprint, 42u);
  ASSERT_EQ(log.payloads.size(), 2u);
  recovery::StateReader r(log.payloads[1]);
  const JobFrame back = decode_job_payload(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.seq, 1u);
  EXPECT_EQ(back.job.demand, j.demand);
  EXPECT_EQ(log.torn_bytes, 0u);

  // Tear the tail mid-record: the second record must vanish whole.
  std::filesystem::resize_file(path, log.valid_bytes - 5);
  const recovery::JournalContents torn =
      recovery::read_journal(path, kAdmissionJournal);
  ASSERT_TRUE(torn.ok);
  ASSERT_EQ(torn.payloads.size(), 1u);
  EXPECT_GT(torn.torn_bytes, 0u);
  EXPECT_TRUE(recovery::truncate_journal(path, torn.valid_bytes));
  EXPECT_EQ(std::filesystem::file_size(path), torn.valid_bytes);
  std::filesystem::remove_all(dir);
}

TEST(DaemonRecoveryTest, ResumeTruncatesATornAdmissionJournalTail) {
  GenConfig config;
  config.num_jobs = 18;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 5));
  const std::string bytes = encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  const auto ref_dir = fresh_dir("torn_ref");
  const DaemonOutput reference =
      run_to_completion(inst, bytes, ref_dir.string(), false);

  // Cut the stream mid-way, then leave half of the next admission frame on
  // disk: a crash inside the write-ahead append.
  const auto dir = fresh_dir("torn_admission");
  {
    ServeOptions opts = base_options(inst, "mris", nullptr);
    opts.state_dir = dir.string();
    std::istringstream in(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(serve_stream(in, opts), ProtocolError);
  }
  const std::filesystem::path admit_path = dir / "admissions.mraj";
  const recovery::JournalContents before =
      recovery::read_journal(admit_path.string(), kAdmissionJournal);
  ASSERT_TRUE(before.ok) << before.error;
  const std::size_t next = before.payloads.size();
  ASSERT_LT(next, inst.num_jobs());
  const std::string durable = file_bytes(admit_path);
  {
    recovery::StateWriter payload;
    encode_job_payload(payload, next, inst.jobs()[next]);
    recovery::StateWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(recovery::crc32(payload.data()));
    frame.raw(payload.data().data(), payload.size());
    std::ofstream out(admit_path, std::ios::binary | std::ios::app);
    out.write(frame.data().data(),
              static_cast<std::streamsize>(frame.size() / 2));
  }
  const recovery::JournalContents torn =
      recovery::read_journal(admit_path.string(), kAdmissionJournal);
  ASSERT_EQ(torn.payloads.size(), next);
  ASSERT_EQ(torn.valid_bytes, durable.size());
  ASSERT_GT(torn.torn_bytes, 0u);

  const DaemonOutput resumed =
      run_to_completion(inst, bytes, dir.string(), true);
  EXPECT_EQ(resumed.checksum, reference.checksum);
  EXPECT_EQ(resumed.sink, reference.sink);
  EXPECT_EQ(resumed.result.jobs, inst.num_jobs());
  // The torn bytes were cut at valid_bytes before the resumed daemon
  // appended, so the journal is the uninterrupted run's byte for byte.
  const std::string after = file_bytes(admit_path);
  EXPECT_EQ(after.substr(0, durable.size()), durable);
  EXPECT_EQ(after, file_bytes(ref_dir / "admissions.mraj"));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(ref_dir);
}

}  // namespace
}  // namespace mris::serve
