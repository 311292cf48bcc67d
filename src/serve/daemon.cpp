#include "serve/daemon.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <istream>
#include <stdexcept>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/recovery/snapshot.hpp"

namespace mris::serve {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Replayed frames must match what was journaled bit-for-bit — a producer
/// that "replays" different job parameters is feeding a different workload,
/// and silently admitting it would fork history.
bool same_job(const Job& a, const Job& b) {
  if (!same_bits(a.release, b.release) ||
      !same_bits(a.processing, b.processing) ||
      !same_bits(a.weight, b.weight) || a.tenant != b.tenant ||
      a.demand.size() != b.demand.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.demand.size(); ++i) {
    if (!same_bits(a.demand[i], b.demand[i])) return false;
  }
  return true;
}

/// The admission journal's records.  A payload behind a valid CRC that
/// does not decode is corruption, not a torn tail, so it throws.
std::vector<JobFrame> admission_records(const recovery::JournalContents& log) {
  std::vector<JobFrame> records;
  records.reserve(log.payloads.size());
  for (const std::string& payload : log.payloads) {
    recovery::StateReader r(payload);
    records.push_back(decode_job_payload(r));
    if (!r.done()) {
      throw std::runtime_error(
          "serve_stream: trailing bytes in an admission journal record");
    }
  }
  return records;
}

LatencySummary summarize(std::vector<double>& us) {
  LatencySummary s;
  s.samples = us.size();
  if (us.empty()) return s;
  double sum = 0.0;
  for (double v : us) sum += v;
  s.mean_us = sum / static_cast<double>(us.size());
  std::sort(us.begin(), us.end());
  const auto pct = [&us](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(us.size() - 1) + 0.5);
    return us[i];
  };
  s.p50_us = pct(0.50);
  s.p99_us = pct(0.99);
  s.max_us = us.back();
  return s;
}

}  // namespace

std::uint64_t config_fingerprint(int num_machines, int num_resources,
                                 const std::string& scheduler_name) {
  recovery::Fingerprint fp;
  fp.mix("mris-serve-config-v1");
  fp.mix(static_cast<std::uint64_t>(num_machines));
  fp.mix(static_cast<std::uint64_t>(num_resources));
  fp.mix(scheduler_name);
  return fp.value();
}

ServeResult serve_stream(std::istream& in, const ServeOptions& options) {
  if (!options.make_scheduler) {
    throw std::invalid_argument("serve_stream: make_scheduler is required");
  }
  if (options.num_machines < 1 || options.num_resources < 1) {
    throw std::invalid_argument(
        "serve_stream: need at least one machine and one resource");
  }

  const std::unique_ptr<OnlineScheduler> scheduler = options.make_scheduler();
  const std::uint64_t cfg_fp = config_fingerprint(
      options.num_machines, options.num_resources, scheduler->name());

  const bool durable = !options.state_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    if (ec) {
      throw std::runtime_error("serve_stream: cannot create state dir " +
                               options.state_dir + ": " + ec.message());
    }
  }
  const std::string snap_path = options.state_dir + "/engine.snap";
  const std::string journal_path = options.state_dir + "/engine.journal";
  const std::string admit_path = options.state_dir + "/admissions.mraj";

  // ---- Resume scouting (before any engine state exists) ----------------
  recovery::JournalContents admit_log;  // !ok means fresh start
  std::vector<JobFrame> admitted;
  recovery::SnapshotContents snap;  // handed to the engine, read once
  std::uint64_t restored_jobs = 0;
  bool resuming = false;
  if (durable && options.resume) {
    admit_log = recovery::read_journal(admit_path, kAdmissionJournal);
    if (admit_log.ok) {
      if (admit_log.fingerprint != cfg_fp) {
        throw std::runtime_error(
            "serve_stream: admission journal was written by a daemon with a "
            "different configuration (machines/resources/scheduler)");
      }
      resuming = true;
      admitted = admission_records(admit_log);
      snap = recovery::read_snapshot(snap_path);
      // A streaming snapshot's payload leads with the admitted-job count
      // it was cut at; without it the daemon resumes journal-only.
      if (snap.ok && snap.payload.size() >= 8) {
        recovery::StateReader r(snap.payload);
        restored_jobs = r.u64();
      }
      if (restored_jobs > admitted.size()) {
        throw std::runtime_error(
            "serve_stream: snapshot holds more admissions than the admission "
            "journal — the write-ahead invariant was violated");
      }
    }
  }

  // ---- Engine assembly -------------------------------------------------
  ServeResult result;
  PlacementChecksum checksum;
  recovery::RecoveryOptions rec_opts;
  rec_opts.snapshot_path = snap_path;
  rec_opts.journal_path = journal_path;
  rec_opts.snapshot_every = options.snapshot_every;
  rec_opts.resume = resuming;
  if (resuming) rec_opts.snapshot = &snap;

  RunOptions run_opts;
  run_opts.on_record = [&](const EventRecord& rec) {
    if (rec.kind == EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
    if (options.sink != nullptr) options.sink->event(rec);
  };
  if (durable) run_opts.recovery = &rec_opts;

  // The growing job store.  On snapshot resume it must hold exactly the
  // prefix the snapshot was cut at (the engine validates the count).
  Instance inst(std::vector<Job>{}, options.num_machines,
                options.num_resources);
  for (std::uint64_t i = 0; i < restored_jobs; ++i) {
    inst.append(admitted[i].job);
  }

  StreamEngine engine(inst, *scheduler, run_opts);
  engine.start();
  snap = {};  // restored (or refused); drop the payload
  result.resumed_from_snapshot = engine.resumed_from_snapshot();
  if (resuming && !result.resumed_from_snapshot && restored_jobs > 0) {
    // The scout accepted a snapshot the engine then refused — the instance
    // prefix no longer matches an empty-start engine, so fail loudly
    // rather than admit against divergent state.
    throw std::runtime_error(
        "serve_stream: engine rejected the snapshot the resume scout "
        "accepted; state directory is inconsistent");
  }
  // On a snapshot resume, start() already fed the sink and checksum the
  // journal's pre-cut records; the tail re-fires as the engine re-executes.
  if (result.resumed_from_snapshot) result.resume_restored = restored_jobs;

  // ---- Admission journal writer + tail re-admission --------------------
  // Write-ahead: every append is synced before the engine admits the job.
  // A daemon that cannot make an admission durable must not make it.
  recovery::RecoveryOptions admit_opts;
  admit_opts.journal_path = admit_path;
  admit_opts.journal_sync_every = 1;
  recovery::JournalWriter admit_writer(admit_opts, nullptr, kAdmissionJournal);
  const auto durable_or_throw = [&admit_path](bool ok) {
    if (!ok) {
      throw std::runtime_error("serve_stream: cannot write admission journal " +
                               admit_path);
    }
  };
  if (durable) {
    if (resuming) {
      durable_or_throw(admit_log.torn_bytes == 0 ||
                       recovery::truncate_journal(admit_path,
                                                  admit_log.valid_bytes));
      durable_or_throw(admit_writer.open_append());
    } else {
      durable_or_throw(admit_writer.open_fresh(cfg_fp));
    }
  }
  for (std::uint64_t i = restored_jobs; i < admitted.size(); ++i) {
    const JobFrame& rec = admitted[i];
    engine.run_until_release(rec.job.release);
    engine.admit(rec.job);
    ++result.resume_readmitted;
  }

  // ---- Live loop -------------------------------------------------------
  // Decision latency is operator telemetry only: it lands in ServeResult,
  // never in sink output or placements, so the wall-clock read cannot
  // leak into anything byte-compared.
  // mris-analyze: allow(determinism-time)
  using Clock = std::chrono::steady_clock;
  std::vector<double> latency_us;
  const std::uint64_t already = admitted.size();
  recovery::StateWriter payload;  // reused admission-record buffer
  FrameDecoder decoder(static_cast<std::uint32_t>(options.num_resources));
  Frame frame;
  char buf[4096];
  bool eof = false;
  while (!eof && !decoder.saw_end()) {
    in.read(buf, sizeof buf);
    const std::streamsize got = in.gcount();
    if (got > 0) {
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(got)));
    }
    if (got <= 0 || in.eof()) eof = true;
    while (decoder.next(frame)) {
      ++result.frames;
      if (frame.kind != kFrameJob) continue;  // Hello/End carry no admission
      if (frame.job.seq < already) {
        // Producer replay of an already-journaled admission: verify, skip.
        const JobFrame& prev = admitted[frame.job.seq];
        if (!same_job(frame.job.job, prev.job)) {
          throw ProtocolError(
              "replayed frame seq " + std::to_string(frame.job.seq) +
              " does not match the admission journal (divergent replay)");
        }
        ++result.replay_deduped;
        continue;
      }
      const auto t0 = Clock::now();
      engine.run_until_release(frame.job.job.release);
      if (durable) {
        payload.clear();
        encode_job_payload(payload, frame.job.seq, frame.job.job);
        durable_or_throw(admit_writer.append(payload.data()));
      }
      engine.admit(frame.job.job);
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (options.on_admit) options.on_admit(inst.num_jobs());
    }
  }
  decoder.finish();

  result.run = engine.finish();
  admit_writer.close();
  if (options.sink != nullptr) options.sink->flush();
  result.jobs = inst.num_jobs();
  result.placement_checksum = checksum.value();
  result.latency = summarize(latency_us);
  return result;
}

}  // namespace mris::serve
