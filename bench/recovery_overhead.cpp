// Durability overhead bench (docs/RECOVERY.md): wall-clock cost of the
// snapshot + write-ahead-journal subsystem at its default cadence, measured
// as matched pairs of engine runs — one plain, one durable — on the same
// azure-like workloads the micro benches use.
//
// Three arms:
//   mris_wakeups   MRIS, snapshots at gamma_k wakeups (the default cadence)
//   pq_every64     PQ-WSJF (never wakes up), snapshots every 64 events
//   mris_faulty    MRIS under outages/stragglers/checkpoints, default cadence
//
// For each arm the bench runs `MRIS_REPS` timed pairs and reports the best
// (minimum) wall-clock of each side — the standard way to strip scheduler
// noise from a cold-cache comparison — plus the durable run's snapshot /
// journal volume.  Every pair is also checked byte-identical, record stream
// included, via faults::first_difference(): durability must never change
// the scheduling outcome, and a divergence fails the bench (exit 1).  Both
// sides of a pair collect their records.
//
// Results go to results/BENCH_recovery.json.  Like BENCH_daemon.json it
// carries wall-clock timings, so it is EXCLUDED from the determinism CI
// byte-diff; the committed baseline documents the < 10% overhead target.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <memory>

#include "sched/mris.hpp"
#include "sched/pq.hpp"
#include "sim/faults.hpp"
#include "sim/faults/crash.hpp"
#include "sim/recovery/options.hpp"

using namespace mris;

namespace {

struct ArmResult {
  std::string name;
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  double plain_ms = 0.0;
  double durable_ms = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  bool identical = false;

  double overhead_pct() const {
    return plain_ms > 0.0 ? (durable_ms / plain_ms - 1.0) * 100.0 : 0.0;
  }
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Directory for the durable runs' state files.  Defaults to a RAM-backed
/// filesystem when one exists so the bench measures the subsystem's own
/// overhead (serialization, CRC, syscalls) rather than the device's fsync
/// latency, which varies by orders of magnitude across storage.  Set
/// MRIS_BENCH_STATE_DIR to point at a real device to measure that instead.
std::string state_root() {
  if (const char* dir = std::getenv("MRIS_BENCH_STATE_DIR")) return dir;
  std::error_code ec;
  if (std::filesystem::is_directory("/dev/shm", ec)) return "/dev/shm";
  return std::filesystem::temp_directory_path().string();
}

/// One timed pair: plain run vs durable run (fresh scheduler each, fresh
/// state files each — the bench measures steady-state writing, not resume).
ArmResult run_arm(const std::string& name, const Instance& inst,
                  const faults::SchedulerFactory& make_scheduler,
                  const FaultPlan* faults, std::uint64_t snapshot_every) {
  ArmResult r;
  r.name = name;
  r.jobs = inst.num_jobs();
  const std::size_t reps = util::bench_reps();

  const std::string dir =
      (std::filesystem::path(state_root()) / ("mris_bench_rec_" + name))
          .string();
  std::filesystem::create_directories(dir);

  RunOptions plain_options;
  if (faults != nullptr && !faults->empty()) plain_options.faults = faults;

  recovery::RecoveryOptions rec;  // defaults: wakeup snapshots, sync every 64
  rec.snapshot_path = dir + "/engine.mrsn";
  rec.journal_path = dir + "/engine.mrjl";
  rec.snapshot_every = snapshot_every;

  r.plain_ms = 1e300;
  r.durable_ms = 1e300;
  r.identical = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    faults::RecordedRun plain;
    {
      const std::unique_ptr<OnlineScheduler> s = make_scheduler();
      const auto t0 = std::chrono::steady_clock::now();
      plain = faults::run_recorded(inst, *s, plain_options);
      r.plain_ms = std::min(r.plain_ms, ms_since(t0));
    }
    faults::RecordedRun durable;
    {
      RunOptions durable_options = plain_options;
      durable_options.recovery = &rec;
      const std::unique_ptr<OnlineScheduler> s = make_scheduler();
      const auto t0 = std::chrono::steady_clock::now();
      durable = faults::run_recorded(inst, *s, durable_options);
      r.durable_ms = std::min(r.durable_ms, ms_since(t0));
    }
    const recovery::RecoveryStats& stats = durable.result.recovery;
    r.events = plain.result.num_events;
    r.snapshots = stats.snapshots_taken;
    r.snapshot_bytes = stats.snapshot_bytes;
    r.journal_records = stats.journal_records;
    r.journal_bytes = stats.journal_bytes;
    const std::string diff = faults::first_difference(plain, durable);
    if (!diff.empty()) std::fprintf(stderr, "%s: %s\n", name.c_str(),
                                    diff.c_str());
    r.identical = r.identical && diff.empty();
  }
  std::filesystem::remove_all(dir);

  std::printf("%-14s jobs=%-6zu events=%-7llu plain=%8.2f ms  "
              "durable=%8.2f ms  overhead=%5.1f%%  snapshots=%llu  "
              "journal=%llu rec/%llu B  results %s\n",
              r.name.c_str(), r.jobs,
              static_cast<unsigned long long>(r.events), r.plain_ms,
              r.durable_ms, r.overhead_pct(),
              static_cast<unsigned long long>(r.snapshots),
              static_cast<unsigned long long>(r.journal_records),
              static_cast<unsigned long long>(r.journal_bytes),
              r.identical ? "IDENTICAL" : "DIVERGED");
  return r;
}

int run() {
  bench::print_header("recovery_overhead",
                      "snapshot + WAL wall-clock cost (docs/RECOVERY.md)");
  // 12k jobs: the journal's per-event cost only means something relative
  // to realistic per-event scheduler work.
  const Instance inst =
      to_instance(bench::base_workload(bench::scaled(12000)), /*machines=*/8);

  FaultSpec spec;
  spec.mtbf = 400.0;
  spec.mttr = 50.0;
  spec.straggler_prob = 0.1;
  spec.failure_prob = 0.05;
  spec.retry_backoff = 1.0;
  spec.checkpoint.kind = CheckpointPolicy::Kind::kPeriodic;
  spec.checkpoint.interval = 25.0;
  spec.checkpoint.restore_overhead = 2.0;
  const FaultPlan plan = make_fault_plan(spec, inst, util::bench_seed());

  std::vector<ArmResult> results;
  results.push_back(run_arm(
      "mris_wakeups", inst, [] { return std::make_unique<MrisScheduler>(); },
      nullptr, /*snapshot_every=*/0));
  results.push_back(run_arm(
      "pq_every64", inst,
      [] { return std::make_unique<PriorityQueueScheduler>(); }, nullptr,
      /*snapshot_every=*/64));
  results.push_back(run_arm(
      "mris_faulty", inst, [] { return std::make_unique<MrisScheduler>(); },
      &plan, /*snapshot_every=*/0));

  const std::string path = bench::results_json_path("recovery");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 2,\n"
                 "  \"bench\": \"recovery_overhead\",\n"
                 "  \"config\": {\"seed\": %llu, \"reps\": %zu, "
                 "\"scale\": %s},\n"
                 "  %s,\n"
                 "  \"overhead_target_pct\": 10,\n"
                 "  \"workloads\": [\n",
                 static_cast<unsigned long long>(util::bench_seed()),
                 util::bench_reps(),
                 bench::json_num(util::bench_scale()).c_str(),
                 bench::provenance_json().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ArmResult& r = results[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"jobs\": %zu, \"events\": %llu, "
          "\"plain_ms\": %.3f, \"durable_ms\": %.3f, "
          "\"overhead_pct\": %.2f, \"snapshots\": %llu, "
          "\"snapshot_bytes\": %llu, \"journal_records\": %llu, "
          "\"journal_bytes\": %llu, \"identical\": %s}%s\n",
          r.name.c_str(), r.jobs, static_cast<unsigned long long>(r.events),
          r.plain_ms, r.durable_ms, r.overhead_pct(),
          static_cast<unsigned long long>(r.snapshots),
          static_cast<unsigned long long>(r.snapshot_bytes),
          static_cast<unsigned long long>(r.journal_records),
          static_cast<unsigned long long>(r.journal_bytes),
          r.identical ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    std::printf("json summary written to %s\n", path.c_str());
  }

  for (const ArmResult& r : results) {
    if (!r.identical) {
      std::printf("FAIL: %s durable run diverged from the plain run\n",
                  r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main() { return run(); }
