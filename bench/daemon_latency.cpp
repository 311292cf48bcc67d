// Daemon decision-latency bench (docs/DAEMON.md): sustained decisions/sec
// and tail decision latency of serve_stream() under Poisson overload —
// arrivals drawn as a Poisson process whose rate exceeds the cluster's
// service capacity by MRIS_OVERLOAD (default 2x), so the pending backlog
// grows for the whole run and every admission pays the worst-case
// bookkeeping cost.
//
// Arms: MRIS plain, MRIS again with full durability (write-ahead
// admission journal + engine snapshots, fsync per admission), and PQ-WSJF
// as the cheap-decision baseline.  Each arm runs MRIS_REPS times; decisions/sec is the best rep,
// latency percentiles come from that rep's per-admission samples.
//
// Every row is cross-checked against a batch run_online() of the identical
// workload: the streaming placement checksum must match the batch checksum
// byte-for-byte, and any divergence fails the bench (exit 1) — this is the
// CI soak job's correctness gate.  MRIS_SOAK_MAX_P99_US, when set, further
// gates the mris rows' p99 (exit 1 on regression past the bound).
//
// Results go to results/BENCH_daemon.json.  Like BENCH_recovery.json it
// carries wall-clock timings, so it is EXCLUDED from the determinism CI
// byte-diff; checksums and job counts are seed-deterministic regardless.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/schedulers.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

using namespace mris;

namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

/// Rewrites releases as a Poisson arrival process at `overload` times the
/// cluster's service capacity: with total work volume V on M machines, the
/// busy horizon is V / M, arrivals land in V / (M * overload) — the queue
/// grows for the entire stream.  Jobs end up in canonical streamed form
/// (release order, ids = seq).
Instance poisson_overload(const Instance& inst, double overload,
                          std::uint64_t seed) {
  std::vector<Job> jobs = inst.jobs();
  double volume = 0.0;
  for (const Job& j : jobs) volume += j.volume();
  const double horizon =
      volume / (static_cast<double>(inst.num_machines()) * overload);
  const double mean_gap = horizon / static_cast<double>(jobs.size());
  util::Xoshiro256 rng(seed ^ 0x706f6973736f6eULL);  // "poisson"
  double t = 0.0;
  for (Job& j : jobs) {
    t += -mean_gap * std::log1p(-util::uniform01(rng));  // Exp(mean_gap)
    j.release = t;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return Instance(std::move(jobs), inst.num_machines(), inst.num_resources());
}

struct ArmResult {
  std::string name;
  std::string scheduler;
  bool durable = false;
  std::size_t jobs = 0;
  double decisions_per_sec = 0.0;
  serve::LatencySummary latency;  // from the best (fastest) rep
  std::uint64_t streaming_checksum = 0;
  std::uint64_t batch_checksum = 0;
  bool identical = false;
};

std::uint64_t batch_checksum(const Instance& inst,
                             const exp::SchedulerSpec& spec) {
  serve::PlacementChecksum checksum;
  RunOptions opts;
  opts.on_record = [&checksum](const EventRecord& rec) {
    if (rec.kind == EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
  };
  const std::unique_ptr<OnlineScheduler> s = exp::make_scheduler(spec, inst);
  run_online(inst, *s, opts);
  return checksum.value();
}

std::string state_root() {
  if (const char* dir = std::getenv("MRIS_BENCH_STATE_DIR")) return dir;
  std::error_code ec;
  if (std::filesystem::is_directory("/dev/shm", ec)) return "/dev/shm";
  return std::filesystem::temp_directory_path().string();
}

ArmResult run_arm(const std::string& name, const Instance& inst,
                  const std::string& scheduler, bool durable) {
  ArmResult r;
  r.name = name;
  r.scheduler = scheduler;
  r.durable = durable;
  r.jobs = inst.num_jobs();

  const exp::SchedulerSpec spec = exp::parse_scheduler_spec(scheduler);
  r.batch_checksum = batch_checksum(inst, spec);

  const std::string bytes = serve::encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  const std::string dir =
      (std::filesystem::path(state_root()) / ("mris_bench_daemon_" + name))
          .string();

  r.identical = true;
  for (std::size_t rep = 0; rep < util::bench_reps(); ++rep) {
    if (durable) {
      std::filesystem::remove_all(dir);  // fresh run, not resume
    }
    serve::ServeOptions opts;
    opts.num_machines = inst.num_machines();
    opts.num_resources = inst.num_resources();
    opts.make_scheduler = [&spec, &inst] {
      return exp::make_scheduler(spec, inst);
    };
    if (durable) opts.state_dir = dir;
    std::istringstream in(bytes);
    const auto t0 = std::chrono::steady_clock::now();
    const serve::ServeResult res = serve::serve_stream(in, opts);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double dps =
        secs > 0.0 ? static_cast<double>(res.jobs) / secs : 0.0;
    if (dps > r.decisions_per_sec) {
      r.decisions_per_sec = dps;
      r.latency = res.latency;
    }
    r.streaming_checksum = res.placement_checksum;
    if (res.placement_checksum != r.batch_checksum) r.identical = false;
  }
  if (durable) std::filesystem::remove_all(dir);

  std::printf("%-16s %-9s %-7s %8.0f dec/s  p50=%7.1fus p99=%8.1fus "
              "max=%9.1fus  checksum %s\n",
              r.name.c_str(), r.scheduler.c_str(),
              r.durable ? "durable" : "plain", r.decisions_per_sec,
              r.latency.p50_us, r.latency.p99_us, r.latency.max_us,
              r.identical ? "IDENTICAL" : "DIVERGED");
  return r;
}

int run() {
  bench::print_header("daemon_latency",
                      "serve_stream decision latency (docs/DAEMON.md)");
  const double overload = env_double("MRIS_OVERLOAD", 2.0);
  const Instance inst = poisson_overload(
      to_instance(bench::base_workload(bench::scaled(6000)), /*machines=*/8),
      overload, util::bench_seed());
  std::printf("jobs=%zu machines=%d overload=%.1fx\n\n", inst.num_jobs(),
              inst.num_machines(), overload);

  std::vector<ArmResult> results;
  results.push_back(run_arm("mris_plain", inst, "mris", false));
  results.push_back(run_arm("mris_durable", inst, "mris", true));
  results.push_back(run_arm("pq_wsjf_plain", inst, "pq-wsjf", false));

  const std::string path = bench::results_json_path("daemon");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 2,\n"
                 "  \"bench\": \"daemon_latency\",\n"
                 "  \"config\": {\"seed\": %llu, \"reps\": %zu, "
                 "\"scale\": %s, \"overload\": %s},\n"
                 "  %s,\n"
                 "  \"arms\": [\n",
                 static_cast<unsigned long long>(util::bench_seed()),
                 util::bench_reps(),
                 bench::json_num(util::bench_scale()).c_str(),
                 bench::json_num(overload).c_str(),
                 bench::provenance_json().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ArmResult& r = results[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"scheduler\": \"%s\", \"durable\": %s, "
          "\"jobs\": %zu, \"decisions_per_sec\": %.0f, "
          "\"mean_us\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
          "\"max_us\": %.2f, \"streaming_checksum\": \"%016llx\", "
          "\"batch_checksum\": \"%016llx\", \"identical\": %s}%s\n",
          r.name.c_str(), r.scheduler.c_str(), r.durable ? "true" : "false",
          r.jobs, r.decisions_per_sec, r.latency.mean_us, r.latency.p50_us,
          r.latency.p99_us, r.latency.max_us,
          static_cast<unsigned long long>(r.streaming_checksum),
          static_cast<unsigned long long>(r.batch_checksum),
          r.identical ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    std::printf("\njson summary written to %s\n", path.c_str());
  }

  int rc = 0;
  for (const ArmResult& r : results) {
    if (!r.identical) {
      std::fprintf(stderr,
                   "FAIL: %s streaming checksum diverged from batch\n",
                   r.name.c_str());
      rc = 1;
    }
  }
  const double p99_bound = env_double("MRIS_SOAK_MAX_P99_US", 0.0);
  if (p99_bound > 0.0) {
    for (const ArmResult& r : results) {
      if (r.scheduler != "pq-wsjf" && r.latency.p99_us > p99_bound) {
        std::fprintf(stderr, "FAIL: %s p99 %.1fus exceeds bound %.1fus\n",
                     r.name.c_str(), r.latency.p99_us, p99_bound);
        rc = 1;
      }
    }
  }
  return rc;
}

}  // namespace

int main() { return run(); }
