// Engine-scale benchmark: the event engine on a million-job epoch-batched
// trace — the workload shape the MRIS algorithm actually produces
// (arrivals stream in continuously, placements happen in gamma_k wakeup
// batches against a deep pending backlog).
//
// Two engine data structures carry this shape:
//   * arrivals live in a release-sorted flat array behind a cursor
//     instead of churning a binary heap with 10^6 entries;
//   * a commit clears a flag instead of erasing from the pending list, so
//     a sweep over a multi-thousand-job backlog costs O(P) once, not
//     O(P) per placement.
//
// Each trace runs twice: as a batch (run_online) and streamed through
// StreamEngine one admission at a time, the daemon's drive pattern.  The
// streamed placements must be byte-identical (checksummed) to the batch
// ones — the bench FAILS (exit code) on any divergence.  Wall-clock
// numbers are informational; CI never asserts on them.
// Results go to results/BENCH_engine_scale.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/mris.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace mris::bench {
namespace {

/// Wakeup-driven epoch scheduler: every Delta time units it sweeps the
/// pending backlog and places each job on machine (id mod M) at that
/// machine's earliest fit — the engine-stress analogue of MRIS's gamma_k
/// batching with the knapsack replaced by a constant-time rule, so the
/// bench measures the ENGINE, not the placement policy.
class EpochGreedy : public OnlineScheduler {
 public:
  explicit EpochGreedy(Time delta) : delta_(delta) {}
  std::string name() const override { return "epoch-greedy"; }

  void on_start(EngineContext& ctx) override {
    ctx.schedule_wakeup(ctx.now() + delta_);
    armed_ = true;
  }

  void on_arrival(EngineContext& ctx, JobId) override {
    if (!armed_) {
      ctx.schedule_wakeup(ctx.now() + delta_);
      armed_ = true;
    }
  }

  void on_wakeup(EngineContext& ctx) override {
    batch_.assign(ctx.pending().begin(), ctx.pending().end());
    const int machines = ctx.num_machines();
    for (const JobId id : batch_) {
      const MachineId m = static_cast<MachineId>(id % machines);
      const Time s = ctx.earliest_fit_on(id, m, ctx.earliest_start(id));
      ctx.try_commit(id, m, s);
    }
    if (!ctx.pending().empty()) {
      ctx.schedule_wakeup(ctx.now() + delta_);
    } else {
      armed_ = false;
    }
  }

 private:
  Time delta_;
  bool armed_ = false;
  std::vector<JobId> batch_;
};

/// Epoch-batched stream: `jobs` short tasks arriving over `span` time
/// units on `machines` machines — high arrival rate, so thousands of jobs
/// queue up between consecutive wakeups.
Instance stream_instance(std::size_t jobs, int machines, Time span,
                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  InstanceBuilder b(machines, 2);
  Time release = 0.0;
  const Time mean_gap = span / static_cast<double>(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    release += util::uniform(rng, 0.0, 2.0 * mean_gap);
    b.add(release, util::uniform(rng, 0.02, 0.17),
          util::uniform(rng, 0.5, 4.0),
          {util::uniform(rng, 0.1, 0.5), util::uniform(rng, 0.1, 0.5)});
  }
  return b.build();
}

/// FNV-1a over every placement — byte-identical schedules, equal checksum.
std::uint64_t schedule_checksum(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < s.num_jobs(); ++i) {
    const Assignment& a = s.assignment(static_cast<JobId>(i));
    mix(static_cast<std::uint64_t>(a.machine));
    double start = a.start;
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof start);
    __builtin_memcpy(&bits, &start, sizeof bits);
    mix(bits);
  }
  return h;
}

struct Row {
  std::string name;
  std::string mode;
  std::size_t jobs = 0;
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  std::uint64_t checksum = 0;
  bool identical = true;
};

template <class Run>
Row time_row(const std::string& name, const std::string& mode,
             std::size_t jobs, Run&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run();
  const auto t1 = std::chrono::steady_clock::now();
  Row row;
  row.name = name;
  row.mode = mode;
  row.jobs = jobs;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.jobs_per_sec = static_cast<double>(jobs) / (row.wall_ms / 1000.0);
  row.checksum = schedule_checksum(r.schedule);
  return row;
}

/// Runs `inst` as a batch and as an admission stream, each with a fresh
/// scheduler from `make`, and appends both rows; the streamed row is
/// identical iff its checksum equals the batch row's.  The instance's ids
/// are already in release order, which is the order the stream admits.
template <class Make>
void run_pair(const std::string& name, const Instance& inst, Make&& make,
              std::vector<Row>& rows) {
  auto batch_sched = make();
  const Row batch = time_row(name, "batch", inst.num_jobs(), [&] {
    return run_online(inst, batch_sched);
  });
  auto stream_sched = make();
  const auto stream = [&] {
    Instance grow(std::vector<Job>{}, inst.num_machines(),
                  inst.num_resources());
    StreamEngine engine(grow, stream_sched);
    engine.start();
    for (const Job& j : inst.jobs()) {
      engine.run_until_release(j.release);
      engine.admit(j);
    }
    return engine.finish();
  };
  Row streamed =
      time_row(name + "-streamed", "streamed", inst.num_jobs(), stream);
  streamed.identical = streamed.checksum == batch.checksum;
  for (const Row& row : {batch, streamed}) {
    std::printf("%-21s jobs=%-8zu %9.1f ms  %10.0f jobs/s  checksum=%016llx"
                "  %s\n",
                row.name.c_str(), row.jobs, row.wall_ms, row.jobs_per_sec,
                static_cast<unsigned long long>(row.checksum),
                row.identical ? "IDENTICAL" : "DIVERGED");
    rows.push_back(row);
  }
}

int run() {
  print_header("engine_scale",
               "event engine on a 1M-job stream, batch vs streamed");

  std::vector<Row> rows;

  // --- main trajectory: epoch-batched million-job stream ------------------
  // Delta matches the gamma_k spacing of Algorithm 1 at this time scale
  // (epochs double geometrically, so mature epochs are tens of time units
  // wide): ~2000 jobs/time-unit x Delta = a 32k-job backlog per wakeup,
  // where an O(P) pending erase per commit would turn quadratic.
  constexpr Time kDelta = 16.0;
  const std::size_t jobs = scaled(1000000);
  const Instance inst =
      stream_instance(jobs, /*machines=*/64, /*span=*/500.0,
                      util::bench_seed() ^ 0xe5ca1eull);
  std::printf("stream workload: %zu jobs / 64 machines / R=2\n",
              inst.num_jobs());
  run_pair("epoch-greedy", inst, [] { return EpochGreedy(kDelta); }, rows);

  // --- MRIS rows: the paper's scheduler on a smaller trace ----------------
  const Instance mris_inst = stream_instance(
      scaled(20000), /*machines=*/16, /*span=*/200.0,
      util::bench_seed() ^ 0x3715ull);
  run_pair("mris", mris_inst, [] { return MrisScheduler(); }, rows);

  const std::string path = results_json_path("engine_scale");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 2,\n"
                 "  \"bench\": \"engine_scale\",\n"
                 "  \"config\": {\"seed\": %llu, \"scale\": %s},\n"
                 "  %s,\n"
                 "  \"workloads\": [\n",
                 static_cast<unsigned long long>(util::bench_seed()),
                 json_num(util::bench_scale()).c_str(),
                 provenance_json().c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"mode\": \"%s\", \"jobs\": %zu, "
          "\"wall_ms\": %.1f, \"jobs_per_sec\": %.0f, "
          "\"checksum\": \"%016llx\", \"identical\": %s}%s\n",
          r.name.c_str(), r.mode.c_str(), r.jobs, r.wall_ms, r.jobs_per_sec,
          static_cast<unsigned long long>(r.checksum),
          r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    std::printf("json summary written to %s\n", path.c_str());
  }

  for (const Row& r : rows) {
    if (!r.identical) {
      std::printf("FAIL: %s diverged from its batch run\n", r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mris::bench

int main() { return mris::bench::run(); }
