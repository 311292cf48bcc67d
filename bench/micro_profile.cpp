// Calendar micro-benchmark: the flat SoA ResourceProfile rewrite against
// the pre-rewrite implementation (vector-of-vectors segments, restarting
// earliest-fit scan, no coalescing or pruning), embedded below as
// LegacyProfile.
//
// Three workloads cover the hot paths the schedulers exercise:
//   * dense_backfill   — earliest_fit + reserve of N jobs probing from t=0
//                        into an ever-denser calendar (MRIS backfilling);
//   * long_horizon     — monotone arrival-driven probes over a growing
//                        horizon (PQ list scheduling; scan hint + pruning);
//   * fault_churn      — reserve / exact-endpoint release / outage blocks
//                        (the fault engine's requeue path; coalescing).
//
// Both implementations run the identical operation sequence and must
// produce bit-identical placements (checksummed) — the bench FAILS (exit
// code) on any divergence, and reports wall-clock speedups which are
// informational only.  Results go to results/BENCH_profile.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/resource_profile.hpp"
#include "util/rng.hpp"

namespace mris::bench {
namespace {

// --- LegacyProfile: the pre-rewrite implementation, kept verbatim ---------
// (heap-allocated usage row per segment, binary-search restart per
// earliest_fit conflict, no headroom cache / hint / coalescing / pruning).

class LegacyProfile {
 public:
  explicit LegacyProfile(int num_resources) {
    times_.push_back(0.0);
    usage_.emplace_back(static_cast<std::size_t>(num_resources), 0.0);
  }

  bool fits(Time start, Time duration, std::span<const double> demand,
            double tolerance = 1e-9) const {
    if (duration <= 0.0) return true;
    const Time end = start + duration;
    for (std::size_t i = segment_of(start); i < times_.size(); ++i) {
      if (times_[i] >= end) break;
      for (std::size_t l = 0; l < demand.size(); ++l) {
        if (usage_[i][l] + demand[l] > 1.0 + tolerance) return false;
      }
    }
    return true;
  }

  Time earliest_fit(Time not_before, Time duration,
                    std::span<const double> demand,
                    double tolerance = 1e-9) const {
    Time s = std::max(not_before, 0.0);
    if (duration <= 0.0) return s;
    for (;;) {
      const Time end = s + duration;
      Time conflict_next = -1.0;
      for (std::size_t i = segment_of(s); i < times_.size(); ++i) {
        if (times_[i] >= end) break;
        bool violated = false;
        for (std::size_t l = 0; l < demand.size(); ++l) {
          if (usage_[i][l] + demand[l] > 1.0 + tolerance) {
            violated = true;
            break;
          }
        }
        if (violated) {
          conflict_next = (i + 1 < times_.size())
                              ? times_[i + 1]
                              : std::numeric_limits<Time>::infinity();
          break;
        }
      }
      if (conflict_next < 0.0) return s;
      s = conflict_next;
    }
  }

  void reserve(Time start, Time duration, std::span<const double> demand) {
    if (duration <= 0.0) return;
    add(start, start + duration, demand);
  }

  void force_reserve_until(Time start, Time end,
                           std::span<const double> demand) {
    if (!(end > start)) return;
    add(start, end, demand);
  }

  void release_until(Time start, Time end, std::span<const double> demand) {
    if (!(end > start)) return;
    const std::size_t first = ensure_breakpoint(std::max(start, 0.0));
    const std::size_t last = ensure_breakpoint(end);
    for (std::size_t i = first; i < last; ++i) {
      for (std::size_t l = 0; l < demand.size(); ++l) {
        usage_[i][l] -= demand[l];
        if (usage_[i][l] < 0.0 && usage_[i][l] > -1e-12) usage_[i][l] = 0.0;
      }
    }
  }

  double usage_at(Time t, int resource) const {
    return usage_[segment_of(t)][static_cast<std::size_t>(resource)];
  }

  void prune_before(Time /*t*/) {}  // the legacy calendar never compacts

 private:
  std::size_t segment_of(Time t) const {
    const auto it = std::upper_bound(times_.begin(), times_.end(), t);
    if (it == times_.begin()) return 0;
    return static_cast<std::size_t>(it - times_.begin()) - 1;
  }

  std::size_t ensure_breakpoint(Time t) {
    const std::size_t i = segment_of(t);
    if (times_[i] == t) return i;
    times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(i) + 1, t);
    usage_.insert(usage_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  usage_[i]);
    return i + 1;
  }

  void add(Time start, Time end, std::span<const double> demand) {
    const std::size_t first = ensure_breakpoint(std::max(start, 0.0));
    const std::size_t last = ensure_breakpoint(end);
    for (std::size_t i = first; i < last; ++i) {
      for (std::size_t l = 0; l < demand.size(); ++l) {
        usage_[i][l] += demand[l];
      }
    }
  }

  std::vector<Time> times_;
  std::vector<std::vector<double>> usage_;
};

// --- Workloads ------------------------------------------------------------

constexpr int kResources = 4;

struct Op {
  enum class Kind { kBackfill, kTimedReserve, kBlock, kCancel } kind;
  Time a = 0.0;  ///< not_before / start
  Time b = 0.0;  ///< duration (backfill, timed) or end (block/cancel)
  std::vector<double> demand;
};

/// Replays `ops` against a profile; returns a checksum over every computed
/// start and a post-run usage sweep, so two implementations can be compared
/// for bit-identical behavior.  kCancel ops release the reservation made by
/// the op at index `a` using the exact interval it was committed with.
template <typename Profile>
double replay(Profile& profile, const std::vector<Op>& ops,
              bool prune, double* checksum_out) {
  std::vector<std::pair<Time, Time>> committed(ops.size(), {0.0, 0.0});
  double checksum = 0.0;
  int since_prune = 0;
  Time clock = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::Kind::kBackfill:
      case Op::Kind::kTimedReserve: {
        const Time s = profile.earliest_fit(op.a, op.b, op.demand);
        profile.reserve(s, op.b, op.demand);
        committed[i] = {s, s + op.b};
        checksum += s;
        clock = std::max(clock, op.a);
        break;
      }
      case Op::Kind::kBlock:
        profile.force_reserve_until(op.a, op.b, op.demand);
        committed[i] = {op.a, op.b};
        break;
      case Op::Kind::kCancel: {
        const auto& iv = committed[static_cast<std::size_t>(op.a)];
        // Cancel the tail from op.b onward with the exact reserved end.
        const Time from = std::max(iv.first, op.b);
        profile.release_until(from, iv.second, op.demand);
        checksum += from;
        break;
      }
    }
    if (prune && ++since_prune >= 32) {
      since_prune = 0;
      // Lag the committed horizon by more than the workloads' deepest
      // lookback (5 time units), so every later probe lands at or after
      // the bound — where pruning provably preserves all queries.
      profile.prune_before(std::max(0.0, clock - 8.0));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Post-run sweep so mutation-only divergence cannot hide.  Probes start
  // at the final prune bound (for BOTH implementations, so they sample the
  // same instants): below it the pruned timeline is flattened by design
  // and comparison against the unpruned calendar is meaningless.
  const Time sweep_base = std::max(0.0, clock - 8.0);
  for (int probe = 0; probe < 256; ++probe) {
    const Time t = sweep_base + static_cast<double>(probe) * 3.0;
    for (int l = 0; l < kResources; ++l) checksum += profile.usage_at(t, l);
  }
  *checksum_out = checksum;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::vector<double> random_demand(util::Xoshiro256& rng, double lo,
                                  double hi) {
  std::vector<double> d(kResources);
  for (auto& x : d) x = util::uniform(rng, lo, hi);
  return d;
}

/// Dense backfilling: every job probes from t=0 into an ever-denser
/// calendar — the MRIS backfilling access pattern.
std::vector<Op> dense_backfill_ops(std::size_t jobs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    ops.push_back({Op::Kind::kBackfill, 0.0, util::uniform(rng, 0.5, 4.0),
                   random_demand(rng, 0.05, 0.45)});
  }
  return ops;
}

/// Long horizon: monotone not_before (the engine clock) with occasional
/// lookbacks — the PQ list-scheduling access pattern over a long trace.
std::vector<Op> long_horizon_ops(std::size_t jobs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    const Time now = static_cast<double>(i) * 0.75;
    const Time nb = now - (util::uniform01(rng) < 0.1
                               ? util::uniform(rng, 0.0, 5.0)
                               : 0.0);
    ops.push_back({Op::Kind::kTimedReserve, std::max(nb, 0.0),
                   util::uniform(rng, 1.0, 8.0),
                   random_demand(rng, 0.1, 0.5)});
  }
  return ops;
}

/// Fault churn: reservations interleaved with outage blocks and
/// exact-endpoint tail cancels — the fault engine's requeue path.
std::vector<Op> fault_churn_ops(std::size_t jobs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(jobs + jobs / 2);
  for (std::size_t i = 0; i < jobs; ++i) {
    const Time now = static_cast<double>(ops.size()) * 0.5;
    ops.push_back({Op::Kind::kTimedReserve, now, util::uniform(rng, 1.0, 6.0),
                   random_demand(rng, 0.1, 0.4)});
    const std::size_t job_op = ops.size() - 1;
    if (util::uniform01(rng) < 0.25) {
      // Outage block over the near future, full machine.
      const Time down = now + util::uniform(rng, 0.5, 2.0);
      ops.push_back({Op::Kind::kBlock, down,
                     down + util::uniform(rng, 1.0, 10.0),
                     std::vector<double>(kResources, 1.0)});
    }
    if (util::uniform01(rng) < 0.35) {
      // Kill the reservation just made: cancel its tail from a point
      // inside the interval (replayed with the exact committed end).
      ops.push_back({Op::Kind::kCancel, static_cast<double>(job_op),
                     now + util::uniform(rng, 0.1, 1.0),
                     ops[job_op].demand});
    }
  }
  return ops;
}

// --- Driver ---------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  std::size_t ops;
  double legacy_ms;
  double rewrite_ms;
  bool identical;
};

WorkloadResult run_workload(const std::string& name,
                            const std::vector<Op>& ops) {
  LegacyProfile legacy(kResources);
  ResourceProfile rewrite(kResources);
  double legacy_sum = 0.0;
  double rewrite_sum = 0.0;
  WorkloadResult r;
  r.name = name;
  r.ops = ops.size();
  r.legacy_ms = replay(legacy, ops, /*prune=*/false, &legacy_sum);
  r.rewrite_ms = replay(rewrite, ops, /*prune=*/true, &rewrite_sum);
  r.identical = legacy_sum == rewrite_sum;
  std::printf("%-16s ops=%-7zu legacy=%9.2f ms  rewrite=%9.2f ms  "
              "speedup=%6.2fx  placements %s\n",
              name.c_str(), r.ops, r.legacy_ms, r.rewrite_ms,
              r.legacy_ms / r.rewrite_ms,
              r.identical ? "IDENTICAL" : "DIVERGED");
  return r;
}

int run() {
  print_header("micro_profile",
               "ResourceProfile rewrite (flat SoA timeline) hot paths");
  const std::uint64_t seed = util::bench_seed();
  std::vector<WorkloadResult> results;
  results.push_back(
      run_workload("dense_backfill", dense_backfill_ops(scaled(10000), seed)));
  results.push_back(
      run_workload("long_horizon", long_horizon_ops(scaled(20000), seed + 1)));
  results.push_back(
      run_workload("fault_churn", fault_churn_ops(scaled(12000), seed + 2)));

  const std::string path = results_json_path("profile");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 2,\n"
                 "  \"bench\": \"micro_profile\",\n"
                 "  \"config\": {\"seed\": %llu, \"scale\": %s},\n"
                 "  %s,\n"
                 "  \"workloads\": [\n",
                 static_cast<unsigned long long>(seed),
                 json_num(util::bench_scale()).c_str(),
                 provenance_json().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops\": %zu, "
                   "\"legacy_ms\": %.3f, \"rewrite_ms\": %.3f, "
                   "\"speedup\": %.2f, \"identical\": %s}%s\n",
                   r.name.c_str(), r.ops, r.legacy_ms, r.rewrite_ms,
                   r.legacy_ms / r.rewrite_ms, r.identical ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    std::printf("json summary written to %s\n", path.c_str());
  }

  for (const WorkloadResult& r : results) {
    if (!r.identical) {
      std::printf("FAIL: %s diverged from the legacy implementation\n",
                  r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mris::bench

int main() { return mris::bench::run(); }
