// The PRIORITY-QUEUE scan against a straightforward reference.
//
// PriorityQueueScheduler buckets queued jobs by exact demand row, caches
// each job's heuristic key, and drops a whole class from a scan once its
// row fits on no up machine.  ReferencePq below is the scan without any of
// that: keys recomputed per comparison, linear membership search, every
// queued job probed against every machine.  The two must agree byte for
// byte (schedule, attempts, record stream, saved state) on every class
// shape: unique rows, a few rows, one row holding hundreds of jobs.  The
// production scan's context reads per engine event must not grow with the
// backlog, and its class table must follow the live backlog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "sched/capq.hpp"
#include "sched/pq.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/faults/crash.hpp"
#include "sim/recovery/state_io.hpp"
#include "testkit/generators.hpp"
#include "trace/generator.hpp"
#include "trace/sampling.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

using faults::first_difference;

/// The plain PQ scan, kept only as an oracle.  With `collect_until` set it
/// is CA-PQ: it collects silently until that time, then scans like PQ.
class ReferencePq : public OnlineScheduler {
 public:
  explicit ReferencePq(Heuristic h,
                       std::optional<Time> collect_until = std::nullopt)
      : heuristic_(h), collect_until_(collect_until) {}

  std::string name() const override { return "reference-PQ"; }

  void on_start(EngineContext& ctx) override {
    if (collect_until_) ctx.schedule_wakeup(*collect_until_);
  }
  void on_arrival(EngineContext& ctx, JobId job) override {
    enqueue(ctx, job);
    if (active(ctx)) scan(ctx);
  }
  void on_completion(EngineContext& ctx, JobId, MachineId) override {
    if (active(ctx)) scan(ctx);
  }
  void on_wakeup(EngineContext& ctx) override {
    if (active(ctx)) scan(ctx);
  }
  void on_machine_up(EngineContext& ctx, MachineId) override {
    if (active(ctx)) scan(ctx);
  }
  void save_state(recovery::StateWriter& w) const override {
    w.vec_i32(queue_);
  }
  void restore_state(recovery::StateReader& r) override {
    queue_ = r.vec_i32();
  }

 private:
  bool active(const EngineContext& ctx) const {
    return !collect_until_ || ctx.now() >= *collect_until_;
  }

  void enqueue(EngineContext& ctx, JobId job) {
    if (std::find(queue_.begin(), queue_.end(), job) != queue_.end()) return;
    const double key = heuristic_key(heuristic_, ctx.job(job));
    const auto pos = std::lower_bound(
        queue_.begin(), queue_.end(), job, [&](JobId a, JobId b) {
          const double ka = heuristic_key(heuristic_, ctx.job(a));
          const double kb =
              (b == job) ? key : heuristic_key(heuristic_, ctx.job(b));
          if (ka != kb) return ka < kb;
          return a < b;
        });
    queue_.insert(pos, job);
  }

  void scan(EngineContext& ctx) {
    const Time now = ctx.now();
    const int M = ctx.num_machines();
    std::vector<std::vector<double>> available(static_cast<std::size_t>(M));
    for (MachineId m = 0; m < M; ++m) {
      auto& a = available[static_cast<std::size_t>(m)];
      a.resize(static_cast<std::size_t>(ctx.num_resources()));
      ctx.cluster().available_into(m, now, a);
    }
    std::size_t write = 0;
    for (std::size_t read = 0; read < queue_.size(); ++read) {
      const JobId id = queue_[read];
      const Job& job = ctx.job(id);
      bool committed = false;
      if (ctx.earliest_start(id) <= now) {
        for (MachineId m = 0; m < M; ++m) {
          if (!ctx.machine_up(m)) continue;
          auto& avail = available[static_cast<std::size_t>(m)];
          if (!fits_available(avail, job.demand)) continue;
          if (!ctx.can_start(id, m, now)) continue;
          if (!ctx.try_commit(id, m, now)) continue;
          for (std::size_t l = 0; l < avail.size(); ++l) {
            avail[l] = std::max(0.0, avail[l] - job.demand[l]);
          }
          committed = true;
          break;
        }
      }
      if (!committed) queue_[write++] = id;
    }
    queue_.resize(write);
  }

  Heuristic heuristic_;
  std::optional<Time> collect_until_;
  std::vector<JobId> queue_;
};

faults::RecordedRun run(const Instance& inst, OnlineScheduler& s,
                        const FaultPlan* plan) {
  RunOptions opts;
  opts.faults = plan;
  return faults::run_recorded(inst, s, opts);
}

Time last_release(const Instance& inst) {
  Time t = 0.0;
  for (const Job& j : inst.jobs()) t = std::max(t, j.release);
  return t;
}

/// Fault-free, outages only, outages + stragglers + injected failures with
/// retry backoff, and the same under periodic checkpointing.
std::vector<std::optional<FaultPlan>> fault_plans(const Instance& inst,
                                                  double time_scale,
                                                  std::uint64_t seed) {
  std::vector<std::optional<FaultPlan>> plans{std::nullopt};
  FaultSpec spec;
  spec.mtbf = 40.0 * time_scale;
  spec.mttr = 5.0 * time_scale;
  spec.min_outage = 1e-3 * time_scale;
  plans.push_back(make_fault_plan(spec, inst, seed));
  spec.straggler_prob = 0.1;
  spec.failure_prob = 0.1;
  spec.retry_backoff = 2.0 * time_scale;
  plans.push_back(make_fault_plan(spec, inst, seed));
  spec.checkpoint =
      CheckpointPolicy::Periodic(2.0 * time_scale, 0.25 * time_scale);
  plans.push_back(make_fault_plan(spec, inst, seed));
  return plans;
}

/// Every heuristic plus CA-PQ, under every fault plan.
void expect_matches_reference(const Instance& inst, double time_scale,
                              std::uint64_t seed, const std::string& what) {
  for (const auto& plan : fault_plans(inst, time_scale, seed)) {
    const FaultPlan* p = plan ? &*plan : nullptr;
    const std::string where =
        what + (p ? " faults(" + std::to_string(p->outages.size()) +
                        " outages, backoff " +
                        std::to_string(p->retry_backoff) +
                        (p->checkpoint.enabled() ? ", checkpoints)" : ")")
                  : " fault-free");
    for (Heuristic h : all_heuristics()) {
      ReferencePq ref(h);
      PriorityQueueScheduler pq(h);
      EXPECT_EQ("", first_difference(run(inst, ref, p), run(inst, pq, p)))
          << where << " PQ-" << heuristic_name(h);
    }
    const Time t = last_release(inst);
    ReferencePq ref(Heuristic::kWsjf, t);
    CollectAllPqScheduler capq(t, Heuristic::kWsjf);
    EXPECT_EQ("", first_difference(run(inst, ref, p), run(inst, capq, p)))
        << where << " CA-PQ";
  }
}

/// The Azure-like trace; with `resources` > 0 it is augmented to that many
/// resources (Sec 7.5.3), which makes nearly every demand row unique.
Instance azure_like(std::size_t jobs, int machines, std::uint64_t seed,
                    std::size_t resources = 0) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  trace::Workload w = trace::merge_storage(trace::generate_azure_like(cfg));
  if (resources > 0) {
    util::Xoshiro256 rng(seed);
    w = trace::augment_resources(w, resources, trace::kCpu, rng);
  }
  return trace::to_instance(w, machines);
}

/// `jobs` jobs drawn over `rows` distinct demand rows (R = 3), released in
/// bursts of 50 so that every class queues many jobs at once.
Instance few_rows(std::size_t jobs, std::size_t rows, int machines,
                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> catalog(rows);
  for (auto& row : catalog) {
    for (int l = 0; l < 3; ++l) row.push_back(util::uniform(rng, 0.1, 0.6));
  }
  InstanceBuilder b(machines, 3);
  for (std::size_t i = 0; i < jobs; ++i) {
    b.add(20.0 * static_cast<double>(i / 50), util::uniform(rng, 1.0, 10.0),
          static_cast<double>(util::uniform_int(rng, 1, 3)),
          catalog[util::uniform_index(rng, rows)]);
  }
  return b.build();
}

std::size_t distinct_rows(const Instance& inst) {
  std::set<std::vector<double>> rows;
  for (const Job& j : inst.jobs()) rows.insert(j.demand);
  return rows.size();
}

TEST(PqScanTest, MatchesReferenceOnEveryTestkitFamily) {
  for (testkit::Family family : testkit::all_families()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      testkit::GenConfig cfg;
      cfg.num_jobs = 64;
      const Instance inst = testkit::make_family_instance(family, cfg, seed);
      expect_matches_reference(inst, 1.0, seed,
                               std::string(testkit::family_name(family)) +
                                   " seed " + std::to_string(seed));
    }
  }
}

TEST(PqScanTest, MatchesReferenceOnAnAzureLikeBacklog) {
  // Minimum p_j is 1 time unit (30 s): the fault scale keeps outages at
  // hours, like the fault_degradation bench.
  const Instance inst = azure_like(1500, 20, 11);
  expect_matches_reference(inst, 50.0, 5, "azure-like");
}

TEST(PqScanTest, MatchesReferenceWhenEveryRowIsUnique) {
  // Every class holds one job, so the head order is the flat queue and
  // nothing is ever revisited within a scan.
  const Instance inst = azure_like(800, 4, 12, 20);
  ASSERT_GE(distinct_rows(inst), inst.num_jobs() * 9 / 10);
  expect_matches_reference(inst, 50.0, 6, "augmented to R = 20");
}

TEST(PqScanTest, MatchesReferenceWhenClassesHoldManyJobs) {
  // One row: a single class of hundreds of jobs, scanned with machine rows
  // read on first use and no prefilter.  Three rows: the merge interleaves
  // classes and revisits a class after each start.
  for (std::size_t rows : {1u, 3u}) {
    const Instance inst = few_rows(600, rows, 4, 20 + rows);
    ASSERT_EQ(distinct_rows(inst), rows);
    expect_matches_reference(inst, 1.0, 9, std::to_string(rows) + " rows");
  }
}

TEST(PqScanTest, StreamedRunMatchesBatchReference) {
  // StreamEngine appends jobs one admission at a time, so the membership
  // bitmap grows during the run.
  for (testkit::Family family :
       {testkit::Family::kMixed, testkit::Family::kKnapsackTies,
        testkit::Family::kNearCapacity, testkit::Family::kUlpBoundary}) {
    testkit::GenConfig cfg;
    cfg.num_jobs = 96;
    const Instance raw = testkit::make_family_instance(family, cfg, 7);
    std::vector<Job> ordered = raw.jobs();
    std::stable_sort(
        ordered.begin(), ordered.end(),
        [](const Job& a, const Job& b) { return a.release < b.release; });
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      ordered[i].id = static_cast<JobId>(i);
    }
    const Instance inst(ordered, raw.num_machines(), raw.num_resources());
    for (auto& plan : fault_plans(inst, 1.0, 7)) {
      if (plan) plan->stretch.clear();  // a stream has no per-job table
      const FaultPlan* p = plan ? &*plan : nullptr;
      ReferencePq ref(Heuristic::kWsjf);
      const faults::RecordedRun batch = run(inst, ref, p);

      faults::RecordedRun stream;
      RunOptions opts;
      opts.faults = p;
      opts.on_record = [&](const EventRecord& e) {
        stream.records.push_back(e);
      };
      Instance grow(std::vector<Job>{}, inst.num_machines(),
                    inst.num_resources());
      PriorityQueueScheduler pq(Heuristic::kWsjf);
      StreamEngine engine(grow, pq, opts);
      engine.start();
      for (const Job& j : ordered) {
        engine.run_until_release(j.release);
        engine.admit(j);
      }
      stream.result = engine.finish();
      EXPECT_EQ("", first_difference(batch, stream))
          << testkit::family_name(family) << (p ? " with faults" : "");
    }
  }
}

// ---- one scheduler object, several runs ----------------------------------

/// Runs `second` on a scheduler that has already run `first`, and on a
/// fresh one; the two second runs must agree byte for byte.
template <typename Pq>
void expect_reuse_matches_fresh(const Pq& fresh, const Instance& first,
                                const FaultPlan* first_plan,
                                const Instance& second,
                                const FaultPlan* second_plan,
                                const std::string& what) {
  Pq reused = fresh;
  run(first, reused, first_plan);
  Pq unused = fresh;
  EXPECT_EQ("", first_difference(run(second, unused, second_plan),
                                 run(second, reused, second_plan)))
      << what;
}

TEST(PqScanTest, ReusedSchedulerMatchesAFreshOneOnAnotherInstance) {
  // Machine rows are cached under timeline versions, which count the
  // changes of one cluster object only; a new run must not read a row
  // cached in the last one.
  const Instance a = azure_like(800, 4, 12);
  const Instance b = azure_like(800, 4, 13, 20);
  for (const auto& plan : fault_plans(b, 50.0, 3)) {
    const FaultPlan* p = plan ? &*plan : nullptr;
    const std::string where = p ? " with faults" : " fault-free";
    expect_reuse_matches_fresh(PriorityQueueScheduler(Heuristic::kWsjf), a,
                               nullptr, b, p, "PQ" + where);
    expect_reuse_matches_fresh(PriorityQueueScheduler(Heuristic::kWsjf), b, p,
                               a, nullptr, "PQ, runs swapped" + where);
    const Time t = last_release(b);
    expect_reuse_matches_fresh(CollectAllPqScheduler(t, Heuristic::kWsjf), b,
                               p, b, p, "CA-PQ" + where);
  }
}

TEST(PqScanTest, ReusedSchedulerDoesNotMatchAVersionFromTheLastRun) {
  // The first run ends with machine 0's row cached at version 1 (one
  // commit) over [1, 100), with 0.4 free.  In the second run an outage
  // takes machine 0 to version 1 without a scan reading it, and at t = 2,
  // inside that range, machine 0 is free: the job must start there.
  InstanceBuilder first(2, 1);
  first.add(0.0, 100.0, 1.0, {0.6});
  first.add(1.0, 10.0, 1.0, {0.6});
  InstanceBuilder second(2, 1);
  second.add(2.0, 1.0, 1.0, {0.6});
  const Instance a = first.build();
  const Instance b = second.build();
  FaultPlan outage;
  outage.outages.push_back({0, 0.5, 1.5});

  PriorityQueueScheduler fresh(Heuristic::kWsjf);
  const RunResult expected = run(b, fresh, &outage).result;
  ASSERT_EQ(expected.schedule.assignment(0).machine, 0);
  expect_reuse_matches_fresh(PriorityQueueScheduler(Heuristic::kWsjf), a,
                             nullptr, b, &outage, "PQ");
  expect_reuse_matches_fresh(CollectAllPqScheduler(0.0, Heuristic::kWsjf), a,
                             nullptr, b, &outage, "CA-PQ");
}

// ---- scan cost --------------------------------------------------------

/// Forwards to the engine's context, counting the cheap reads a scheduler
/// makes (the set perfbench's traced run reports as sched.ctx_reads).
/// With `gate` > 0, until `gate` after its release, every third job is
/// retry-gated (earliest_start() reports it, try_commit() enforces it) and
/// every job after one of those is refused by can_start() on every
/// machine, as a reservation ahead would refuse a long job whatever its
/// row.  `gated` counts the gated answers, `refused` the refusals.  With
/// `flap` > 0, machine floor(now / flap) mod M reports itself down while
/// its timeline stays as it is.
class CountingContext : public EngineContext {
 public:
  CountingContext(EngineContext& inner, std::uint64_t& reads, Time gate,
                  std::uint64_t& gated, std::uint64_t& refused,
                  Time flap = 0.0)
      : inner_(inner),
        reads_(reads),
        gate_(gate),
        gated_(gated),
        refused_(refused),
        flap_(flap) {}

  /// The end of `id`'s own gate or refusal window (0 when it has none).
  Time own_gate(JobId id) const {
    if (gate_ <= 0.0 || id % 3 == 2) return 0.0;
    return inner_.job(id).release + gate_;
  }

  Time now() const override { return inner_.now(); }
  int num_machines() const override { return inner_.num_machines(); }
  int num_resources() const override { return inner_.num_resources(); }
  std::size_t num_jobs() const override { return inner_.num_jobs(); }
  const Job& job(JobId id) const override {
    ++reads_;
    return inner_.job(id);
  }
  const std::vector<JobId>& pending() const override {
    ++reads_;
    return inner_.pending();
  }
  const Cluster& cluster() const override {
    ++reads_;
    return inner_.cluster();
  }
  bool can_start(JobId id, MachineId m, Time start) const override {
    if (id % 3 == 1 && start < own_gate(id)) {
      ++refused_;
      return false;
    }
    return inner_.can_start(id, m, start);
  }
  Time earliest_fit_on(JobId id, MachineId m, Time t) const override {
    return inner_.earliest_fit_on(id, m, t);
  }
  Time earliest_fit(JobId id, Time t, MachineId& best) const override {
    return inner_.earliest_fit(id, t, best);
  }
  void commit(JobId id, MachineId m, Time start) override {
    inner_.commit(id, m, start);
  }
  bool try_commit(JobId id, MachineId m, Time start) override {
    if (id % 3 != 2 && start < own_gate(id)) return false;
    return inner_.try_commit(id, m, start);
  }
  void schedule_wakeup(Time t) override { inner_.schedule_wakeup(t); }
  int retry_count(JobId id) const override {
    ++reads_;
    return inner_.retry_count(id);
  }
  Time earliest_start(JobId id) const override {
    ++reads_;
    Time t = inner_.earliest_start(id);
    if (id % 3 == 0) t = std::max(t, own_gate(id));
    if (t > inner_.now()) ++gated_;
    return t;
  }
  bool machine_up(MachineId m) const override {
    ++reads_;
    if (flap_ > 0.0 &&
        static_cast<long long>(inner_.now() / flap_) % num_machines() == m) {
      return false;
    }
    return inner_.machine_up(m);
  }
  Time checkpointed_progress(JobId id) const override {
    ++reads_;
    return inner_.checkpointed_progress(id);
  }

 private:
  EngineContext& inner_;
  std::uint64_t& reads_;
  Time gate_;
  std::uint64_t& gated_;
  std::uint64_t& refused_;
  Time flap_;
};

/// Hands `inner` a CountingContext and tracks the pending high-water mark.
/// With `gate` > 0 a job with a gate or refusal window of its own is
/// announced again when it ends, as the engine's kRetryReady does.  The
/// engine hands a scheduler a gated job only once its gate has passed, and
/// in a PQ run every fitting job also passes can_start(), so this is how a
/// test puts such jobs in a queue.
class CountingScheduler : public OnlineScheduler {
 public:
  explicit CountingScheduler(OnlineScheduler& inner, Time gate = 0.0)
      : inner_(inner), gate_(gate) {}

  std::string name() const override { return inner_.name(); }
  void on_start(EngineContext& ctx) override {
    CountingContext c = wrap(ctx);
    inner_.on_start(c);
  }
  void on_arrival(EngineContext& ctx, JobId job) override {
    CountingContext c = wrap(ctx);
    const Time gate = c.own_gate(job);
    if (gate > ctx.now()) {
      ctx.schedule_wakeup(gate);
      gates_.emplace_back(gate, job);
    }
    inner_.on_arrival(c, job);
  }
  void on_completion(EngineContext& ctx, JobId job, MachineId m) override {
    CountingContext c = wrap(ctx);
    inner_.on_completion(c, job, m);
  }
  void on_wakeup(EngineContext& ctx) override {
    CountingContext c = wrap(ctx);
    inner_.on_wakeup(c);
    for (std::size_t i = 0; i < gates_.size();) {
      const auto [gate, job] = gates_[i];
      if (gate > ctx.now()) {
        ++i;
        continue;
      }
      gates_.erase(gates_.begin() + static_cast<std::ptrdiff_t>(i));
      const auto& pending = ctx.pending();
      if (std::find(pending.begin(), pending.end(), job) != pending.end()) {
        inner_.on_arrival(c, job);
      }
    }
  }
  void on_machine_down(EngineContext& ctx, MachineId m) override {
    CountingContext c = wrap(ctx);
    inner_.on_machine_down(c, m);
  }
  void on_machine_up(EngineContext& ctx, MachineId m) override {
    CountingContext c = wrap(ctx);
    inner_.on_machine_up(c, m);
  }
  void on_retry_ready(EngineContext& ctx, JobId job) override {
    CountingContext c = wrap(ctx);
    inner_.on_retry_ready(c, job);
  }

  std::uint64_t reads = 0;
  std::uint64_t gated = 0;    ///< earliest_start() answers later than now
  std::uint64_t refused = 0;  ///< can_start() refusals of the own window
  std::size_t pending_hwm = 0;
  Time flap = 0.0;  ///< see CountingContext

 private:
  CountingContext wrap(EngineContext& ctx) {
    pending_hwm = std::max(pending_hwm, ctx.pending().size());
    return CountingContext(ctx, reads, gate_, gated, refused, flap);
  }

  OnlineScheduler& inner_;
  Time gate_;
  std::vector<std::pair<Time, JobId>> gates_;  ///< announcements due
};

struct ScanCost {
  double reads_per_event;
  std::size_t pending_hwm;
};

template <typename Scheduler>
ScanCost scan_cost(std::size_t jobs) {
  const Instance inst = azure_like(jobs, 20, 3);
  Scheduler pq(Heuristic::kWsjf);
  CountingScheduler counting(pq);
  const RunResult r = run_online(inst, counting);
  return {static_cast<double>(counting.reads) /
              static_cast<double>(r.num_events),
          counting.pending_hwm};
}

TEST(PqScanTest, ContextReadsPerEventDoNotGrowWithTheBacklog) {
  // The Azure-like window is fixed, so doubling N doubles the load and
  // the backlog grows much faster than N.
  constexpr std::size_t kN = 6000;
  const ScanCost small = scan_cost<PriorityQueueScheduler>(kN);
  const ScanCost large = scan_cost<PriorityQueueScheduler>(2 * kN);
  ASSERT_GE(static_cast<double>(large.pending_hwm),
            1.5 * static_cast<double>(small.pending_hwm))
      << "the workload must grow the backlog for this guard to mean anything";
  EXPECT_LT(large.reads_per_event, 1.5 * small.reads_per_event)
      << small.reads_per_event << " reads/event at N=" << kN << " vs "
      << large.reads_per_event << " at 2N (pending high-water "
      << small.pending_hwm << " -> " << large.pending_hwm << ")";

  // The guard discriminates: the reference scan reads every queued job
  // per event, so one doubling of this workload (N/2 -> N, which keeps the
  // reference fast) already breaks the bound.
  const ScanCost ref_small = scan_cost<ReferencePq>(kN / 2);
  const ScanCost ref_large = scan_cost<ReferencePq>(kN);
  EXPECT_GE(ref_large.reads_per_event, 1.5 * ref_small.reads_per_event);
}

TEST(PqScanTest, MatchesReferenceWithGatedAndRefusedJobsInsideLiveClasses) {
  // For 3 time units after its release every third job is retry-gated and
  // every job after one of those is refused by can_start(), under every
  // fault plan: the scan meets such heads in classes that still fit and
  // must go on to the class's later jobs.
  for (std::size_t rows : {1u, 3u}) {
    const Instance inst = few_rows(600, rows, 4, 20 + rows);
    const Time t = last_release(inst);
    for (const auto& plan : fault_plans(inst, 1.0, 9)) {
      const FaultPlan* p = plan ? &*plan : nullptr;
      const std::string where = std::to_string(rows) + " rows" +
                                (p ? " with faults" : " fault-free");
      ReferencePq ref(Heuristic::kWsjf);
      PriorityQueueScheduler pq(Heuristic::kWsjf);
      CountingScheduler gated_ref(ref, 3.0);
      CountingScheduler gated_pq(pq, 3.0);
      EXPECT_EQ("", first_difference(run(inst, gated_ref, p),
                                     run(inst, gated_pq, p)))
          << where;
      EXPECT_GT(gated_pq.gated, 0u) << where;
      EXPECT_GT(gated_pq.refused, 0u) << where;

      ReferencePq ref_ca(Heuristic::kWsjf, t);
      CollectAllPqScheduler capq(t, Heuristic::kWsjf);
      CountingScheduler gated_ref_ca(ref_ca, 3.0);
      CountingScheduler gated_capq(capq, 3.0);
      EXPECT_EQ("", first_difference(run(inst, gated_ref_ca, p),
                                     run(inst, gated_capq, p)))
          << where << " CA-PQ";
    }
  }
}

TEST(PqScanTest, MatchesReferenceWhenMachinesGoDownWithoutATimelineChange) {
  // A machine that reports itself down keeps its timeline version, so its
  // cached row stays valid while max_free_ must leave it out, and take it
  // back in when the machine is up again.
  const std::vector<std::pair<std::string, Instance>> cases = {
      {"three rows", few_rows(600, 3, 4, 23)},
      {"unique rows", azure_like(800, 4, 12, 20)},
  };
  for (const auto& [what, inst] : cases) {
    for (const auto& plan : fault_plans(inst, 1.0, 4)) {
      const FaultPlan* p = plan ? &*plan : nullptr;
      const std::string where = what + (p ? " with faults" : " fault-free");
      ReferencePq ref(Heuristic::kWsjf);
      PriorityQueueScheduler pq(Heuristic::kWsjf);
      CountingScheduler flapping_ref(ref);
      CountingScheduler flapping_pq(pq);
      flapping_ref.flap = flapping_pq.flap = 3.0;
      EXPECT_EQ("", first_difference(run(inst, flapping_ref, p),
                                     run(inst, flapping_pq, p)))
          << where;
    }
  }
}

TEST(PqScanTest, ClassTableIsBoundedByTheLiveBacklog) {
  // A daemon on continuous demands: every admitted row is new.  A class
  // slot is recycled when its last job leaves, so the table never holds
  // more classes than the live backlog once did, not one per row seen.
  constexpr std::size_t kJobs = 20000;
  constexpr int kResources = 4;
  util::Xoshiro256 rng(17);
  Instance grow(std::vector<Job>{}, 4, kResources);
  PriorityQueueScheduler pq(Heuristic::kWsjf);
  CountingScheduler counting(pq);
  StreamEngine engine(grow, counting);
  engine.start();
  Time t = 0.0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    t += util::exponential(rng, 1.0);
    Job j;
    j.release = t;
    j.processing = util::uniform(rng, 1.0, 10.0);
    j.weight = static_cast<double>(util::uniform_int(rng, 1, 3));
    for (int l = 0; l < kResources; ++l) {
      j.demand.push_back(util::uniform(rng, 0.05, 0.5));
    }
    engine.run_until_release(j.release);
    engine.admit(j);
  }
  const RunResult r = engine.finish();
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(r.schedule.assignment(static_cast<JobId>(i)).machine !=
                kInvalidMachine)
        << "job " << i << " never started";
  }
  ASSERT_LT(counting.pending_hwm, kJobs / 20)
      << "the stream must drain as it goes for this bound to mean anything";
  // Every queued job is pending, so the live classes never outnumber the
  // pending high-water mark.
  EXPECT_LE(pq.class_slots(), counting.pending_hwm + 2)
      << "pending high-water " << counting.pending_hwm;
}

// ---- resume ---------------------------------------------------------------

/// Runs one scheduler until just before its `cut`-th arrival callback,
/// then moves its state into a fresh copy through save_state /
/// restore_state, which takes that arrival (an enqueue before any scan)
/// and everything after.  Records the saved payload, the payload the copy
/// saves right after its restore (before any callback), and for
/// comparison the snapshot format that existing state dirs hold: the
/// queued ids in heuristic order, as a vec_i32.
template <typename Pq>
class Handover : public OnlineScheduler {
 public:
  Handover(const Pq& fresh, Heuristic h, std::size_t cut)
      : heuristic_(h), first_(fresh), second_(fresh), cut_(cut) {}

  std::string name() const override { return first_.name(); }
  void on_start(EngineContext& ctx) override { active().on_start(ctx); }
  void on_arrival(EngineContext& ctx, JobId job) override {
    if (++arrivals_ == cut_) handover(ctx, job);
    active().on_arrival(ctx, job);
  }
  void on_completion(EngineContext& ctx, JobId job, MachineId m) override {
    active().on_completion(ctx, job, m);
  }
  void on_wakeup(EngineContext& ctx) override { active().on_wakeup(ctx); }
  void on_machine_up(EngineContext& ctx, MachineId m) override {
    active().on_machine_up(ctx, m);
  }

  std::string saved;     ///< first_'s payload at the cut
  std::string resaved;   ///< second_'s payload right after its restore
  std::string expected;  ///< vec_i32 of the pending ids in heuristic order
  std::size_t queued_at_cut = 0;

 private:
  OnlineScheduler& active() {
    return handed_over_ ? static_cast<OnlineScheduler&>(second_) : first_;
  }

  void handover(EngineContext& ctx, JobId arriving) {
    recovery::StateWriter w;
    first_.save_state(w);
    saved = w.take();
    recovery::StateReader r(saved);
    second_.restore_state(r);
    recovery::StateWriter again;
    second_.save_state(again);
    resaved = again.take();
    handed_over_ = true;

    // The arriving job is pending but not yet queued.
    std::vector<JobId> ids;
    for (JobId id : ctx.pending()) {
      if (id != arriving) ids.push_back(id);
    }
    sort_jobs(ids, heuristic_,
              [&](JobId id) -> const Job& { return ctx.job(id); });
    recovery::StateWriter e;
    e.vec_i32(ids);
    expected = e.take();
    queued_at_cut = ids.size();
  }

  Heuristic heuristic_;
  Pq first_;
  Pq second_;
  std::size_t cut_;
  std::size_t arrivals_ = 0;
  bool handed_over_ = false;
};

/// Hands `fresh`'s state over at every `step`-th arrival of a fault-free
/// run of `inst`; each handed-over run must equal the plain one byte for
/// byte, and both payloads must be the heuristic-ordered pending ids (so
/// old state dirs resume).  Returns how many cuts landed inside a backlog
/// of at least 10 jobs.
template <typename Pq>
std::size_t expect_handover_identical(const Instance& inst, const Pq& fresh,
                                      std::size_t step,
                                      const std::string& what) {
  Pq plain = fresh;
  const faults::RecordedRun reference = run(inst, plain, nullptr);
  std::size_t mid_backlog = 0;
  for (std::size_t cut = step; cut < inst.num_jobs(); cut += step) {
    Handover<Pq> handover(fresh, Heuristic::kWsjf, cut);
    const std::string where = what + ", cut at arrival " + std::to_string(cut);
    EXPECT_EQ("", first_difference(reference, run(inst, handover, nullptr)))
        << where;
    // Fault-free, every pending job is queued.
    EXPECT_EQ(handover.expected, handover.saved) << where;
    EXPECT_EQ(handover.expected, handover.resaved) << where;
    if (handover.queued_at_cut >= 10) ++mid_backlog;
  }
  return mid_backlog;
}

TEST(PqScanTest, ResumeWithAnArrivalFirstIsByteIdentical) {
  const Instance inst = azure_like(6000, 20, 4);
  EXPECT_GE(expect_handover_identical(
                inst, PriorityQueueScheduler(Heuristic::kWsjf), 500,
                "azure-like"),
            3u)
      << "too few cuts landed inside a backlog";
}

TEST(PqScanTest, ResumeIsByteIdenticalOnEveryClassShape) {
  const std::vector<std::pair<std::string, Instance>> cases = {
      {"unique rows", azure_like(800, 4, 12, 20)},
      {"one row", few_rows(600, 1, 4, 21)},
      {"three rows", few_rows(600, 3, 4, 23)},
  };
  for (const auto& [what, inst] : cases) {
    EXPECT_GE(expect_handover_identical(
                  inst, PriorityQueueScheduler(Heuristic::kWsjf), 60, what),
              3u)
        << what << ": too few cuts landed inside a backlog";
    // CA-PQ: cuts before its activation hand over the collected backlog.
    const Time t = last_release(inst);
    EXPECT_GE(expect_handover_identical(
                  inst, CollectAllPqScheduler(t, Heuristic::kWsjf), 60,
                  what + " CA-PQ"),
              3u)
        << what << " CA-PQ: too few cuts landed inside a backlog";
  }
}

}  // namespace
}  // namespace mris
