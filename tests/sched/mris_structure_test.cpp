// Structural invariants of MRIS observed through the engine record stream:
// the algorithm only acts at geometric interval boundaries (Algorithm 1),
// and HYBRID's extra commits happen at arrivals instead.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sched/hybrid.hpp"
#include "sched/mris.hpp"
#include "sim/faults/crash.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

Instance random_instance(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  InstanceBuilder b(2, 2);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(util::uniform(rng, 0.0, 20.0), util::uniform(rng, 1.0, 9.0),
          util::uniform(rng, 0.5, 3.0),
          {util::uniform(rng, 0.05, 0.9), util::uniform(rng, 0.05, 0.9)});
  }
  return b.build();
}

bool is_gamma_boundary(Time t, double gamma0, double alpha) {
  if (t < gamma0) return false;
  const double k = std::log(t / gamma0) / std::log(alpha);
  return std::abs(k - std::round(k)) < 1e-9;
}

TEST(MrisStructureTest, CommitsOnlyAtGammaBoundaries) {
  const Instance inst = random_instance(101, 60);
  MrisScheduler sched;
  const std::vector<EventRecord> log =
      faults::run_recorded(inst, sched, {}).records;

  for (const EventRecord& e : log) {
    if (e.kind != EventRecord::Kind::kCommit) continue;
    EXPECT_TRUE(is_gamma_boundary(e.t, sched.config().gamma0,
                                  sched.config().alpha))
        << "MRIS committed at t=" << e.t << ", not a gamma boundary";
    // Backfilled starts never precede the decision time.
    EXPECT_GE(e.start, e.t - 1e-9);
  }
}

TEST(MrisStructureTest, WakeupTimesFormGeometricGrid) {
  const Instance inst = random_instance(103, 40);
  MrisScheduler sched;
  const std::vector<EventRecord> log =
      faults::run_recorded(inst, sched, {}).records;

  std::set<Time> wakeups;
  for (const EventRecord& e : log) {
    if (e.kind == EventRecord::Kind::kWakeup) wakeups.insert(e.t);
  }
  ASSERT_FALSE(wakeups.empty());
  for (Time t : wakeups) {
    EXPECT_TRUE(is_gamma_boundary(t, 1.0, 2.0)) << "wakeup at " << t;
  }
  // Consecutive wakeups satisfy gamma_{k+1} - gamma_k >= gamma_k, i.e.
  // each at least doubles (gaps allowed when the system goes idle).
  Time prev = 0.0;
  for (Time t : wakeups) {
    if (prev > 0.0) {
      EXPECT_GE(t, 2.0 * prev - 1e-9);
    }
    prev = t;
  }
}

TEST(MrisStructureTest, AlphaConfigChangesTheGrid) {
  const Instance inst = random_instance(107, 30);
  MrisConfig cfg;
  cfg.alpha = 3.0;
  MrisScheduler sched(cfg);
  const std::vector<EventRecord> log =
      faults::run_recorded(inst, sched, {}).records;
  for (const EventRecord& e : log) {
    if (e.kind != EventRecord::Kind::kCommit) continue;
    EXPECT_TRUE(is_gamma_boundary(e.t, 1.0, 3.0))
        << "commit at t=" << e.t << " is off the alpha=3 grid";
  }
}

TEST(MrisStructureTest, NoBackfillCommitsNeverOverlapEarlierWindows) {
  // Without backfilling, each iteration's starts lie at or after the end
  // of all previously committed work.
  const Instance inst = random_instance(109, 50);
  MrisConfig cfg;
  cfg.backfill = false;
  MrisScheduler sched(cfg);
  const std::vector<EventRecord> log =
      faults::run_recorded(inst, sched, {}).records;

  Time frontier = 0.0;
  Time current_decision = -1.0;
  Time batch_frontier = 0.0;
  for (const EventRecord& e : log) {
    if (e.kind != EventRecord::Kind::kCommit) continue;
    if (e.t != current_decision) {
      // New iteration: the frontier from prior iterations is now binding.
      frontier = std::max(frontier, batch_frontier);
      current_decision = e.t;
    }
    EXPECT_GE(e.start, frontier - 1e-9)
        << "no-backfill start " << e.start << " dips below the frontier "
        << frontier;
    EXPECT_GE(e.start, e.t - 1e-9);
    batch_frontier =
        std::max(batch_frontier, e.start + inst.job(e.job).processing);
  }
}

TEST(HybridStructureTest, ImmediateCommitsHappenAtArrivals) {
  // HYBRID may commit off the gamma grid — but only at a job's own arrival
  // instant (the PQ-at-idle path).
  const Instance inst = random_instance(113, 50);
  HybridScheduler sched;
  const std::vector<EventRecord> log =
      faults::run_recorded(inst, sched, {}).records;

  for (const EventRecord& e : log) {
    if (e.kind != EventRecord::Kind::kCommit) continue;
    if (is_gamma_boundary(e.t, 1.0, 2.0)) continue;  // MRIS path
    // Off-grid commit: must be this very job's release time (arrival).
    EXPECT_NEAR(e.t, inst.job(e.job).release, 1e-9);
    EXPECT_NEAR(e.start, e.t, 1e-9);
  }
}

}  // namespace
}  // namespace mris
