// Differential test of Cluster's earliest_fit memo: the class registry and
// per-(machine, class) staircases must never change an answer.  Random
// sequences of placements, releases (both forms), outage blocks, prunes
// and snapshot restores run on a three-machine cluster; every memoized
// Cluster::earliest_fit and earliest_fit_on is compared with a memo-free
// per-machine argmin over the same profiles.  Rows come from a small
// catalog, so staircases stay warm, and from a stream of fresh rows, so
// the registry fills past its cap of 64 classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/recovery/state_io.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

struct Placed {
  MachineId machine;
  Time start;
  Time end;
  std::vector<double> demand;
};

/// The memo-free answer: each machine's plain scan, lowest index on ties.
Time plain_argmin(const Cluster& cluster, const Job& job, Time not_before,
                  const std::vector<Time>& floors, MachineId& best_machine) {
  Time best = std::numeric_limits<Time>::infinity();
  best_machine = kInvalidMachine;
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    const Time from =
        floors.empty()
            ? not_before
            : std::max(not_before, floors[static_cast<std::size_t>(m)]);
    const Time s =
        cluster.machine(m).earliest_fit(from, job.processing, job.demand);
    if (s < best) {
      best = s;
      best_machine = m;
    }
  }
  return best;
}

class ClusterMemo : public ::testing::TestWithParam<int> {};

TEST_P(ClusterMemo, MemoizedFitsMatchThePlainArgmin) {
  util::Xoshiro256 rng(0xc1u + static_cast<std::uint64_t>(GetParam()));
  const int machines = 3;
  const int resources = 2;
  Cluster cluster(machines, resources);
  const std::vector<std::vector<double>> catalog = {
      {0.25, 0.5}, {0.5, 0.25}, {0.125, 0.125}, {0.75, 0.0625}, {0.5, 0.5}};
  const std::vector<Time> durations = {0.5, 1.0, 1.5, 2.25, 4.0};
  std::vector<Placed> live;
  Time clock = 0.0;
  int fresh_rows = 0;

  const auto pick_job = [&] {
    Job job;
    job.processing = durations[util::uniform_index(rng, durations.size())];
    if (util::uniform01(rng) < 0.2) {
      // A row no earlier query used: these fill the registry past its cap.
      ++fresh_rows;
      job.demand = {util::uniform(rng, 0.05, 0.7),
                    util::uniform(rng, 0.05, 0.7)};
    } else {
      job.demand = catalog[util::uniform_index(rng, catalog.size())];
    }
    return job;
  };

  for (int op = 0; op < 600; ++op) {
    const double roll = util::uniform01(rng);
    if (roll < 0.45) {  // place at the argmin, sometimes behind floors
      const Job job = pick_job();
      Time nb = clock + util::uniform(rng, 0.0, 2.0);
      if (util::uniform01(rng) < 0.1) nb = util::uniform(rng, 0.0, clock);
      std::vector<Time> floors;
      if (util::uniform01(rng) < 0.3) {
        for (int m = 0; m < machines; ++m) {
          floors.push_back(clock + util::uniform(rng, 0.0, 6.0));
        }
      }
      MachineId want_m = kInvalidMachine;
      const Time want = plain_argmin(cluster, job, nb, floors, want_m);
      MachineId got_m = kInvalidMachine;
      const Time got = cluster.earliest_fit(job, nb, got_m, floors);
      ASSERT_EQ(got, want) << "op " << op;
      ASSERT_EQ(got_m, want_m) << "op " << op;
      if (got >= clock) {
        cluster.reserve(job, got_m, got);
        live.push_back({got_m, got, got + job.processing, job.demand});
      }
    } else if (roll < 0.6) {  // one machine, memoized vs plain
      const Job job = pick_job();
      const auto m = static_cast<MachineId>(util::uniform_index(rng, machines));
      const Time nb = clock + util::uniform(rng, 0.0, 4.0);
      ASSERT_EQ(cluster.earliest_fit_on(job, m, nb),
                cluster.machine(m).earliest_fit(nb, job.processing,
                                                job.demand))
          << "op " << op;
    } else if (roll < 0.7) {  // release a reservation that outlives the clock
      std::vector<std::size_t> releasable;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].start >= clock) releasable.push_back(i);
      }
      if (releasable.empty()) continue;
      const std::size_t i = releasable[util::uniform_index(
          rng, static_cast<std::uint64_t>(releasable.size()))];
      const Placed p = live[i];
      if (util::uniform01(rng) < 0.5) {
        cluster.release_until(p.machine, p.start, p.end, p.demand);
      } else {
        cluster.release(p.machine, p.start, p.end - p.start, p.demand);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 0.75) {  // an outage block only adds usage
      const auto m = static_cast<MachineId>(util::uniform_index(rng, machines));
      const Time from = clock + util::uniform(rng, 0.0, 8.0);
      cluster.block(m, from, from + util::uniform(rng, 0.5, 3.0));
    } else if (roll < 0.9) {  // advance the clock and prune behind it
      clock += util::uniform(rng, 0.0, 1.5);
      cluster.prune_before(clock);
    } else {  // save -> restore in place empties the memo
      recovery::StateWriter w;
      cluster.save_state(w);
      recovery::StateReader r(w.data());
      cluster.restore_state(r);
    }
  }
  EXPECT_GT(fresh_rows, 64);
  EXPECT_GT(cluster.fit_counters().bounded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMemo, ::testing::Range(0, 12));

TEST(ClusterMemoTest, RepeatedRowsAreBoundedOnEveryMachine) {
  // Three machines, each busy over [0, 8): the second placement query of
  // the same row and duration starts every machine's scan at its recorded
  // answer instead of at not_before.
  Cluster cluster(3, 1);
  Job busy;
  busy.processing = 8.0;
  busy.demand = {0.75};
  for (MachineId m = 0; m < 3; ++m) cluster.reserve(busy, m, 0.0);
  Job job;
  job.processing = 1.0;
  job.demand = {0.5};
  MachineId m = kInvalidMachine;
  EXPECT_EQ(cluster.earliest_fit(job, 0.0, m), 8.0);
  EXPECT_EQ(m, 0);
  EXPECT_EQ(cluster.fit_counters().bounded, 0u);
  EXPECT_EQ(cluster.earliest_fit(job, 0.0, m), 8.0);
  EXPECT_EQ(m, 0);
  // Machine 0 starts from its recorded 8.0; machines 1 and 2 recorded the
  // give_up bound they stopped at, which is already >= the best.
  EXPECT_EQ(cluster.fit_counters().bounded, 3u);
  // A release on machine 1 forgets its staircase only: machines 0 and 2
  // start from their records again, machine 1 scans from 0.
  cluster.release(1, 0.0, 8.0, busy.demand);
  EXPECT_EQ(cluster.earliest_fit(job, 0.0, m), 0.0);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(cluster.fit_counters().bounded, 5u);
}

}  // namespace
}  // namespace mris
