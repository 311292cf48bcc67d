// Differential and invariant tests for the flat SoA timeline rewrite:
// mixed reserve/force_reserve/release sequences checked against a
// brute-force interval-list oracle, coalescing idempotence, and
// prune_before query preservation.
//
// All generated times, durations and demands are multiples of 1/64, so
// every sum and difference is exact in binary floating point: the oracle
// (which re-sums intervals from scratch) and the profile (which adds and
// subtracts incrementally) must agree bit-for-bit, making the comparisons
// below exact rather than tolerance-based.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/recovery/state_io.hpp"
#include "sim/resource_profile.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

constexpr double kGrid = 1.0 / 64.0;
constexpr Time kNoBound = std::numeric_limits<Time>::infinity();

struct Interval {
  Time start;
  Time end;
  std::vector<double> demand;
};

double grid_time(util::Xoshiro256& rng, double lo, double hi) {
  const auto steps = static_cast<std::uint64_t>((hi - lo) / kGrid);
  return lo + kGrid * static_cast<double>(util::uniform_index(rng, steps + 1));
}

std::vector<double> grid_demand(util::Xoshiro256& rng, int resources,
                                double hi) {
  std::vector<double> d(static_cast<std::size_t>(resources));
  for (auto& x : d) {
    const auto steps = static_cast<std::uint64_t>(hi / kGrid);
    x = kGrid * static_cast<double>(util::uniform_index(rng, steps + 1));
  }
  return d;
}

double oracle_usage(const std::vector<Interval>& live, Time t, std::size_t l) {
  double usage = 0.0;
  for (const auto& iv : live) {
    if (iv.start <= t && t < iv.end) usage += iv.demand[l];
  }
  return usage;
}

bool oracle_fits(const std::vector<Interval>& live, Time s, Time dur,
                 const std::vector<double>& demand, double tolerance) {
  // Usage is piecewise constant with breakpoints only at interval
  // endpoints, so checking s plus every start inside the window suffices.
  std::vector<Time> points = {s};
  for (const auto& iv : live) {
    if (iv.start > s && iv.start < s + dur) points.push_back(iv.start);
  }
  for (const Time t : points) {
    for (std::size_t l = 0; l < demand.size(); ++l) {
      if (oracle_usage(live, t, l) + demand[l] > 1.0 + tolerance) {
        return false;
      }
    }
  }
  return true;
}

Time oracle_earliest_fit(const std::vector<Interval>& live, Time not_before,
                         Time dur, const std::vector<double>& demand,
                         double tolerance) {
  // Candidate starts: not_before and every interval endpoint after it
  // (feasibility of the sliding window changes only there).
  std::vector<Time> candidates = {not_before};
  for (const auto& iv : live) {
    if (iv.start > not_before) candidates.push_back(iv.start);
    if (iv.end > not_before) candidates.push_back(iv.end);
  }
  std::sort(candidates.begin(), candidates.end());
  for (const Time s : candidates) {
    if (oracle_fits(live, s, dur, demand, tolerance)) return s;
  }
  ADD_FAILURE() << "oracle found no feasible start";
  return -1.0;
}

/// Runs a random mixed op sequence, returning the live interval list and
/// leaving `profile` in the matching state.
std::vector<Interval> run_mixed_ops(ResourceProfile& profile,
                                    util::Xoshiro256& rng, int resources,
                                    int ops) {
  std::vector<Interval> live;
  for (int op = 0; op < ops; ++op) {
    const double roll = util::uniform01(rng);
    if (roll < 0.4) {  // reserve at the earliest feasible start
      const Time dur = grid_time(rng, kGrid, 6.0);
      const auto d = grid_demand(rng, resources, 0.75);
      const Time nb = grid_time(rng, 0.0, 48.0);
      const Time s = profile.earliest_fit(nb, dur, d);
      EXPECT_TRUE(profile.fits(s, dur, d));
      profile.reserve(s, dur, d);
      live.push_back({s, s + dur, d});
    } else if (roll < 0.7) {  // force_reserve, may overload capacity
      const Time s = grid_time(rng, 0.0, 48.0);
      const Time dur = grid_time(rng, kGrid, 6.0);
      const auto d = grid_demand(rng, resources, 0.9);
      if (util::uniform01(rng) < 0.5) {
        profile.force_reserve(s, dur, d);
      } else {
        profile.force_reserve_until(s, s + dur, d);
      }
      live.push_back({s, s + dur, d});
    } else if (!live.empty()) {  // release one active interval exactly
      const std::size_t i =
          util::uniform_index(rng, static_cast<std::uint64_t>(live.size()));
      const Interval iv = live[i];
      if (util::uniform01(rng) < 0.5) {
        profile.release_until(iv.start, iv.end, iv.demand);
      } else {
        profile.release(iv.start, iv.end - iv.start, iv.demand);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return live;
}

class TimelineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TimelineDifferential, MixedOpsMatchIntervalOracle) {
  util::Xoshiro256 rng(0xface0000ULL + static_cast<std::uint64_t>(GetParam()));
  const int resources = 1 + static_cast<int>(util::uniform_index(rng, 3));
  ResourceProfile profile(resources);
  const std::vector<Interval> live = run_mixed_ops(profile, rng, resources, 80);

  // usage_at agrees bit-for-bit at random probe times.
  for (int probe = 0; probe < 200; ++probe) {
    const Time t = grid_time(rng, 0.0, 60.0);
    for (int l = 0; l < resources; ++l) {
      EXPECT_EQ(profile.usage_at(t, l),
                oracle_usage(live, t, static_cast<std::size_t>(l)))
          << "t=" << t << " l=" << l;
    }
  }

  // fits and earliest_fit agree with the oracle on random queries.
  for (int probe = 0; probe < 100; ++probe) {
    const Time dur = grid_time(rng, kGrid, 5.0);
    const auto d = grid_demand(rng, resources, 0.75);
    const Time s = grid_time(rng, 0.0, 55.0);
    EXPECT_EQ(profile.fits(s, dur, d), oracle_fits(live, s, dur, d, 1e-9))
        << "s=" << s << " dur=" << dur;
    const Time got = profile.earliest_fit(s, dur, d);
    EXPECT_EQ(got, oracle_earliest_fit(live, s, dur, d, 1e-9))
        << "not_before=" << s << " dur=" << dur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferential, ::testing::Range(0, 24));

TEST(TimelineCoalescing, ReleasingEverythingRestoresTheEmptyProfile) {
  util::Xoshiro256 rng(0xc0a1e5ce);
  ResourceProfile profile(2);
  std::vector<Interval> live = run_mixed_ops(profile, rng, 2, 120);
  // Release the survivors in random order; coalescing must collapse the
  // timeline back to the single all-zero segment, not leave equal-usage
  // breakpoint residue behind.
  while (!live.empty()) {
    const std::size_t i =
        util::uniform_index(rng, static_cast<std::uint64_t>(live.size()));
    profile.release_until(live[i].start, live[i].end, live[i].demand);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  }
  EXPECT_EQ(profile.num_breakpoints(), 1u);
  EXPECT_EQ(profile.horizon(), 0.0);
  EXPECT_EQ(profile.usage_at(12.75, 0), 0.0);
}

TEST(TimelineCoalescing, ZeroDemandReleaseIsIdempotentOnTheSegmentList) {
  util::Xoshiro256 rng(0x1de11);
  ResourceProfile profile(2);
  run_mixed_ops(profile, rng, 2, 60);
  const Time horizon = profile.horizon();
  // A zero-demand release over the whole timeline forces breakpoint splits
  // at its endpoints, subtracts nothing, and coalesces.  The first pass may
  // compact residue left by reserves (which deliberately skip coalescing);
  // after that the operation must be idempotent: a coalesced timeline comes
  // back unchanged.
  const std::vector<double> zero(2, 0.0);
  profile.release(0.0, horizon + 16.0, zero);
  const std::size_t breakpoints = profile.num_breakpoints();
  const double usage_probe = profile.usage_at(horizon / 2.0, 0);
  profile.release(0.0, horizon + 16.0, zero);
  EXPECT_EQ(profile.num_breakpoints(), breakpoints);
  EXPECT_EQ(profile.horizon(), horizon);
  EXPECT_EQ(profile.usage_at(horizon / 2.0, 0), usage_probe);
}

TEST(TimelineCoalescing, ReserveReleaseChurnDoesNotLeakBreakpoints) {
  ResourceProfile profile(2);
  const std::vector<double> d = {0.5, 0.25};
  profile.reserve(1.0, 4.0, d);  // a long-lived background reservation
  const std::size_t baseline = profile.num_breakpoints();
  for (int cycle = 0; cycle < 50; ++cycle) {
    profile.reserve(2.0, 1.5, d);
    profile.release(2.0, 1.5, d);
    EXPECT_EQ(profile.num_breakpoints(), baseline) << "cycle " << cycle;
  }
}

TEST(TimelinePrune, PreservesQueriesAtOrAfterTheBound) {
  for (int seed = 0; seed < 8; ++seed) {
    util::Xoshiro256 rng(0x9e37 + static_cast<std::uint64_t>(seed));
    const int resources = 1 + static_cast<int>(util::uniform_index(rng, 3));
    ResourceProfile reference(resources);
    const std::vector<Interval> live =
        run_mixed_ops(reference, rng, resources, 80);

    ResourceProfile pruned = reference;  // profiles are value types
    const Time bound = grid_time(rng, 0.0, 40.0);
    pruned.prune_before(bound);
    EXPECT_EQ(pruned.pruned_before(), bound);
    EXPECT_LE(pruned.num_breakpoints(), reference.num_breakpoints());

    for (int probe = 0; probe < 120; ++probe) {
      const Time t = bound + grid_time(rng, 0.0, 24.0);
      for (int l = 0; l < resources; ++l) {
        EXPECT_EQ(pruned.usage_at(t, l), reference.usage_at(t, l))
            << "t=" << t << " l=" << l << " bound=" << bound;
      }
      const Time dur = grid_time(rng, kGrid, 4.0);
      const auto d = grid_demand(rng, resources, 0.75);
      EXPECT_EQ(pruned.fits(t, dur, d), reference.fits(t, dur, d));
      EXPECT_EQ(pruned.earliest_fit(t, dur, d),
                reference.earliest_fit(t, dur, d));
    }

    // Pruning again at the same bound is a no-op.
    const std::size_t breakpoints = pruned.num_breakpoints();
    pruned.prune_before(bound);
    EXPECT_EQ(pruned.num_breakpoints(), breakpoints);
    // An earlier bound never un-prunes.
    pruned.prune_before(bound - 1.0);
    EXPECT_EQ(pruned.pruned_before(), bound);
  }
}

TEST(TimelinePrune, PruningPastEverythingCollapsesToOneSegment) {
  util::Xoshiro256 rng(0xdead0);
  ResourceProfile profile(2);
  run_mixed_ops(profile, rng, 2, 60);
  profile.prune_before(profile.horizon() + 1.0);
  EXPECT_EQ(profile.num_breakpoints(), 1u);
  EXPECT_EQ(profile.usage_at(0.0, 0), 0.0);
  EXPECT_EQ(profile.usage_at(1e9, 1), 0.0);
}

/// A profile restored from a snapshot of `profile`: same timeline, and
/// queried below without a staircase.
ResourceProfile cold_copy(const ResourceProfile& profile) {
  recovery::StateWriter w;
  profile.save_state(w);
  ResourceProfile cold(profile.num_resources());
  recovery::StateReader r(w.data());
  cold.restore_state(r);
  return cold;
}

// earliest_fit's lower-bound memo only pays (and can only go wrong) when the
// same demand row comes back: queries here draw rows from a catalog of four
// and durations from a small set, so nearly every query hits a warm
// staircase, interleaved with every mutation the memo must survive or
// forget.  The test owns the staircases, one per (row, tolerance), and
// clears them where Cluster does: on release and on restore.  Every answer
// is checked against the interval oracle and against a snapshot-restored
// copy queried without a staircase.
class TimelineMemoHot : public ::testing::TestWithParam<int> {};

TEST_P(TimelineMemoHot, WarmMemoMatchesOracleAndColdProfile) {
  util::Xoshiro256 rng(0x3e30ULL + static_cast<std::uint64_t>(GetParam()));
  const int resources = 2;
  const std::vector<std::vector<double>> catalog = {
      {0.25, 0.5}, {0.5, 0.25}, {0.125, 0.125}, {0.75, 0.0625}};
  const std::vector<Time> durations = {0.5, 1.0, 1.5, 2.25, 4.0};
  auto pick_row = [&] {
    return catalog[util::uniform_index(rng, catalog.size())];
  };
  auto pick_duration = [&] {
    return durations[util::uniform_index(rng, durations.size())];
  };

  ResourceProfile profile(resources);
  std::map<std::pair<std::vector<double>, double>, FitStaircase> stairs;
  std::vector<Interval> live;
  Time clock = 0.0;  // mostly-monotone not_before, like an engine's now
  Time pruned = 0.0;

  // A bounded query must return the cold answer when that answer is below
  // give_up, and something >= give_up otherwise.
  auto check_query = [&](Time nb, Time dur, const std::vector<double>& d,
                         double tolerance,
                         Time give_up = std::numeric_limits<Time>::infinity()) {
    const ResourceProfile cold = cold_copy(profile);
    const Time got = profile.earliest_fit(nb, dur, d, tolerance, give_up,
                                          &stairs[{d, tolerance}]);
    const Time want = cold.earliest_fit(nb, dur, d, tolerance);
    if (want < give_up) {
      EXPECT_EQ(got, want) << "not_before=" << nb << " dur=" << dur
                           << " give_up=" << give_up;
    } else {
      EXPECT_GE(got, give_up) << "not_before=" << nb << " dur=" << dur
                              << " answer=" << want;
    }
    // Below the prune bound the profile answers from the flattened past,
    // which the interval oracle does not model.
    if (nb >= pruned) {
      EXPECT_EQ(want, oracle_earliest_fit(live, nb, dur, d, tolerance))
          << "not_before=" << nb << " dur=" << dur;
    }
    return got;
  };

  for (int op = 0; op < 400; ++op) {
    const double roll = util::uniform01(rng);
    if (roll < 0.25) {  // reserve at the earliest feasible start
      const auto d = pick_row();
      const Time dur = pick_duration();
      const Time s = check_query(clock, dur, d, 1e-9);
      profile.reserve(s, dur, d);
      live.push_back({s, s + dur, d});
    } else if (roll < 0.32) {  // force_reserve, may overload capacity
      const Time s = clock + grid_time(rng, 0.0, 12.0);
      const Time dur = pick_duration();
      const auto d = pick_row();
      profile.force_reserve(s, dur, d);
      live.push_back({s, s + dur, d});
    } else if (roll < 0.40) {  // release an interval that outlives the prune
      std::vector<std::size_t> releasable;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].end > pruned) releasable.push_back(i);
      }
      if (releasable.empty()) continue;
      const std::size_t i = releasable[util::uniform_index(
          rng, static_cast<std::uint64_t>(releasable.size()))];
      const Interval iv = live[i];
      if (util::uniform01(rng) < 0.5) {
        profile.release_until(iv.start, iv.end, iv.demand);
      } else {
        profile.release(iv.start, iv.end - iv.start, iv.demand);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      stairs.clear();  // freed capacity can move earliest fits earlier
    } else if (roll < 0.45) {  // advance the clock and prune behind it
      clock += grid_time(rng, 0.0, 2.0);
      if (util::uniform01(rng) < 0.5) {
        pruned = std::max(pruned, clock);
        profile.prune_before(clock);
      }
    } else if (roll < 0.48) {  // save -> restore in place empties the memo
      recovery::StateWriter w;
      profile.save_state(w);
      recovery::StateReader r(w.data());
      profile.restore_state(r);
      stairs.clear();
    } else if (roll < 0.49 && pruned > 0.0) {
      // The same queries below the prune bound, before and after a further
      // prune flattens more of the past: the memo must stay out of it.
      const Time nb = grid_time(rng, 0.0, pruned);
      const Time dur = pick_duration();
      for (const auto& d : catalog) check_query(nb, dur, d, 1e-9);
      clock += grid_time(rng, kGrid, 4.0);
      pruned = clock;
      profile.prune_before(clock);
      for (const auto& d : catalog) check_query(nb, dur, d, 1e-9);
    } else if (roll < 0.50) {  // rows that never repeat
      for (int k = 0; k < 80; ++k) {
        check_query(clock + grid_time(rng, 0.0, 4.0), pick_duration(),
                    grid_demand(rng, resources, 0.75), 1e-9);
      }
    } else {  // query a catalog row; not_before mostly follows the clock
      Time nb = clock + grid_time(rng, 0.0, 1.0);
      const double jitter = util::uniform01(rng);
      if (jitter < 0.1) {
        nb = grid_time(rng, 0.0, clock + 1.0);  // may dip below the prune
      } else if (jitter < 0.2) {
        nb = clock + grid_time(rng, 0.0, 16.0);
      }
      const double tolerance = util::uniform01(rng) < 0.1 ? 0.0 : 1e-9;
      const Time dur = pick_duration();
      const auto d = pick_row();
      if (util::uniform01(rng) < 0.5) {
        // Give up somewhere around the answer (sometimes below not_before),
        // then ask again without a bound: the warm memo, now holding the
        // partial step, must still match the cold profile.
        check_query(nb, dur, d, tolerance,
                    nb + grid_time(rng, 0.0, 12.0) - 1.0);
      }
      check_query(nb, dur, d, tolerance);
    }
  }
  EXPECT_GT(profile.fit_counters().queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineMemoHot, ::testing::Range(0, 16));

TEST(TimelineMemo, CountsQueriesAndScannedSegmentsOutsideTheSnapshot) {
  ResourceProfile profile(1);
  const std::vector<double> d = {0.75};
  FitStaircase memo;  // d's staircase
  for (int k = 0; k < 8; ++k) profile.reserve(2.0 * k, 1.0, d);
  recovery::StateWriter before;
  profile.save_state(before);

  // The first query walks all eight busy segments and the gaps between
  // them; the second, for the same row and duration, starts at the
  // recorded answer and examines one segment.
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, d, 1e-9, kNoBound, &memo), 15.0);
  const FitCounters cold = profile.fit_counters();
  EXPECT_EQ(cold.queries, 1u);
  EXPECT_GT(cold.segments, 8u);
  EXPECT_EQ(cold.bounded, 0u);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, d, 1e-9, kNoBound, &memo), 15.0);
  EXPECT_EQ(profile.fit_counters().queries, 2u);
  EXPECT_EQ(profile.fit_counters().segments, cold.segments + 1);
  EXPECT_EQ(profile.fit_counters().bounded, 1u);

  // Zero-length queries do no work and count nothing.
  EXPECT_EQ(profile.earliest_fit(3.0, 0.0, d, 1e-9, kNoBound, &memo), 3.0);
  EXPECT_EQ(profile.fit_counters().queries, 2u);
  EXPECT_EQ(profile.fit_counters().abandoned, 0u);

  // A give_up at or below the memo's bound returns that bound unscanned.
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, d, 1e-9, 5.0, &memo), 15.0);
  EXPECT_EQ(profile.fit_counters().abandoned, 1u);
  EXPECT_EQ(profile.fit_counters().segments, cold.segments + 1);
  // A new row scans [0, 5) — conflicts at 0, 2 and 4 — and stops once its
  // candidate reaches 5 >= give_up.  The partial answer bounds the next,
  // unbounded call, which starts at 5 instead of 0.
  const std::vector<double> half = {0.5};
  FitStaircase half_memo;
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, half, 1e-9, 4.0, &half_memo), 5.0);
  EXPECT_EQ(profile.fit_counters().abandoned, 2u);
  EXPECT_EQ(profile.fit_counters().segments, cold.segments + 6);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, half, 1e-9, kNoBound, &half_memo),
            15.0);
  EXPECT_EQ(profile.fit_counters().bounded, 3u);
  EXPECT_EQ(profile.fit_counters().queries, 5u);
  EXPECT_EQ(profile.fit_counters().abandoned, 2u);

  // Neither the staircases nor the counters reach the snapshot bytes.
  recovery::StateWriter after;
  profile.save_state(after);
  EXPECT_EQ(before.data(), after.data());
}

TEST(TimelineMemo, PastTheClassCapNewRowsRunThePlainScanUntilARelease) {
  // The class registry lives in Cluster; a one-machine cluster shows it.
  Cluster cluster(1, 2);
  const std::vector<double> busy = {0.75, 0.75};
  for (int k = 0; k < 8; ++k) cluster.force_reserve(0, 2.0 * k, 1.0, busy);
  const auto query = [&cluster](const std::vector<double>& row) {
    Job job;
    job.processing = 1.5;
    job.demand = row;
    return cluster.earliest_fit_on(job, 0, 0.0);
  };
  // 64 rows that never repeat take every class of the memo.
  for (int k = 0; k < 64; ++k) {
    const std::vector<double> row = {0.5, 0.25 + k / 1024.0};
    EXPECT_EQ(query(row), 15.0);
  }
  EXPECT_EQ(cluster.fit_counters().bounded, 0u);
  // A row first seen past the cap gets no class: both calls scan from 0.
  const std::vector<double> late = {0.5, 0.5};
  EXPECT_EQ(query(late), 15.0);
  EXPECT_EQ(query(late), 15.0);
  EXPECT_EQ(cluster.fit_counters().bounded, 0u);
  // A release empties the memo, and the row then gets a class.
  cluster.release(0, 14.0, 1.0, busy);
  EXPECT_EQ(query(late), 13.0);
  EXPECT_EQ(query(late), 13.0);
  EXPECT_EQ(cluster.fit_counters().bounded, 1u);
}

TEST(TimelineMemo, QueriesBelowThePruneBoundBypassIt) {
  ResourceProfile profile(1);
  const std::vector<double> full = {1.0};
  FitStaircase memo;
  profile.reserve(0.0, 5.0, full);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.0, full, 1e-9, kNoBound, &memo), 5.0);
  // Flattening [0, 10) into the free segment at t = 10 frees the past.  A
  // query there is meaningless to the engine, but it must still answer
  // from the profile as it is, not from the answer recorded before.
  profile.prune_before(10.0);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.0, full, 1e-9, kNoBound, &memo), 0.0);
  EXPECT_EQ(profile.earliest_fit(10.0, 1.0, full, 1e-9, kNoBound, &memo),
            10.0);
}

// ---- version() and available_until() --------------------------------------

TEST(TimelineVersion, EveryMutationBumpsItAndNoQueryDoes) {
  ResourceProfile profile(2);
  const std::vector<double> d = {0.25, 0.5};
  std::uint64_t seen = profile.version();
  const auto bumped = [&](const char* what) {
    EXPECT_GT(profile.version(), seen) << what;
    seen = profile.version();
  };
  profile.reserve(1.0, 4.0, d);
  bumped("reserve");
  profile.force_reserve(2.0, 4.0, d);
  bumped("force_reserve");
  profile.force_reserve_until(3.0, 9.0, d);
  bumped("force_reserve_until");
  profile.release(2.0, 4.0, d);
  bumped("release");
  profile.release_until(3.0, 9.0, d);
  bumped("release_until");
  profile.reserve(6.0, 2.0, d);
  bumped("reserve");
  profile.prune_before(3.0);
  bumped("prune_before");

  FitStaircase memo;
  std::vector<double> row(2);
  EXPECT_TRUE(profile.fits(0.0, 1.0, d));
  const std::vector<double> full = {1.0, 1.0};
  EXPECT_EQ(profile.earliest_fit(0.0, 10.0, full, 1e-9, kNoBound, &memo),
            8.0);
  profile.available_at(4.0, row);
  EXPECT_EQ(profile.available_at(7.0), (std::vector<double>{0.75, 0.5}));
  EXPECT_EQ(profile.available_until(7.0, row), 8.0);
  EXPECT_EQ(profile.usage_at(7.0, 1), 0.5);
  EXPECT_EQ(profile.version(), seen) << "a query changed the version";

  recovery::StateWriter w;
  profile.save_state(w);
  EXPECT_EQ(profile.version(), seen) << "save_state changed the version";
  recovery::StateReader r(w.data());
  profile.restore_state(r);
  bumped("restore_state");
}

TEST(TimelineVersion, ClusterBumpsOnlyTheMachineItChanges) {
  Cluster cluster(3, 1);
  Job job;
  job.id = 0;
  job.processing = 2.0;
  job.demand = {0.5};
  const auto versions = [&] {
    return std::vector<std::uint64_t>{cluster.version(0), cluster.version(1),
                                      cluster.version(2)};
  };
  std::vector<std::uint64_t> before = versions();
  cluster.reserve(job, 1, 0.0);
  std::vector<std::uint64_t> after = versions();
  EXPECT_EQ(after[0], before[0]);
  EXPECT_GT(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);
  before = after;
  cluster.block(2, 1.0, 3.0);
  cluster.release(1, 0.0, 2.0, job.demand);
  after = versions();
  EXPECT_EQ(after[0], before[0]);
  EXPECT_GT(after[1], before[1]);
  EXPECT_GT(after[2], before[2]);
  MachineId best = kInvalidMachine;
  EXPECT_EQ(cluster.earliest_fit(job, 0.0, best), 0.0);
  EXPECT_EQ(versions(), after) << "a query changed a version";
}

TEST(TimelineVersion, AvailableUntilReturnsTheNextBreakpoint) {
  ResourceProfile profile(1);
  std::vector<double> row(1);
  EXPECT_EQ(profile.available_until(3.0, row), kNoBound);
  EXPECT_EQ(row[0], 1.0);
  profile.reserve(2.0, 3.0, std::vector<double>{0.5});
  profile.reserve(5.0, 2.0, std::vector<double>{0.25});
  const std::vector<std::pair<Time, Time>> cases = {
      {0.0, 2.0}, {1.5, 2.0}, {2.0, 5.0}, {4.0, 5.0},
      {5.0, 7.0}, {7.0, kNoBound}, {100.0, kNoBound}};
  for (const auto& [t, end] : cases) {
    EXPECT_EQ(profile.available_until(t, row), end) << "t=" << t;
  }
}

class TimelineAvailableUntil : public ::testing::TestWithParam<int> {};

TEST_P(TimelineAvailableUntil, RowHoldsUpToTheReturnedEnd) {
  // Every time below is a multiple of 1/64, so probing each grid point of
  // [t, end) visits every segment the range could cross.
  util::Xoshiro256 rng(0xa7a11ULL + static_cast<std::uint64_t>(GetParam()));
  const int resources = 1 + static_cast<int>(util::uniform_index(rng, 3));
  ResourceProfile profile(resources);
  const std::vector<Interval> live = run_mixed_ops(profile, rng, resources, 60);
  if (util::uniform01(rng) < 0.5) {
    profile.prune_before(grid_time(rng, 0.0, 20.0));
  }
  std::vector<double> row(static_cast<std::size_t>(resources));
  std::vector<double> at(row.size());
  for (int probe = 0; probe < 60; ++probe) {
    const Time t =
        std::max(profile.pruned_before(), grid_time(rng, 0.0, 60.0));
    const Time end = profile.available_until(t, row);
    ASSERT_GT(end, t);
    EXPECT_EQ(end == kNoBound, t >= profile.horizon()) << "t=" << t;
    profile.available_at(t, at);
    EXPECT_EQ(row, at) << "t=" << t;
    for (std::size_t l = 0; l < row.size(); ++l) {
      EXPECT_EQ(row[l], std::max(0.0, 1.0 - oracle_usage(live, t, l)))
          << "t=" << t << " l=" << l;
    }
    const Time last = std::min(end, profile.horizon() + 1.0);
    for (Time u = t; u < last; u += kGrid) {
      profile.available_at(u, at);
      ASSERT_EQ(row, at) << "t=" << t << " end=" << end << " u=" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineAvailableUntil, ::testing::Range(0, 8));

}  // namespace
}  // namespace mris
