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
#include <vector>

#include "sim/recovery/state_io.hpp"
#include "sim/resource_profile.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

constexpr double kGrid = 1.0 / 64.0;

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

/// A profile restored from a snapshot of `profile`: same timeline, empty
/// earliest_fit memo.
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
// forget.  Every answer is checked against the interval oracle and against a
// snapshot-restored copy whose memo is empty.
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
  std::vector<Interval> live;
  Time clock = 0.0;  // mostly-monotone not_before, like an engine's now
  Time pruned = 0.0;

  auto check_query = [&](Time nb, Time dur, const std::vector<double>& d,
                         double tolerance) {
    const ResourceProfile cold = cold_copy(profile);
    const Time got = profile.earliest_fit(nb, dur, d, tolerance);
    EXPECT_EQ(got, cold.earliest_fit(nb, dur, d, tolerance))
        << "not_before=" << nb << " dur=" << dur;
    // Below the prune bound the profile answers from the flattened past,
    // which the interval oracle does not model.
    if (nb >= pruned) {
      EXPECT_EQ(got, oracle_earliest_fit(live, nb, dur, d, tolerance))
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
    } else if (roll < 0.50) {  // more classes than the memo holds
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
      check_query(nb, pick_duration(), pick_row(), tolerance);
    }
  }
  EXPECT_GT(profile.fit_counters().queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineMemoHot, ::testing::Range(0, 16));

TEST(TimelineMemo, CountsQueriesAndScannedSegmentsOutsideTheSnapshot) {
  ResourceProfile profile(1);
  const std::vector<double> d = {0.75};
  for (int k = 0; k < 8; ++k) profile.reserve(2.0 * k, 1.0, d);
  recovery::StateWriter before;
  profile.save_state(before);

  // The first query walks all eight busy segments and the gaps between
  // them; the second, for the same row and duration, starts at the
  // recorded answer and examines one segment.
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, d), 15.0);
  const FitCounters cold = profile.fit_counters();
  EXPECT_EQ(cold.queries, 1u);
  EXPECT_GT(cold.segments, 8u);
  EXPECT_EQ(cold.bounded, 0u);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, d), 15.0);
  EXPECT_EQ(profile.fit_counters().queries, 2u);
  EXPECT_EQ(profile.fit_counters().segments, cold.segments + 1);
  EXPECT_EQ(profile.fit_counters().bounded, 1u);

  // Zero-length queries do no work and count nothing.
  EXPECT_EQ(profile.earliest_fit(3.0, 0.0, d), 3.0);
  EXPECT_EQ(profile.fit_counters().queries, 2u);

  // Neither the memo nor the counters reach the snapshot bytes.
  recovery::StateWriter after;
  profile.save_state(after);
  EXPECT_EQ(before.data(), after.data());
}

TEST(TimelineMemo, PastTheClassCapNewRowsRunThePlainScanUntilARelease) {
  ResourceProfile profile(2);
  const std::vector<double> busy = {0.75, 0.75};
  for (int k = 0; k < 8; ++k) profile.reserve(2.0 * k, 1.0, busy);
  // 64 rows that never repeat take every class of the memo.
  for (int k = 0; k < 64; ++k) {
    const std::vector<double> row = {0.5, 0.25 + k / 1024.0};
    EXPECT_EQ(profile.earliest_fit(0.0, 1.5, row), 15.0);
  }
  EXPECT_EQ(profile.fit_counters().bounded, 0u);
  // A row first seen past the cap gets no class: both calls scan from 0.
  const std::vector<double> late = {0.5, 0.5};
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, late), 15.0);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, late), 15.0);
  EXPECT_EQ(profile.fit_counters().bounded, 0u);
  // A release empties the memo, and the row then gets a class.
  profile.release(14.0, 1.0, busy);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, late), 13.0);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.5, late), 13.0);
  EXPECT_EQ(profile.fit_counters().bounded, 1u);
}

TEST(TimelineMemo, QueriesBelowThePruneBoundBypassIt) {
  ResourceProfile profile(1);
  const std::vector<double> full = {1.0};
  profile.reserve(0.0, 5.0, full);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.0, full), 5.0);
  // Flattening [0, 10) into the free segment at t = 10 frees the past.  A
  // query there is meaningless to the engine, but it must still answer
  // from the profile as it is, not from the answer recorded before.
  profile.prune_before(10.0);
  EXPECT_EQ(profile.earliest_fit(0.0, 1.0, full), 0.0);
  EXPECT_EQ(profile.earliest_fit(10.0, 1.0, full), 10.0);
}

}  // namespace
}  // namespace mris
