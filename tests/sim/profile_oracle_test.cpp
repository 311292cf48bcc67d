// Randomized consistency of ResourceProfile against a brute-force oracle
// that stores the raw reservation list: usage queries, window-fit checks,
// and minimality of earliest_fit (also under a random give_up bound),
// after a history of reserves and releases.  R sweeps 1..9, so the packed
// usage rows are checked at widths below, at and past one and two groups
// of four doubles.
#include <gtest/gtest.h>

#include "sim/resource_profile.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

struct Reservation {
  Time start;
  Time duration;
  std::vector<double> demand;
};

/// Oracle usage at time t: sum demands of reservations covering t.
double oracle_usage(const std::vector<Reservation>& rs, Time t, int l) {
  double usage = 0.0;
  for (const auto& r : rs) {
    if (r.start <= t && t < r.start + r.duration) {
      usage += r.demand[static_cast<std::size_t>(l)];
    }
  }
  return usage;
}

/// Oracle window fit: demand fits over [s, s+dur) against all reservations
/// at every critical point (reservation boundaries within the window).
bool oracle_fits(const std::vector<Reservation>& rs, Time s, Time dur,
                 const std::vector<double>& demand) {
  std::vector<Time> points = {s};
  for (const auto& r : rs) {
    if (r.start > s && r.start < s + dur) points.push_back(r.start);
  }
  for (Time t : points) {
    for (std::size_t l = 0; l < demand.size(); ++l) {
      if (oracle_usage(rs, t, static_cast<int>(l)) + demand[l] >
          1.0 + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

class ProfileOracle : public ::testing::TestWithParam<int> {};

TEST_P(ProfileOracle, MatchesBruteForceOracle) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 69621);
  const int R = 1 + GetParam() % 9;
  ResourceProfile profile(R);
  std::vector<Reservation> oracle;

  // Build a random feasible reservation history.
  for (int k = 0; k < 40; ++k) {
    Reservation r;
    r.start = util::uniform(rng, 0.0, 50.0);
    r.duration = util::uniform(rng, 0.5, 10.0);
    r.demand.resize(static_cast<std::size_t>(R));
    for (double& d : r.demand) d = util::uniform(rng, 0.0, 0.6);
    if (!profile.fits(r.start, r.duration, r.demand)) continue;
    profile.reserve(r.start, r.duration, r.demand);
    oracle.push_back(r);
  }
  ASSERT_FALSE(oracle.empty());
  // Cancel every third reservation (the fault model's release path).
  for (std::size_t k = oracle.size(); k-- > 0;) {
    if (k % 3 != 1) continue;
    profile.release(oracle[k].start, oracle[k].duration, oracle[k].demand);
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(k));
  }

  // Usage agreement at random probe times.
  for (int probe = 0; probe < 200; ++probe) {
    const Time t = util::uniform(rng, -1.0, 70.0);
    for (int l = 0; l < R; ++l) {
      EXPECT_NEAR(profile.usage_at(t, l),
                  t >= 0 ? oracle_usage(oracle, t, l) : oracle_usage(oracle, 0.0, l),
                  1e-9);
    }
  }

  // Window-fit agreement.
  for (int probe = 0; probe < 100; ++probe) {
    const Time s = util::uniform(rng, 0.0, 60.0);
    const Time dur = util::uniform(rng, 0.5, 12.0);
    std::vector<double> demand(static_cast<std::size_t>(R));
    for (double& d : demand) d = util::uniform(rng, 0.0, 1.0);
    EXPECT_EQ(profile.fits(s, dur, demand), oracle_fits(oracle, s, dur, demand))
        << "s=" << s << " dur=" << dur;
  }

  // earliest_fit: result fits, and no earlier candidate (breakpoint or the
  // not_before itself) fits.
  for (int probe = 0; probe < 50; ++probe) {
    const Time not_before = util::uniform(rng, 0.0, 40.0);
    const Time dur = util::uniform(rng, 0.5, 8.0);
    std::vector<double> demand(static_cast<std::size_t>(R));
    for (double& d : demand) d = util::uniform(rng, 0.05, 1.0);
    // A bounded call first: it may stop early and record a partial lower
    // bound, which must not move the unbounded answer checked below.
    const Time give_up = util::uniform(rng, not_before - 1.0, 70.0);
    const Time bounded =
        profile.earliest_fit(not_before, dur, demand, 1e-9, give_up);
    const Time s = profile.earliest_fit(not_before, dur, demand);
    if (s < give_up) {
      EXPECT_EQ(bounded, s) << "give_up=" << give_up;
    } else {
      EXPECT_GE(bounded, give_up) << "answer=" << s;
    }
    ASSERT_GE(s, not_before);
    EXPECT_TRUE(oracle_fits(oracle, s, dur, demand));
    // Candidate earlier starts: not_before and every reservation boundary
    // in (not_before, s).  Feasibility changes only at boundaries, so if
    // some earlier real start were feasible, one of these would be.
    std::vector<Time> candidates;
    if (s > not_before + 1e-9) candidates.push_back(not_before);
    for (const auto& r : oracle) {
      // Feasibility flips where the window's start or end crosses a
      // reservation boundary: s = b or s = b - dur.
      for (Time b : {r.start, r.start + r.duration, r.start - dur,
                     r.start + r.duration - dur}) {
        // Strictly-earlier margin: b - dur style candidates can coincide
        // with s up to floating-point rounding.
        if (b > not_before && b < s - 1e-6) candidates.push_back(b);
      }
    }
    for (Time c : candidates) {
      EXPECT_FALSE(oracle_fits(oracle, c, dur, demand))
          << "earliest_fit returned " << s << " but " << c << " fits";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, ProfileOracle, ::testing::Range(1, 20));

}  // namespace
}  // namespace mris
