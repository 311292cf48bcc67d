// The oracle catalog, run against every scheduler in the lineup on every
// adversarial family.  These are the tentpole's teeth: each oracle is a
// relation that must hold for *all* instances, so any future scheduler or
// engine change that breaks one fails here with a concrete (family, seed)
// to shrink.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testkit/generators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/streams.hpp"

namespace mris::testkit {
namespace {

/// Every parse_scheduler_spec() lineup member, both MRIS backends included.
const std::vector<std::string>& lineup() {
  static const std::vector<std::string> kLineup = {
      "mris", "mris-greedy", "pq-wsjf", "capq", "tetris",
      "bfexec", "drf", "hybrid"};
  return kLineup;
}

class OracleMatrixTest : public ::testing::TestWithParam<std::string> {};

/// Sweeps oracle x lineup x families x seeds; any failure reports the
/// exact coordinates so the instance can be regenerated and shrunk.
void sweep(const std::string& oracle, std::size_t seeds,
           std::size_t num_jobs = 24) {
  const OracleCatalog catalog = OracleCatalog::standard();
  for (const std::string& scheduler : lineup()) {
    for (Family family : all_families()) {
      for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        GenConfig config;
        config.num_jobs = num_jobs;
        const Instance inst = make_family_instance(family, config, seed);
        const OracleResult r =
            run_oracle(catalog, oracle, inst, scheduler);
        EXPECT_TRUE(r.ok) << oracle << " / " << scheduler << " / "
                          << family_name(family) << " seed " << seed << ": "
                          << r.message;
      }
    }
  }
}

TEST_P(OracleMatrixTest, HoldsAcrossLineupAndFamilies) {
  sweep(GetParam(), fuzz_iters(2));
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, OracleMatrixTest,
    ::testing::Values("validator-clean", "validator-clean-faults",
                      "fault-replay-determinism", "weight-scaling",
                      "time-scaling", "resource-permutation",
                      "machine-augmentation", "job-removal"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OraclesTest, EngineSurvivesChaoticScheduler) {
  const OracleCatalog catalog = OracleCatalog::standard();
  for (Family family : all_families()) {
    for (std::uint64_t seed = 0; seed < fuzz_iters(3); ++seed) {
      GenConfig config;
      config.num_jobs = 24;
      const Instance inst = make_family_instance(family, config, seed);
      Params params;
      params["chaos_seed"] = std::to_string(1000 + seed);
      const OracleResult r =
          run_oracle(catalog, "engine-chaos", inst, "mris", params);
      EXPECT_TRUE(r.ok) << family_name(family) << " seed " << seed << ": "
                        << r.message;
    }
  }
}

TEST(OraclesTest, CatalogNamesAreCompleteAndSorted) {
  const std::vector<std::string> names = OracleCatalog::standard().names();
  const std::vector<std::string> expected = {
      "crash-recovery",       "engine-chaos",
      "fault-replay-determinism", "job-removal",
      "machine-augmentation", "ratio-awct",
      "ratio-makespan",       "resource-permutation",
      "streaming-equivalence", "time-scaling",
      "validator-clean",      "validator-clean-faults",
      "weight-scaling"};
  EXPECT_EQ(names, expected);
  // Fixtures extend, never replace.
  const auto with = OracleCatalog::with_fixtures().names();
  EXPECT_EQ(with.size(), expected.size() + 1);
}

TEST(OraclesTest, UnknownOracleAndSchedulerThrow) {
  const OracleCatalog catalog = OracleCatalog::standard();
  GenConfig config;
  config.num_jobs = 4;
  const Instance inst = make_family_instance(Family::kMixed, config, 0);
  EXPECT_THROW(run_oracle(catalog, "no-such-oracle", inst, "mris"),
               std::invalid_argument);
  EXPECT_THROW(run_oracle(catalog, "validator-clean", inst, "fifo"),
               std::invalid_argument);
}

TEST(OraclesTest, DuplicateRegistrationThrows) {
  OracleCatalog catalog = OracleCatalog::standard();
  EXPECT_THROW(
      catalog.add("validator-clean",
                  [](const Instance&, const exp::SchedulerSpec&,
                     const Params&) { return OracleResult{}; }),
      std::invalid_argument);
}

TEST(OraclesTest, CompetitiveBoundTracksBackendAndResources) {
  exp::SchedulerSpec cadp = exp::parse_scheduler_spec("mris");
  // 8 R (1 + eps) with the CADP eps (default 0.5).
  EXPECT_DOUBLE_EQ(competitive_bound(cadp, 1, 1), 8.0 * 1.5);
  EXPECT_DOUBLE_EQ(competitive_bound(cadp, 4, 3), 32.0 * 1.5);
  // The greedy backend's overshoot corresponds to eps' = 1/M.
  exp::SchedulerSpec greedy = exp::parse_scheduler_spec("mris-greedy");
  EXPECT_DOUBLE_EQ(competitive_bound(greedy, 2, 1), 16.0 * 2.0);
  EXPECT_DOUBLE_EQ(competitive_bound(greedy, 2, 4), 16.0 * 1.25);
}

TEST(OraclesTest, FixtureOracleFailsAsDesigned) {
  const OracleCatalog catalog = OracleCatalog::with_fixtures();
  GenConfig config;
  config.num_jobs = 50;
  const Instance heavy =
      make_family_instance(Family::kDominantResource, config, 0);
  const OracleResult r =
      run_oracle(catalog, "fixture-triple-heavy", heavy, "mris");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("deliberately broken"), std::string::npos);
}

TEST(OraclesTest, ExceptionsBecomeFailingResultsNotCrashes) {
  OracleCatalog catalog;
  catalog.add("throws", [](const Instance&, const exp::SchedulerSpec&,
                           const Params&) -> OracleResult {
    throw std::runtime_error("boom");
  });
  GenConfig config;
  config.num_jobs = 4;
  const Instance inst = make_family_instance(Family::kMixed, config, 0);
  const OracleResult r = run_oracle(catalog, "throws", inst, "mris");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("boom"), std::string::npos);
}

TEST(OraclesTest, MonotonicityOraclesRespectSlackParam) {
  // With an absurdly tight slack the oracles must be able to fail — they
  // are bounded-degradation checks, not exact monotonicity (Graham).
  const OracleCatalog catalog = OracleCatalog::standard();
  Params tight;
  tight["slack"] = "0.0001";
  bool any_failed = false;
  for (std::uint64_t seed = 0; seed < 5 && !any_failed; ++seed) {
    GenConfig config;
    config.num_jobs = 16;
    const Instance inst =
        make_family_instance(Family::kMixed, config, seed);
    any_failed = !run_oracle(catalog, "machine-augmentation", inst, "pq-wsjf",
                             tight)
                      .ok;
  }
  EXPECT_TRUE(any_failed) << "slack knob appears to be ignored";
}

}  // namespace
}  // namespace mris::testkit
