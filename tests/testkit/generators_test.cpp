// The adversarial families: determinism, invariants, and the edge
// structure each family promises (that structure is what makes them
// adversarial — a family silently losing its edge would hollow out every
// suite built on it).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "testkit/generators.hpp"

namespace mris::testkit {
namespace {

bool identical(const Instance& a, const Instance& b) {
  if (a.num_jobs() != b.num_jobs() || a.num_machines() != b.num_machines() ||
      a.num_resources() != b.num_resources()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_jobs(); ++i) {
    const Job& x = a.jobs()[i];
    const Job& y = b.jobs()[i];
    if (x.release != y.release || x.processing != y.processing ||
        x.weight != y.weight || x.demand != y.demand) {
      return false;
    }
  }
  return true;
}

TEST(GeneratorsTest, FamilyNamesRoundTrip) {
  for (Family f : all_families()) {
    EXPECT_EQ(family_from_name(family_name(f)), f);
  }
  EXPECT_THROW(family_from_name("nope"), std::invalid_argument);
}

TEST(GeneratorsTest, EveryFamilyIsDeterministicAndValid) {
  for (Family f : all_families()) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      GenConfig config;
      config.num_jobs = 32;
      const Instance a = make_family_instance(f, config, seed);
      const Instance b = make_family_instance(f, config, seed);
      EXPECT_TRUE(identical(a, b))
          << family_name(f) << " seed " << seed << " not deterministic";
      // Instance construction enforces the model invariants; spot-check the
      // testkit-specific normalization p_j >= 1 on top.
      for (const Job& j : a.jobs()) {
        EXPECT_GE(j.processing, 1.0) << family_name(f);
      }
      EXPECT_GE(a.num_jobs(), 1u);
    }
  }
}

TEST(GeneratorsTest, DistinctSeedsGiveDistinctInstances) {
  GenConfig config;
  config.num_jobs = 16;
  const Instance a = make_family_instance(Family::kMixed, config, 1);
  const Instance b = make_family_instance(Family::kMixed, config, 2);
  EXPECT_FALSE(identical(a, b));
}

TEST(GeneratorsTest, ReleaseBurstCollapsesReleaseInstants) {
  GenConfig config;
  config.num_jobs = 64;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Instance inst =
        make_family_instance(Family::kReleaseBurst, config, seed);
    std::set<double> instants;
    for (const Job& j : inst.jobs()) instants.insert(j.release);
    EXPECT_LE(instants.size(), 4u) << "seed " << seed;
  }
}

TEST(GeneratorsTest, NearCapacityDemandsSitOnFeasibilityEdges) {
  GenConfig config;
  config.num_jobs = 48;
  const Instance inst =
      make_family_instance(Family::kNearCapacity, config, 3);
  const std::set<double> edges = {1.0,
                                  std::nextafter(1.0, 0.0),
                                  0.5,
                                  std::nextafter(0.5, 1.0),
                                  std::nextafter(0.5, 0.0),
                                  1.0 / 3.0,
                                  std::nextafter(2.0 / 3.0, 1.0)};
  for (const Job& j : inst.jobs()) {
    for (double d : j.demand) {
      EXPECT_TRUE(edges.count(d)) << "demand " << d << " off the edge set";
    }
  }
}

TEST(GeneratorsTest, UlpBoundaryContainsOneUlpProcessingPairs) {
  GenConfig config;
  config.num_jobs = 64;
  const Instance inst =
      make_family_instance(Family::kUlpBoundary, config, 0);
  // At least one adjacent pair of jobs must have processing times exactly
  // one ulp apart — the family's reason to exist.
  bool found = false;
  for (std::size_t i = 0; i + 1 < inst.num_jobs(); ++i) {
    const double p = inst.jobs()[i].processing;
    const double q = inst.jobs()[i + 1].processing;
    if (q == std::nextafter(p, 1e9) || q == std::nextafter(p, 0.0)) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GeneratorsTest, KnapsackTiesProduceBitIdenticalVolumes) {
  GenConfig config;
  config.num_jobs = 60;
  const Instance inst =
      make_family_instance(Family::kKnapsackTies, config, 2);
  // Group by (weight, processing): every group's members must have *bit
  // identical* volume p * u, the knapsack tie the family stresses.
  std::size_t tied = 0;
  for (std::size_t i = 0; i < inst.num_jobs(); ++i) {
    for (std::size_t k = i + 1; k < inst.num_jobs(); ++k) {
      const Job& a = inst.jobs()[i];
      const Job& b = inst.jobs()[k];
      if (a.weight == b.weight && a.processing == b.processing &&
          a.release == b.release) {
        EXPECT_EQ(a.volume(), b.volume());
        ++tied;
      }
    }
  }
  EXPECT_GE(tied, 10u) << "family lost its tie groups";
}

TEST(GeneratorsTest, GammaEdgeProcessingHugsPowersOfTwo) {
  GenConfig config;
  config.num_jobs = 48;
  const Instance inst = make_family_instance(Family::kGammaEdge, config, 1);
  for (const Job& j : inst.jobs()) {
    const double nearest =
        std::ldexp(1.0, static_cast<int>(std::lround(std::log2(j.processing))));
    EXPECT_TRUE(j.processing == nearest ||
                j.processing == std::nextafter(nearest, 0.0) ||
                j.processing == std::nextafter(nearest, 1e9) ||
                j.processing == 1.0)
        << "p = " << j.processing << " not at/around a power of two";
  }
}

TEST(GeneratorsTest, DominantResourceSkewsOneAxis) {
  GenConfig config;
  config.num_jobs = 40;
  const Instance inst =
      make_family_instance(Family::kDominantResource, config, 4);
  ASSERT_GE(inst.num_resources(), 2);
  for (const Job& j : inst.jobs()) {
    EXPECT_GE(j.dominant_demand(), 0.6);
    int heavy = 0;
    for (double d : j.demand) {
      if (d > 0.05) ++heavy;
    }
    EXPECT_EQ(heavy, 1) << "more than one dominant axis";
  }
}

TEST(GeneratorsTest, PatienceIsSingleMachineWithFullDemandBlocker) {
  GenConfig config;
  config.num_jobs = 24;
  const Instance inst = make_family_instance(Family::kPatience, config, 1);
  EXPECT_EQ(inst.num_machines(), 1);
  const Job& blocker = inst.jobs()[0];
  for (double d : blocker.demand) EXPECT_EQ(d, 1.0);
  for (const Job& j : inst.jobs()) {
    EXPECT_LE(j.dominant_demand(), 1.0);
  }
}

TEST(GeneratorsTest, ConfigOverridesShapeDraws) {
  GenConfig config;
  config.num_jobs = 10;
  config.machines = 3;
  config.resources = 2;
  for (Family f : all_families()) {
    const Instance inst = make_family_instance(f, config, 0);
    EXPECT_EQ(inst.num_machines(), 3) << family_name(f);
    EXPECT_GE(inst.num_resources(), 2) << family_name(f);
  }
}

}  // namespace
}  // namespace mris::testkit
