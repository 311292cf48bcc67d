#include "sim/resource_profile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace mris {
namespace {

TEST(ResourceProfileTest, EmptyProfileFitsEverythingWithinCapacity) {
  ResourceProfile p(2);
  const std::vector<double> d = {1.0, 1.0};
  EXPECT_TRUE(p.fits(0.0, 100.0, d));
  EXPECT_DOUBLE_EQ(p.earliest_fit(5.0, 10.0, d), 5.0);
}

TEST(ResourceProfileTest, UsageAtReflectsReservation) {
  ResourceProfile p(2);
  const std::vector<double> d = {0.4, 0.7};
  p.reserve(2.0, 3.0, d);  // occupies [2, 5)
  EXPECT_DOUBLE_EQ(p.usage_at(1.9, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.usage_at(2.0, 0), 0.4);
  EXPECT_DOUBLE_EQ(p.usage_at(4.999, 1), 0.7);
  EXPECT_DOUBLE_EQ(p.usage_at(5.0, 1), 0.0);
}

TEST(ResourceProfileTest, AvailableAtIsComplement) {
  ResourceProfile p(2);
  p.reserve(0.0, 1.0, std::vector<double>{0.25, 1.0});
  const auto avail = p.available_at(0.5);
  EXPECT_DOUBLE_EQ(avail[0], 0.75);
  EXPECT_DOUBLE_EQ(avail[1], 0.0);
}

TEST(ResourceProfileTest, FitsDetectsPartialOverlapConflict) {
  ResourceProfile p(1);
  p.reserve(2.0, 2.0, std::vector<double>{0.6});  // [2, 4)
  const std::vector<double> d = {0.6};
  EXPECT_TRUE(p.fits(0.0, 2.0, d));    // [0, 2) just touches
  EXPECT_FALSE(p.fits(0.0, 2.5, d));   // overlaps [2, 2.5)
  EXPECT_FALSE(p.fits(3.9, 1.0, d));   // overlaps [3.9, 4)
  EXPECT_TRUE(p.fits(4.0, 1.0, d));    // starts at release boundary
}

TEST(ResourceProfileTest, EarliestFitSkipsBusySegments) {
  ResourceProfile p(1);
  p.reserve(0.0, 4.0, std::vector<double>{0.8});  // [0, 4)
  const std::vector<double> d = {0.5};
  EXPECT_DOUBLE_EQ(p.earliest_fit(0.0, 2.0, d), 4.0);
}

TEST(ResourceProfileTest, EarliestFitFindsGapBetweenReservations) {
  ResourceProfile p(1);
  p.reserve(0.0, 2.0, std::vector<double>{0.9});   // [0, 2)
  p.reserve(5.0, 2.0, std::vector<double>{0.9});   // [5, 7)
  const std::vector<double> d = {0.5};
  // A 3-unit job fits exactly in the [2, 5) gap.
  EXPECT_DOUBLE_EQ(p.earliest_fit(0.0, 3.0, d), 2.0);
  // A 4-unit job does not fit in the gap; must wait until 7.
  EXPECT_DOUBLE_EQ(p.earliest_fit(0.0, 4.0, d), 7.0);
}

TEST(ResourceProfileTest, EarliestFitRespectsNotBefore) {
  ResourceProfile p(1);
  const std::vector<double> d = {0.5};
  EXPECT_DOUBLE_EQ(p.earliest_fit(3.25, 1.0, d), 3.25);
}

TEST(ResourceProfileTest, ConcurrentReservationsAccumulate) {
  ResourceProfile p(1);
  p.reserve(0.0, 10.0, std::vector<double>{0.5});
  p.reserve(0.0, 10.0, std::vector<double>{0.4});
  EXPECT_DOUBLE_EQ(p.usage_at(5.0, 0), 0.9);
  EXPECT_FALSE(p.fits(0.0, 1.0, std::vector<double>{0.2}));
  EXPECT_TRUE(p.fits(0.0, 1.0, std::vector<double>{0.1}));
}

TEST(ResourceProfileTest, MultiResourceConflictOnAnyDimensionBlocks) {
  ResourceProfile p(2);
  p.reserve(0.0, 5.0, std::vector<double>{0.1, 0.9});
  // Resource 0 has room; resource 1 does not.
  EXPECT_FALSE(p.fits(0.0, 1.0, std::vector<double>{0.1, 0.2}));
  EXPECT_DOUBLE_EQ(p.earliest_fit(0.0, 1.0, std::vector<double>{0.1, 0.2}),
                   5.0);
}

TEST(ResourceProfileTest, ReserveSplitsSegmentsCorrectly) {
  ResourceProfile p(1);
  p.reserve(0.0, 10.0, std::vector<double>{0.3});
  p.reserve(4.0, 2.0, std::vector<double>{0.3});  // nested interval
  EXPECT_DOUBLE_EQ(p.usage_at(3.0, 0), 0.3);
  EXPECT_DOUBLE_EQ(p.usage_at(4.0, 0), 0.6);
  EXPECT_DOUBLE_EQ(p.usage_at(6.0, 0), 0.3);
  EXPECT_DOUBLE_EQ(p.usage_at(10.0, 0), 0.0);
}

TEST(ResourceProfileTest, HorizonTracksLastReservationEnd) {
  ResourceProfile p(1);
  EXPECT_DOUBLE_EQ(p.horizon(), 0.0);
  p.reserve(1.0, 2.0, std::vector<double>{0.5});
  EXPECT_DOUBLE_EQ(p.horizon(), 3.0);
  p.reserve(10.0, 5.0, std::vector<double>{0.5});
  EXPECT_DOUBLE_EQ(p.horizon(), 15.0);
}

TEST(ResourceProfileTest, ZeroDurationFitsTrivially) {
  ResourceProfile p(1);
  p.reserve(0.0, 5.0, std::vector<double>{1.0});
  EXPECT_TRUE(p.fits(2.0, 0.0, std::vector<double>{1.0}));
}

TEST(ResourceProfileTest, ToleranceAllowsExactCapacity) {
  ResourceProfile p(1);
  p.reserve(0.0, 1.0, std::vector<double>{0.3});
  p.reserve(0.0, 1.0, std::vector<double>{0.3});
  p.reserve(0.0, 1.0, std::vector<double>{0.1});
  // 0.3 + 0.3 + 0.1 + 0.3 == 1.0 exactly (modulo float dust).
  EXPECT_TRUE(p.fits(0.0, 1.0, std::vector<double>{0.3}));
}

TEST(ResourceProfileTest, EarliestFitAfterManyBackToBackJobs) {
  ResourceProfile p(1);
  const std::vector<double> full = {1.0};
  for (int i = 0; i < 50; ++i) {
    p.reserve(static_cast<double>(i), 1.0, full);
  }
  EXPECT_DOUBLE_EQ(p.earliest_fit(0.0, 1.0, std::vector<double>{0.01}), 50.0);
}

TEST(ResourceProfileTest, ReleaseClampsDustToPositiveZero) {
  // Releasing a hair more than was reserved leaves a residue in
  // (-1e-12, 0); release() must store it as +0.0 (sign bit clear), since
  // usage rows are compared bitwise when segments coalesce.  Resource 1
  // keeps the segment distinct from its neighbours, so it survives.
  ResourceProfile p(5);
  p.reserve(1.0, 1.0, std::vector<double>{0.3 + 4e-13, 0.5, 0.0, 0.0, 0.0});
  p.release(1.0, 1.0, std::vector<double>{0.3 + 8e-13, 0.0, 0.0, 0.0, 0.0});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.usage_at(1.5, 0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_DOUBLE_EQ(p.usage_at(1.5, 1), 0.5);
}

}  // namespace
}  // namespace mris
