#include "sim/cluster.hpp"

#include <gtest/gtest.h>

namespace mris {
namespace {

Job make_job(JobId id, Time p, std::vector<double> demand) {
  Job j;
  j.id = id;
  j.processing = p;
  j.demand = std::move(demand);
  return j;
}

TEST(ClusterTest, ConstructionValidation) {
  EXPECT_THROW(Cluster(0, 1), std::invalid_argument);
  EXPECT_THROW(Cluster(1, 0), std::invalid_argument);
  Cluster c(3, 2);
  EXPECT_EQ(c.num_machines(), 3);
  EXPECT_EQ(c.num_resources(), 2);
}

TEST(ClusterTest, FitsAndReserve) {
  Cluster c(2, 1);
  const Job big = make_job(0, 5.0, {0.9});
  EXPECT_TRUE(c.fits(big, 0, 0.0));
  c.reserve(big, 0, 0.0);
  const Job other = make_job(1, 1.0, {0.2});
  EXPECT_FALSE(c.fits(other, 0, 2.0));
  EXPECT_TRUE(c.fits(other, 1, 2.0));
}

TEST(ClusterTest, ReserveInfeasibleThrows) {
  Cluster c(1, 1);
  c.reserve(make_job(0, 5.0, {0.9}), 0, 0.0);
  EXPECT_THROW(c.reserve(make_job(1, 1.0, {0.5}), 0, 0.0), std::logic_error);
}

TEST(ClusterTest, ReserveBadMachineThrows) {
  Cluster c(1, 1);
  EXPECT_THROW(c.reserve(make_job(0, 1.0, {0.5}), 3, 0.0), std::logic_error);
}

TEST(ClusterTest, EarliestFitPrefersLowestMachineOnTies) {
  Cluster c(3, 1);
  MachineId m = kInvalidMachine;
  const Time t = c.earliest_fit(make_job(0, 1.0, {0.5}), 2.0, m);
  EXPECT_DOUBLE_EQ(t, 2.0);
  EXPECT_EQ(m, 0);
}

TEST(ClusterTest, EarliestFitPicksLeastLoadedMachine) {
  Cluster c(2, 1);
  c.reserve(make_job(0, 10.0, {1.0}), 0, 0.0);
  c.reserve(make_job(1, 4.0, {1.0}), 1, 0.0);
  MachineId m = kInvalidMachine;
  const Time t = c.earliest_fit(make_job(2, 1.0, {0.5}), 0.0, m);
  EXPECT_DOUBLE_EQ(t, 4.0);
  EXPECT_EQ(m, 1);
}

TEST(ClusterTest, AvailableReflectsPerMachineState) {
  Cluster c(2, 2);
  c.reserve(make_job(0, 2.0, {0.25, 0.5}), 1, 0.0);
  std::vector<double> a0(2), a1(2);
  c.available_into(0, 1.0, a0);
  c.available_into(1, 1.0, a1);
  EXPECT_DOUBLE_EQ(a0[0], 1.0);
  EXPECT_DOUBLE_EQ(a1[0], 0.75);
  EXPECT_DOUBLE_EQ(a1[1], 0.5);
}

TEST(ClusterTest, HorizonIsMaxOverMachines) {
  Cluster c(2, 1);
  EXPECT_DOUBLE_EQ(c.horizon(), 0.0);
  c.reserve(make_job(0, 3.0, {0.5}), 0, 1.0);
  c.reserve(make_job(1, 2.0, {0.5}), 1, 7.0);
  EXPECT_DOUBLE_EQ(c.horizon(), 9.0);
}

}  // namespace
}  // namespace mris
