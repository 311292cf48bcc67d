#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mris::util {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RethrowsBodyException) {
  EXPECT_THROW(parallel_for(10,
                            [](std::size_t i) {
                              if (i == 5) throw std::logic_error("bad");
                            }),
               std::logic_error);
}

TEST(ParallelForTest, RethrowsLowestFailingIndex) {
  // Index 17 throws last in wall-clock order (when there is more than one
  // thread); the lowest failing index still wins.
  for (int round = 0; round < 5; ++round) {
    try {
      parallel_for(64, [](std::size_t i) {
        if (i == 17) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (i == 17 || i == 40 || i == 63) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "17");
    }
  }
}

TEST(ParallelForTest, ComputesCorrectSum) {
  std::vector<double> out(512);
  parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 2.0 * 511.0 * 512.0 / 2.0);
}

TEST(ParallelForTest, FewerItemsThanThreads) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleItem) {
  int value = 0;
  parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ParallelForTest, RethrowsWhenEveryIndexThrows) {
  try {
    parallel_for(64, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ParallelForTest, NestedCallCompletes) {
  // Each call owns its threads, so a body may call parallel_for itself
  // (at most 2 + 2 * 4 threads here).
  std::vector<std::vector<std::atomic<int>>> hits(2);
  for (auto& v : hits) v = std::vector<std::atomic<int>>(4);
  parallel_for(hits.size(), [&](std::size_t outer) {
    parallel_for(hits[outer].size(),
                 [&](std::size_t inner) { ++hits[outer][inner]; });
  });
  for (const auto& v : hits) {
    for (const auto& h : v) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ConcurrentCallers) {
  // Several threads calling parallel_for at once; every index of every
  // call must run exactly once.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kItems = 500;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) v = std::vector<std::atomic<int>>(kItems);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      parallel_for(kItems, [&hits, c](std::size_t i) { ++hits[c][i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& v : hits) {
    for (const auto& h : v) EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace mris::util
