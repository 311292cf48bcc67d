#include "exp/gantt.hpp"

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "trace/generator.hpp"

namespace mris::exp {
namespace {

TEST(GanttTest, EmptySchedule) {
  const Instance inst = InstanceBuilder(1, 1).build();
  const std::string out = render_gantt(inst, Schedule(0));
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(GanttTest, SingleJobBarSpansItsWindow) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 10.0, 1.0, {0.5}).build();
  Schedule s(1);
  s.assign(0, 0, 0.0);
  const std::string out = render_gantt(inst, s);
  EXPECT_NE(out.find("machine 0"), std::string::npos);
  EXPECT_NE(out.find('['), std::string::npos);
  EXPECT_NE(out.find(']'), std::string::npos);
  EXPECT_NE(out.find('0'), std::string::npos);  // job id label
}

TEST(GanttTest, ConcurrentJobsGetSeparateLanes) {
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 10.0, 1.0, {0.5})
                            .add(0.0, 10.0, 1.0, {0.5})
                            .build();
  Schedule s(2);
  s.assign(0, 0, 0.0);
  s.assign(1, 0, 0.0);
  const std::string out = render_gantt(inst, s);
  // Two lane rows for machine 0.
  std::size_t lanes = 0;
  for (std::size_t pos = out.find("  |"); pos != std::string::npos;
       pos = out.find("  |", pos + 1)) {
    ++lanes;
  }
  EXPECT_EQ(lanes, 2u);
}

TEST(GanttTest, SequentialJobsShareOneLane) {
  const Instance inst = InstanceBuilder(1, 1)
                            .add(0.0, 5.0, 1.0, {0.5})
                            .add(0.0, 5.0, 1.0, {0.5})
                            .build();
  Schedule s(2);
  s.assign(0, 0, 0.0);
  s.assign(1, 0, 5.0);  // back to back
  const std::string out = render_gantt(inst, s);
  std::size_t lanes = 0;
  for (std::size_t pos = out.find("  |"); pos != std::string::npos;
       pos = out.find("  |", pos + 1)) {
    ++lanes;
  }
  EXPECT_EQ(lanes, 1u);
}

TEST(GanttTest, MachinesListedSeparately) {
  const Instance inst = InstanceBuilder(3, 1)
                            .add(0.0, 2.0, 1.0, {0.5})
                            .build();
  Schedule s(1);
  s.assign(0, 1, 0.0);
  const std::string out = render_gantt(inst, s);
  EXPECT_NE(out.find("machine 0 (0 jobs)"), std::string::npos);
  EXPECT_NE(out.find("machine 1 (1 jobs)"), std::string::npos);
  EXPECT_NE(out.find("machine 2 (0 jobs)"), std::string::npos);
}

TEST(GanttTest, LaneCapElidesOverflow) {
  InstanceBuilder b(1, 1);
  for (int i = 0; i < 30; ++i) b.add(0.0, 10.0, 1.0, {0.01});
  const Instance inst = b.build();
  Schedule s(30);
  for (JobId j = 0; j < 30; ++j) s.assign(j, 0, 0.0);
  GanttOptions opts;
  opts.max_lanes = 4;
  const std::string out = render_gantt(inst, s, opts);
  std::size_t lanes = 0;
  for (std::size_t pos = out.find("  |"); pos != std::string::npos;
       pos = out.find("  |", pos + 1)) {
    ++lanes;
  }
  EXPECT_EQ(lanes, 4u);
}

TEST(GanttTest, RendersRealScheduleWithoutChoking) {
  const Instance inst = trace::make_patience_instance(40, 2, 10.0, 3);
  const std::string out =
      render_gantt(inst, evaluate(inst, SchedulerSpec::Mris()).schedule);
  EXPECT_GT(out.size(), 100u);
  EXPECT_NE(out.find("time 0 .."), std::string::npos);
}

}  // namespace
}  // namespace mris::exp
