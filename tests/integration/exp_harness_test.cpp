// Tests of the experiment harness itself: spec naming, evaluation,
// parallel replication, and the terminal/CSV rendering helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "exp/ascii.hpp"
#include "exp/runner.hpp"
#include "trace/generator.hpp"

namespace mris::exp {
namespace {

TEST(SpecTest, DisplayNames) {
  EXPECT_EQ(SchedulerSpec::Mris().display_name(), "MRIS-WSJF");
  EXPECT_EQ(SchedulerSpec::Mris(Heuristic::kSvf,
                                knapsack::Backend::kGreedyConstraint)
                .display_name(),
            "MRIS-SVF-GREEDY");
  EXPECT_EQ(SchedulerSpec::Pq(Heuristic::kErf).display_name(), "PQ-ERF");
  EXPECT_EQ(SchedulerSpec::Tetris().display_name(), "TETRIS");
  EXPECT_EQ(SchedulerSpec::BfExec().display_name(), "BF-EXEC");
  EXPECT_EQ(SchedulerSpec::CaPq().display_name(), "CA-PQ-WSJF");
  SchedulerSpec custom = SchedulerSpec::Tetris();
  custom.label = "mine";
  EXPECT_EQ(custom.display_name(), "mine");
}

TEST(SpecTest, LineupHasSixSchedulers) {
  EXPECT_EQ(comparison_lineup().size(), 6u);
}

TEST(SpecParseTest, CanonicalNames) {
  EXPECT_EQ(parse_scheduler_spec("mris").display_name(), "MRIS-WSJF");
  EXPECT_EQ(parse_scheduler_spec("MRIS").display_name(), "MRIS-WSJF");
  EXPECT_EQ(parse_scheduler_spec("mris-greedy").display_name(),
            "MRIS-WSJF-GREEDY");
  EXPECT_EQ(parse_scheduler_spec("mris-nobf").display_name(),
            "MRIS-WSJF-nobf");
  EXPECT_EQ(parse_scheduler_spec("mris-evscan").display_name(),
            "MRIS-WSJF-evscan");
  EXPECT_EQ(parse_scheduler_spec("tetris").display_name(), "TETRIS");
  EXPECT_EQ(parse_scheduler_spec("bfexec").display_name(), "BF-EXEC");
  EXPECT_EQ(parse_scheduler_spec("bf-exec").display_name(), "BF-EXEC");
  EXPECT_EQ(parse_scheduler_spec("drf").display_name(), "DRF");
  EXPECT_EQ(parse_scheduler_spec("hybrid").display_name(), "HYBRID-WSJF");
}

TEST(SpecParseTest, PqHeuristicSuffixes) {
  EXPECT_EQ(parse_scheduler_spec("pq").display_name(), "PQ-WSJF");
  EXPECT_EQ(parse_scheduler_spec("pq-svf").display_name(), "PQ-SVF");
  EXPECT_EQ(parse_scheduler_spec("pq-erf").display_name(), "PQ-ERF");
  EXPECT_EQ(parse_scheduler_spec("capq").display_name(), "CA-PQ-WSJF");
  EXPECT_EQ(parse_scheduler_spec("capq-wsvf").display_name(), "CA-PQ-WSVF");
}

TEST(SpecParseTest, RejectsUnknownNames) {
  EXPECT_THROW(parse_scheduler_spec("fifo"), std::invalid_argument);
  EXPECT_THROW(parse_scheduler_spec("pq-zzz"), std::invalid_argument);
  EXPECT_THROW(parse_scheduler_spec(""), std::invalid_argument);
}

TEST(SpecParseTest, ParsedSpecsInstantiate) {
  const Instance inst =
      InstanceBuilder(1, 1).add(0.0, 1.0, 1.0, {0.5}).build();
  for (const char* name :
       {"mris", "mris-greedy", "mris-evscan", "pq-sjf", "capq", "tetris",
        "bfexec", "drf", "hybrid"}) {
    const auto sched = make_scheduler(parse_scheduler_spec(name), inst);
    EXPECT_FALSE(sched->name().empty()) << name;
  }
}

TEST(EvaluateTest, MetricsConsistent) {
  const Instance inst = trace::make_patience_instance(30, 2, 10.0, 3);
  const EvalResult r = evaluate(inst, SchedulerSpec::Pq(Heuristic::kWsjf));
  EXPECT_EQ(r.num_jobs, 31u);
  EXPECT_NEAR(r.awct * static_cast<double>(r.num_jobs), r.twct, 1e-6);
  EXPECT_GT(r.makespan, 10.0);
  EXPECT_GE(r.mean_delay, 0.0);
}

TEST(ReplicateTest, AggregatesAcrossReplications) {
  const PointResult p = replicate_lineup(
      6,
      [](std::size_t rep) {
        return trace::make_patience_instance(20, 2, 10.0, rep + 1);
      },
      {SchedulerSpec::Pq(Heuristic::kWsjf)})[0];
  EXPECT_EQ(p.awct.n, 6u);
  EXPECT_GT(p.awct.mean, 0.0);
  EXPECT_GT(p.awct.half_width, 0.0);  // distinct seeds -> non-zero CI
  EXPECT_LT(p.awct.half_width, p.awct.mean);
}

TEST(ReplicateTest, DeterministicAcrossCalls) {
  auto factory = [](std::size_t rep) {
    return trace::make_patience_instance(15, 2, 8.0, rep + 10);
  };
  const std::vector<SchedulerSpec> mris = {SchedulerSpec::Mris()};
  const PointResult a = replicate_lineup(4, factory, mris)[0];
  const PointResult b = replicate_lineup(4, factory, mris)[0];
  EXPECT_DOUBLE_EQ(a.awct.mean, b.awct.mean);
  EXPECT_DOUBLE_EQ(a.awct.half_width, b.awct.half_width);
}

TEST(ReplicateLineupTest, MatchesIndividualReplicates) {
  auto factory = [](std::size_t rep) {
    return trace::make_patience_instance(15, 2, 8.0, rep + 3);
  };
  const auto lineup = std::vector<SchedulerSpec>{
      SchedulerSpec::Pq(Heuristic::kWsjf), SchedulerSpec::Tetris()};
  const auto combined = replicate_lineup(4, factory, lineup);
  ASSERT_EQ(combined.size(), 2u);
  // Sharing a rep's instance across schedulers changes no scheduler's runs.
  for (std::size_t s = 0; s < lineup.size(); ++s) {
    const PointResult solo = replicate_lineup(4, factory, {lineup[s]})[0];
    EXPECT_DOUBLE_EQ(combined[s].awct.mean, solo.awct.mean);
    EXPECT_DOUBLE_EQ(combined[s].awct.half_width, solo.awct.half_width);
    EXPECT_DOUBLE_EQ(combined[s].makespan.mean, solo.makespan.mean);
  }
}

TEST(AsciiTest, FormatNum) {
  EXPECT_EQ(format_num(0.0), "0");
  EXPECT_EQ(format_num(3.5), "3.5");
  EXPECT_EQ(format_num(1234567.0), "1.23e+06");
}

TEST(AsciiTest, RenderPlotContainsSeriesAndLegend) {
  Series s1{"alpha", {1, 2, 3}, {10, 20, 30}, {}};
  Series s2{"beta", {1, 2, 3}, {30, 20, 10}, {}};
  PlotOptions opts;
  opts.title = "demo";
  const std::string out = render_plot({s1, s2}, opts);
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(AsciiTest, RenderPlotHandlesEmptyInput) {
  const std::string out = render_plot({}, PlotOptions{});
  EXPECT_NE(out.find("no data"), std::string::npos);
}

TEST(AsciiTest, RenderPlotLogScales) {
  Series s{"wide", {1, 10, 100, 1000}, {1, 10, 100, 1000}, {}};
  PlotOptions opts;
  opts.log_x = true;
  opts.log_y = true;
  opts.ylabel = "v";
  const std::string out = render_plot({s}, opts);
  EXPECT_NE(out.find("log scale"), std::string::npos);
}

TEST(AsciiTest, RenderTableAlignsColumns) {
  const std::string out = render_table({{"name", "value"},
                                        {"a", "1"},
                                        {"longer-name", "2"}});
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(AsciiTest, RenderUsageStripShadesByLoad) {
  std::vector<UsageSample> samples = {{0.0, 1.0}, {5.0, 0.0}};
  const std::string out = render_usage_strip(samples, 10.0, "machine 0", 10);
  EXPECT_NE(out.find("machine 0"), std::string::npos);
  EXPECT_NE(out.find('@'), std::string::npos);  // full usage shading
}

TEST(AsciiTest, FormatCi) {
  util::MeanCi ci;
  ci.mean = 10.0;
  ci.half_width = 0.5;
  EXPECT_EQ(format_ci(ci), "10 ±0.5");
}

TEST(AsciiTest, WriteSeriesCsvRoundTrips) {
  const std::string path = ::testing::TempDir() + "/mris_series_test.csv";
  Series s{"pq", {1, 2}, {3, 4}, {0.1, 0.2}};
  ASSERT_TRUE(write_series_csv(path, {s}));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "series,x,y,ci95_half_width");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "pq,1,3,0.1");
  std::remove(path.c_str());
}

TEST(AsciiTest, WriteSeriesCsvFailsGracefully) {
  EXPECT_FALSE(write_series_csv("/nonexistent/dir/file.csv", {}));
}

}  // namespace
}  // namespace mris::exp
