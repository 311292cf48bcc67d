// Figure 7: "exercising patience" — the synthetic adversarial input of
// Sec 7.5.4.  One machine; a full-machine blocker of 14 time units released
// at t=0; ~2500 small jobs released shortly after.  PQ / TETRIS / BF-EXEC
// all commit the blocker immediately; MRIS defers it and runs the small
// jobs first, achieving roughly 3x lower AWCT.  CPU usage over time is
// rendered for each scheduler, mirroring the paper's schedule pictures.
#include "bench_common.hpp"

#include "core/metrics.hpp"

using namespace mris;

int main() {
  bench::print_header("fig7_patience", "Figure 7 (Sec 7.5.4)");
  const std::size_t small_jobs = bench::scaled(2500) - 1;
  const Instance inst = trace::make_patience_instance(
      small_jobs, /*num_resources=*/5, /*blocker_duration=*/14.0,
      util::bench_seed());

  const std::vector<exp::SchedulerSpec> lineup = {
      exp::SchedulerSpec::Mris(),
      exp::SchedulerSpec::Pq(Heuristic::kWsjf),
      exp::SchedulerSpec::Tetris(),
      exp::SchedulerSpec::BfExec(),
  };

  std::vector<std::vector<std::string>> table = {
      {"scheduler", "AWCT", "blocker start", "makespan", "vs MRIS"}};
  double mris_awct = 0.0;
  std::vector<exp::Series> series;
  Time t_end = 0.0;

  struct Run {
    exp::SchedulerSpec spec;
    exp::EvalResult result;
  };
  std::vector<Run> runs;
  for (const auto& spec : lineup) {
    runs.push_back({spec, exp::evaluate(inst, spec)});
    t_end = std::max(t_end, runs.back().result.makespan);
  }

  for (const Run& run : runs) {
    if (mris_awct == 0.0) mris_awct = run.result.awct;
    table.push_back({run.spec.display_name(),
                     exp::format_num(run.result.awct),
                     exp::format_num(run.result.schedule.start_time(0)),
                     exp::format_num(run.result.makespan),
                     exp::format_num(run.result.awct / mris_awct)});
    exp::Series s{run.spec.display_name(), {}, {}, {}};
    for (const auto& sample :
         usage_over_time(inst, run.result.schedule, 0, trace::kCpu)) {
      s.x.push_back(sample.t);
      s.y.push_back(sample.usage);
    }
    series.push_back(std::move(s));
  }

  std::printf("%s\n", exp::render_table(table).c_str());
  std::printf("CPU usage over time (0 .. %s) per scheduler:\n",
              exp::format_num(t_end).c_str());
  for (const Run& run : runs) {
    const auto samples =
        usage_over_time(inst, run.result.schedule, 0, trace::kCpu);
    std::printf("%s", exp::render_usage_strip(samples, t_end,
                                              run.spec.display_name())
                          .c_str());
  }

  exp::PlotOptions opts;
  opts.title = "Fig 7: CPU usage over time (machine 0)";
  opts.xlabel = "time";
  opts.ylabel = "CPU usage";
  bench::emit("fig7_patience", series, opts, {{"see table above"}});
  return 0;
}
