// The price of non-preemption: the paper's model forbids preemption and
// migration (Sec 1 argues their real-world costs), while the preemptive
// related work (Im et al. [15, 16]) reallocates rates continuously and
// obtains O(1) ratios.  This bench runs the preemptive fluid reference
// (sched/fluid.hpp) next to the non-preemptive schedulers across load
// levels: the gap between the fluid AWCT and MRIS's AWCT is what giving up
// preemption costs; the gap between MRIS and the PQ family is what MRIS's
// patience recovers.
#include "bench_common.hpp"

#include "sched/fluid.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace mris;

int main() {
  bench::print_header("price_of_nonpreemption",
                      "preemptive reference (Sec 2.2.2 related work)");
  const std::size_t reps = util::bench_reps();
  // The fluid simulator recomputes an O(N R)-per-round allocation at every
  // event; keep N modest by default.
  const std::size_t n = bench::scaled(1000);
  const std::size_t base_jobs = n * std::max<std::size_t>(reps, 10);
  const trace::Workload base = bench::base_workload(base_jobs);
  util::Xoshiro256 offset_rng(util::bench_seed() ^ 0xfedu);
  const std::size_t factor = base_jobs / n;
  const auto offsets = trace::sample_offsets(factor, reps, offset_rng);

  const std::vector<exp::SchedulerSpec> lineup = {
      exp::SchedulerSpec::Mris(),
      exp::SchedulerSpec::Pq(Heuristic::kWsjf),
      exp::SchedulerSpec::Tetris(),
  };

  std::vector<std::vector<std::string>> table = {
      {"M", "scheduler", "AWCT", "x over fluid"}};
  std::vector<exp::Series> series;
  series.push_back({"FLUID(preemptive)", {}, {}, {}});
  for (const auto& spec : lineup) series.push_back({spec.display_name(), {}, {}, {}});

  for (int machines : {1, 2, 4}) {
    const auto factory =
        bench::downsample_factory(base, factor, offsets, machines);
    std::vector<double> fluid_awct(reps);
    std::vector<std::vector<double>> alg_awct(lineup.size(),
                                              std::vector<double>(reps));
    util::parallel_for(reps, [&](std::size_t rep) {
      const Instance inst = factory(rep);
      fluid_awct[rep] = fluid_max_min_schedule(inst).awct;
      for (std::size_t s = 0; s < lineup.size(); ++s) {
        alg_awct[s][rep] = exp::evaluate(inst, lineup[s]).awct;
      }
    });
    const auto fluid_ci = util::mean_ci95(fluid_awct);
    table.push_back({std::to_string(machines), "FLUID(preemptive)",
                     exp::format_ci(fluid_ci), "1"});
    series[0].x.push_back(machines);
    series[0].y.push_back(fluid_ci.mean);
    for (std::size_t s = 0; s < lineup.size(); ++s) {
      const auto ci = util::mean_ci95(alg_awct[s]);
      table.push_back({std::to_string(machines), lineup[s].display_name(),
                       exp::format_ci(ci),
                       exp::format_num(ci.mean / fluid_ci.mean)});
      series[s + 1].x.push_back(machines);
      series[s + 1].y.push_back(ci.mean);
      series[s + 1].ci.push_back(ci.half_width);
    }
  }

  exp::PlotOptions opts;
  opts.title = "AWCT: preemptive fluid reference vs non-preemptive";
  opts.xlabel = "machines M";
  opts.ylabel = "AWCT";
  opts.log_x = true;
  bench::emit("price_of_nonpreemption", series, opts, table);
  std::printf(
      "expected: the fluid reference is cheapest everywhere (free\n"
      "preemption + migration + pooling); MRIS narrows the gap most under\n"
      "load — the regime the paper targets.\n");
  return 0;
}
