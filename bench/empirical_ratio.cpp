// Empirical counterpart of Theorem 6.8 at trace scale: every scheduler's
// AWCT divided by a *provable lower bound* on the optimal AWCT (the fluid
// WSPT relaxation of sched/bounds.hpp), across load levels.  Ratios are
// conservative (the true competitive ratio is at most what is printed) and
// must stay far below MRIS's 8R(1+eps) certificate.
#include "bench_common.hpp"

#include "sched/bounds.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace mris;

int main() {
  bench::print_header("empirical_ratio", "Theorem 6.8, empirically");
  const std::size_t reps = util::bench_reps();
  const std::size_t n = bench::scaled(2000);
  const std::size_t base_jobs = n * std::max<std::size_t>(reps, 10);
  const trace::Workload base = bench::base_workload(base_jobs);
  util::Xoshiro256 offset_rng(util::bench_seed() ^ 0xe49u);
  const std::size_t factor = base_jobs / n;
  const auto offsets = trace::sample_offsets(factor, reps, offset_rng);

  const std::vector<exp::SchedulerSpec> lineup = exp::comparison_lineup();

  std::vector<std::vector<std::string>> table = {
      {"M", "scheduler", "AWCT / lower bound", "certificate 8R(1+eps)"}};
  std::vector<exp::Series> series;
  for (const auto& spec : lineup) series.push_back({spec.display_name(), {}, {}, {}});

  for (int machines : {1, 2, 4, 8}) {
    const auto factory =
        bench::downsample_factory(base, factor, offsets, machines);
    // Ratio per replication (bound depends on the sampled instance).
    std::vector<std::vector<double>> ratios(lineup.size(),
                                            std::vector<double>(reps));
    util::parallel_for(reps, [&](std::size_t rep) {
      const Instance inst = factory(rep);
      const double lb = awct_fluid_lower_bound(inst);
      for (std::size_t s = 0; s < lineup.size(); ++s) {
        ratios[s][rep] = exp::evaluate(inst, lineup[s]).awct / lb;
      }
    });
    for (std::size_t s = 0; s < lineup.size(); ++s) {
      const auto ci = util::mean_ci95(ratios[s]);
      table.push_back({std::to_string(machines), lineup[s].display_name(),
                       exp::format_ci(ci),
                       s == 0 ? exp::format_num(8.0 * 4 * 1.5) : ""});
      series[s].x.push_back(static_cast<double>(machines));
      series[s].y.push_back(ci.mean);
      series[s].ci.push_back(ci.half_width);
    }
  }

  exp::PlotOptions opts;
  opts.title = "AWCT over lower bound vs machines (R=4)";
  opts.xlabel = "machines M";
  opts.ylabel = "AWCT / LB";
  opts.log_x = true;
  bench::emit("empirical_ratio", series, opts, table);
  std::printf(
      "expected: all ratios far below the 8R(1+eps)=48 certificate; MRIS\n"
      "closest to the bound under heavy load (M=1), PQ-family closest when\n"
      "capacity is plentiful.\n");
  return 0;
}
