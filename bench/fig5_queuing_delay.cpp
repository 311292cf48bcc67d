// Figure 5: CDF of per-job queuing delays (S_j - r_j) for selected
// schedulers, M = 20 / N = 64000 in the paper (M = 4 / N = 4000 scaled).
//
// Expected shape (Sec 7.5.2): TETRIS / BF-EXEC / PQ-WSJF have a large mass
// of zero-delay jobs followed by a sharp rise (premature commitment makes
// the remaining jobs wait long); MRIS's CDF rises gradually; CA-PQ is the
// worst (everything waits for the last release).
#include "bench_common.hpp"

#include "core/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mris;

int main() {
  bench::print_header("fig5_queuing_delay", "Figure 5 (Sec 7.5.2)");
  const std::size_t n = bench::scaled(4000);
  const int machines = static_cast<int>(util::env_int("MRIS_MACHINES", 4));
  const std::size_t factor = 10;
  const trace::Workload base = bench::base_workload(n * factor);
  const Instance inst =
      to_instance(trace::downsample(base, factor, 0), machines);

  const std::vector<exp::SchedulerSpec> lineup = {
      exp::SchedulerSpec::Mris(),
      exp::SchedulerSpec::Pq(Heuristic::kWsjf),
      exp::SchedulerSpec::Tetris(),
      exp::SchedulerSpec::BfExec(),
      exp::SchedulerSpec::CaPq(),
  };

  std::vector<exp::Series> series;
  std::vector<std::vector<std::string>> table = {
      {"scheduler", "P(delay=0)", "median", "p90", "p99", "max"}};

  for (const auto& spec : lineup) {
    const std::vector<double> delays =
        queuing_delays(inst, exp::evaluate(inst, spec).schedule);

    std::size_t zero = 0;
    for (double d : delays) {
      if (d <= 1e-9) ++zero;
    }
    table.push_back(
        {spec.display_name(),
         exp::format_num(static_cast<double>(zero) /
                         static_cast<double>(delays.size())),
         exp::format_num(util::quantile(delays, 0.5)),
         exp::format_num(util::quantile(delays, 0.9)),
         exp::format_num(util::quantile(delays, 0.99)),
         exp::format_num(util::quantile(delays, 1.0))});

    exp::Series s{spec.display_name(), {}, {}, {}};
    for (const auto& point : util::empirical_cdf(delays, 120)) {
      // Log-x plot can't show zero delays; clamp to a small positive value.
      s.x.push_back(std::max(point.value, 0.5));
      s.y.push_back(point.fraction);
    }
    series.push_back(std::move(s));
  }

  exp::PlotOptions opts;
  opts.title = "Fig 5: queuing delay CDF";
  opts.xlabel = "queuing delay (log)";
  opts.ylabel = "P(delay <= x)";
  opts.log_x = true;
  bench::emit("fig5_queuing_delay", series, opts, table);
  return 0;
}
