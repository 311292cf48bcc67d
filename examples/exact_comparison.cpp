// How close do online schedulers get to the true offline optimum?  On a
// tiny instance (exhaustive search is exponential) this example computes
// the exact optimal AWCT schedule, runs every online scheduler against it,
// and draws both schedules as ASCII Gantt charts.
//
//   $ ./examples/exact_comparison [seed]
#include <cstdio>
#include <cstdlib>

#include "core/metrics.hpp"
#include "exp/ascii.hpp"
#include "exp/gantt.hpp"
#include "exp/runner.hpp"
#include "sched/optimal.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace mris;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  util::Xoshiro256 rng(seed);

  // 6 jobs, 2 machines, 2 resources: small enough for the exact oracle.
  InstanceBuilder b(2, 2);
  for (int i = 0; i < 6; ++i) {
    b.add(util::uniform(rng, 0.0, 3.0), util::uniform(rng, 1.0, 4.0),
          util::uniform(rng, 0.5, 3.0),
          {util::uniform(rng, 0.2, 1.0), util::uniform(rng, 0.2, 1.0)});
  }
  const Instance inst = b.build();

  std::printf("instance (seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (const Job& j : inst.jobs()) {
    std::printf("  job %d: r=%.2f p=%.2f w=%.2f d=(%.2f, %.2f)\n", j.id,
                j.release, j.processing, j.weight, j.demand[0], j.demand[1]);
  }

  const Schedule opt = optimal_weighted_completion_schedule(inst);
  const double opt_twct = total_weighted_completion_time(inst, opt);
  std::printf("\nexact offline optimum: TWCT = %s\n%s\n",
              exp::format_num(opt_twct).c_str(),
              exp::render_gantt(inst, opt).c_str());

  std::vector<std::vector<std::string>> table = {
      {"scheduler", "TWCT", "ratio to OPT"}};
  Schedule best_online;
  std::string best_name;
  double best_twct = 0.0;
  std::vector<exp::SchedulerSpec> lineup = exp::comparison_lineup();
  lineup.push_back(exp::SchedulerSpec::Hybrid());
  for (const auto& spec : lineup) {
    exp::EvalResult r = exp::evaluate(inst, spec);
    table.push_back({spec.display_name(), exp::format_num(r.twct),
                     exp::format_num(r.twct / opt_twct)});
    if (best_name.empty() || r.twct < best_twct) {
      best_twct = r.twct;
      best_name = spec.display_name();
      best_online = std::move(r.schedule);
    }
  }
  std::printf("%s", exp::render_table(table).c_str());
  std::printf("\nbest online schedule (%s):\n%s", best_name.c_str(),
              exp::render_gantt(inst, best_online).c_str());
  std::printf(
      "\nNo online ratio exceeds MRIS's proven 8R(1+eps) = %g here (R=2,\n"
      "eps=0.5); the gap between online and offline is the price of not\n"
      "knowing the future.\n",
      8.0 * 2 * 1.5);
  return 0;
}
