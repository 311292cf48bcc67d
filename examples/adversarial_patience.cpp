// Why patience matters: the Lemma 4.1 adversarial input, narrated.
//
// One machine.  A full-machine "blocker" job arrives at t=0.  Moments
// later, N-1 tiny jobs arrive that could all run concurrently.  Greedy
// priority-queue schedulers commit the blocker immediately and make every
// tiny job wait; MRIS waits one interval, sees the tiny jobs, and runs them
// first.  The paper proves this makes the PQ class Omega(N)-competitive
// (Sec 4) while MRIS stays 8R(1+eps)-competitive (Thm 6.8).
//
//   $ ./examples/adversarial_patience [N]
#include <cstdio>
#include <cstdlib>

#include "core/metrics.hpp"
#include "exp/ascii.hpp"
#include "exp/runner.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  using namespace mris;

  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 128;
  const Instance inst = trace::make_lemma41_instance(n, /*num_resources=*/2);
  std::printf(
      "Lemma 4.1 instance: N=%zu jobs, 1 machine, 2 resources.\n"
      "  job 0: release 0, p=%g, demand 1.0 (the blocker)\n"
      "  jobs 1..%zu: release 0.01, p=1, demand 1/%zu each\n\n",
      n, static_cast<double>(n), n - 1, n - 1);

  struct Row {
    exp::SchedulerSpec spec;
    exp::EvalResult result;
    Time blocker_start;
  };
  std::vector<Row> rows;
  for (const auto& spec :
       {exp::SchedulerSpec::Pq(Heuristic::kSjf), exp::SchedulerSpec::Tetris(),
        exp::SchedulerSpec::BfExec(), exp::SchedulerSpec::Mris()}) {
    const exp::EvalResult r = exp::evaluate(inst, spec);
    rows.push_back({spec, r, r.schedule.start_time(0)});
  }

  std::vector<std::vector<std::string>> table = {
      {"scheduler", "blocker starts at", "AWCT", "vs best"}};
  double best = rows.back().result.awct;
  for (const Row& row : rows) best = std::min(best, row.result.awct);
  for (const Row& row : rows) {
    table.push_back({row.spec.display_name(),
                     exp::format_num(row.blocker_start),
                     exp::format_num(row.result.awct),
                     exp::format_num(row.result.awct / best)});
  }
  std::printf("%s", exp::render_table(table).c_str());

  std::printf(
      "\nThe PQ-class schedulers start the blocker at t=0 (it is the only\n"
      "job present), so all %zu tiny jobs finish after t=%zu.  MRIS's first\n"
      "interval (gamma_0=1) sees the tiny jobs and schedules them at t=1;\n"
      "the blocker waits until the first interval with gamma_k >= %zu.\n"
      "Scaling N scales the PQ-class ratio linearly — that is Lemma 4.1.\n",
      n - 1, n, n);
  return 0;
}
