#include "exp/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace mris::exp {

namespace {

/// Metrics of a faulty run come from the *actual* attempts: a straggler
/// finishes later than its declared completion and a retried job's final
/// start is the one that stuck, so schedule-derived metrics would lie.
EvalResult metrics_from_attempts(const Instance& inst,
                                 const std::vector<Attempt>& attempts) {
  const std::size_t n = inst.num_jobs();
  std::vector<Time> completion(n, 0.0), start(n, 0.0);
  for (const Attempt& a : attempts) {
    if (a.outcome != Attempt::Outcome::kCompleted) continue;
    const std::size_t i = static_cast<std::size_t>(a.job);
    completion[i] = a.end;
    start[i] = a.start;
  }
  EvalResult r;
  r.num_jobs = n;
  double twct = 0.0, twft = 0.0, delay = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Job& j = inst.jobs()[i];
    twct += j.weight * completion[i];
    twft += j.weight * (completion[i] - j.release);
    delay += start[i] - j.release;
    r.makespan = std::max(r.makespan, completion[i]);
  }
  r.twct = twct;
  if (n > 0) {
    r.awct = twct / static_cast<double>(n);
    r.awft = twft / static_cast<double>(n);
    r.mean_delay = delay / static_cast<double>(n);
  }
  return r;
}

EvalResult evaluate_impl(const Instance& inst, const SchedulerSpec& spec,
                         RunOptions options) {
  const std::unique_ptr<OnlineScheduler> scheduler =
      make_scheduler(spec, inst);
  const bool faulty = options.faults != nullptr && !options.faults->empty();
  if (!faulty) options.faults = nullptr;
  RunResult run = run_online(inst, *scheduler, options);

  EvalResult r;
  if (faulty) {
    const ValidationResult valid =
        validate_fault_run(inst, *options.faults, run.attempts, run.schedule);
    if (!valid) {
      throw std::runtime_error("infeasible faulty run from " +
                               spec.display_name() + ": " + valid.message);
    }
    r = metrics_from_attempts(inst, run.attempts);
    const FaultMetrics fm =
        summarize_attempts(inst, run.attempts, options.faults);
    for (int k : fm.retries) r.retries += static_cast<std::size_t>(k);
    r.wasted_work = fm.wasted_work;
    r.checkpoint_overhead = fm.checkpoint_overhead;
    r.salvaged_work = fm.salvaged_work;
    r.goodput = fm.goodput;
  } else {
    const ValidationResult valid = validate_schedule(inst, run.schedule);
    if (!valid) {
      throw std::runtime_error("infeasible schedule from " +
                               spec.display_name() + ": " + valid.message);
    }
    r.num_jobs = inst.num_jobs();
    r.awct = average_weighted_completion_time(inst, run.schedule);
    r.twct = total_weighted_completion_time(inst, run.schedule);
    r.awft = average_weighted_flow_time(inst, run.schedule);
    r.makespan = mris::makespan(inst, run.schedule);
    r.mean_delay = mean_queuing_delay(inst, run.schedule);
  }
  r.recovery = run.recovery;
  r.schedule = std::move(run.schedule);
  return r;
}

/// Mean ± CI of one metric over the runs that did not fail.
util::MeanCi mean_ci_over(const std::vector<EvalResult>& runs,
                          double EvalResult::*metric) {
  std::vector<double> kept;
  kept.reserve(runs.size());
  for (const EvalResult& r : runs) {
    if (!r.failed) kept.push_back(r.*metric);
  }
  return util::mean_ci95(kept);
}

}  // namespace

EvalResult evaluate(const Instance& inst, const SchedulerSpec& spec,
                    RunOptions options) {
  try {
    return evaluate_impl(inst, spec, std::move(options));
  } catch (const std::exception& e) {
    EvalResult r;
    r.num_jobs = inst.num_jobs();
    r.failed = true;
    r.error = e.what();
    return r;
  }
}

std::vector<PointResult> replicate_lineup(
    std::size_t reps,
    const std::function<Instance(std::size_t)>& make_instance,
    const std::vector<SchedulerSpec>& lineup, const FaultFactory& make_faults) {
  // Parallelize over (rep, scheduler) pairs; the instance and fault plan
  // for a rep are built once and shared read-only by all schedulers.
  const std::size_t S = lineup.size();
  std::vector<Instance> instances(reps);
  std::vector<FaultPlan> plans(make_faults ? reps : 0);
  util::parallel_for(reps, [&](std::size_t rep) {
    instances[rep] = make_instance(rep);
    if (make_faults) plans[rep] = make_faults(rep);
  });
  std::vector<std::vector<EvalResult>> runs(S, std::vector<EvalResult>(reps));
  util::parallel_for(reps * S, [&](std::size_t idx) {
    const std::size_t rep = idx / S;
    const std::size_t s = idx % S;
    RunOptions options;
    if (make_faults) options.faults = &plans[rep];
    EvalResult& r = runs[s][rep];
    r = evaluate(instances[rep], lineup[s], std::move(options));
    r.schedule = Schedule();  // only the metrics are aggregated
  });

  std::vector<PointResult> out(S);
  for (std::size_t s = 0; s < S; ++s) {
    PointResult& p = out[s];
    p.awct = mean_ci_over(runs[s], &EvalResult::awct);
    p.makespan = mean_ci_over(runs[s], &EvalResult::makespan);
    p.mean_delay = mean_ci_over(runs[s], &EvalResult::mean_delay);
    p.wasted_work = mean_ci_over(runs[s], &EvalResult::wasted_work);
    p.checkpoint_overhead =
        mean_ci_over(runs[s], &EvalResult::checkpoint_overhead);
    p.goodput = mean_ci_over(runs[s], &EvalResult::goodput);
    p.failed_runs = static_cast<std::size_t>(
        std::count_if(runs[s].begin(), runs[s].end(),
                      [](const EvalResult& r) { return r.failed; }));
  }
  return out;
}

}  // namespace mris::exp
