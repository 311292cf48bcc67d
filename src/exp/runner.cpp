#include "exp/runner.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "util/thread_pool.hpp"

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
                         Schedule& schedule_out, const FaultPlan* faults,
                         const recovery::RecoveryOptions* recovery) {
  const std::unique_ptr<OnlineScheduler> scheduler =
      make_scheduler(spec, inst);
  RunOptions options;
  const bool faulty = faults != nullptr && !faults->empty();
  if (faulty) options.faults = faults;
  options.recovery = recovery;
  RunResult run = run_online(inst, *scheduler, options);

  EvalResult r;
  if (faulty) {
    const ValidationResult valid =
        validate_fault_run(inst, *faults, run.attempts, run.schedule);
    if (!valid) {
      throw std::runtime_error("infeasible faulty run from " +
                               spec.display_name() + ": " + valid.message);
    }
    r = metrics_from_attempts(inst, run.attempts);
    const FaultMetrics fm = summarize_attempts(inst, run.attempts, faults);
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
  schedule_out = std::move(run.schedule);
  return r;
}

util::MeanCi mean_ci_over(const std::vector<double>& values,
                          const std::vector<char>& ok) {
  std::vector<double> kept;
  kept.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (ok[i]) kept.push_back(values[i]);
  }
  return util::mean_ci95(kept);
}

}  // namespace

EvalResult evaluate_with_schedule(const Instance& inst,
                                  const SchedulerSpec& spec,
                                  Schedule& schedule_out,
                                  const FaultPlan* faults,
                                  const recovery::RecoveryOptions* recovery) {
  try {
    return evaluate_impl(inst, spec, schedule_out, faults, recovery);
  } catch (const std::exception& e) {
    EvalResult r;
    r.num_jobs = inst.num_jobs();
    r.failed = true;
    r.error = e.what();
    return r;
  }
}

EvalResult evaluate(const Instance& inst, const SchedulerSpec& spec,
                    const FaultPlan* faults,
                    const recovery::RecoveryOptions* recovery) {
  Schedule ignored;
  return evaluate_with_schedule(inst, spec, ignored, faults, recovery);
}

PointResult replicate(
    std::size_t reps,
    const std::function<Instance(std::size_t)>& make_instance,
    const SchedulerSpec& spec, const FaultFactory& make_faults) {
  std::vector<double> awct(reps), cmax(reps), delay(reps), wasted(reps),
      overhead(reps), goodput(reps);
  std::vector<char> ok(reps, 0);
  util::global_pool().parallel_for(reps, [&](std::size_t rep) {
    const Instance inst = make_instance(rep);
    FaultPlan plan;
    if (make_faults) plan = make_faults(rep);
    const EvalResult r =
        evaluate(inst, spec, make_faults ? &plan : nullptr);
    if (r.failed) return;
    ok[rep] = 1;
    awct[rep] = r.awct;
    cmax[rep] = r.makespan;
    delay[rep] = r.mean_delay;
    wasted[rep] = r.wasted_work;
    overhead[rep] = r.checkpoint_overhead;
    goodput[rep] = r.goodput;
  });
  PointResult p;
  p.awct = mean_ci_over(awct, ok);
  p.makespan = mean_ci_over(cmax, ok);
  p.mean_delay = mean_ci_over(delay, ok);
  p.wasted_work = mean_ci_over(wasted, ok);
  p.checkpoint_overhead = mean_ci_over(overhead, ok);
  p.goodput = mean_ci_over(goodput, ok);
  p.failed_runs =
      reps - static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 1));
  return p;
}

std::vector<PointResult> replicate_lineup(
    std::size_t reps,
    const std::function<Instance(std::size_t)>& make_instance,
    const std::vector<SchedulerSpec>& lineup, const FaultFactory& make_faults) {
  const std::size_t S = lineup.size();
  std::vector<std::vector<double>> awct(S, std::vector<double>(reps));
  std::vector<std::vector<double>> cmax(S, std::vector<double>(reps));
  std::vector<std::vector<double>> delay(S, std::vector<double>(reps));
  std::vector<std::vector<double>> wasted(S, std::vector<double>(reps));
  std::vector<std::vector<double>> overhead(S, std::vector<double>(reps));
  std::vector<std::vector<double>> goodput(S, std::vector<double>(reps));
  std::vector<std::vector<char>> ok(S, std::vector<char>(reps, 0));

  // Parallelize over (rep, scheduler) pairs; the instance and fault plan
  // for a rep are built once and shared read-only by all schedulers.
  std::vector<Instance> instances(reps);
  std::vector<FaultPlan> plans(make_faults ? reps : 0);
  util::global_pool().parallel_for(reps, [&](std::size_t rep) {
    instances[rep] = make_instance(rep);
    if (make_faults) plans[rep] = make_faults(rep);
  });
  util::global_pool().parallel_for(reps * S, [&](std::size_t idx) {
    const std::size_t rep = idx / S;
    const std::size_t s = idx % S;
    const EvalResult r = evaluate(instances[rep], lineup[s],
                                  make_faults ? &plans[rep] : nullptr);
    if (r.failed) return;
    ok[s][rep] = 1;
    awct[s][rep] = r.awct;
    cmax[s][rep] = r.makespan;
    delay[s][rep] = r.mean_delay;
    wasted[s][rep] = r.wasted_work;
    overhead[s][rep] = r.checkpoint_overhead;
    goodput[s][rep] = r.goodput;
  });

  std::vector<PointResult> out(S);
  for (std::size_t s = 0; s < S; ++s) {
    out[s].awct = mean_ci_over(awct[s], ok[s]);
    out[s].makespan = mean_ci_over(cmax[s], ok[s]);
    out[s].mean_delay = mean_ci_over(delay[s], ok[s]);
    out[s].wasted_work = mean_ci_over(wasted[s], ok[s]);
    out[s].checkpoint_overhead = mean_ci_over(overhead[s], ok[s]);
    out[s].goodput = mean_ci_over(goodput[s], ok[s]);
    out[s].failed_runs =
        reps -
        static_cast<std::size_t>(std::count(ok[s].begin(), ok[s].end(), 1));
  }
  return out;
}

}  // namespace mris::exp
