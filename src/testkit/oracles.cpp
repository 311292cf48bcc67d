#include "testkit/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"
// Known debt: the metamorphic oracles drive real schedulers end-to-end, so
// testkit reaches up into exp.  ROADMAP: split the scheduler registry out
// of exp so this edge can flip downward.
// mris-analyze: allow(layer-upward)
#include "exp/runner.hpp"
#include "sched/bounds.hpp"
#include "sched/optimal.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/faults/crash.hpp"
#include "sim/recovery/options.hpp"
#include "testkit/streams.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mris::testkit {

namespace {

std::string fmt(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

OracleResult fail(std::string message) {
  return OracleResult{false, std::move(message)};
}

/// Splits "a:b:c" into parts.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::stringstream in(text);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

double to_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("testkit: bad number in " + what + ": '" +
                                text + "'");
  }
  return v;
}

CheckpointPolicy checkpoint_from_params(const Params& params) {
  const std::string text = param_string(params, "checkpoint", "none");
  if (text == "none") return CheckpointPolicy::None();
  const auto parts = split(text, ':');
  if (parts.size() != 3) {
    throw std::invalid_argument(
        "testkit: checkpoint param must be none, periodic:<interval>:"
        "<restore> or fraction:<frac>:<restore>, got '" + text + "'");
  }
  CheckpointPolicy policy;
  if (parts[0] == "periodic") {
    policy.kind = CheckpointPolicy::Kind::kPeriodic;
    policy.interval = to_double(parts[1], "checkpoint interval");
  } else if (parts[0] == "fraction") {
    policy.kind = CheckpointPolicy::Kind::kFraction;
    policy.fraction = to_double(parts[1], "checkpoint fraction");
  } else {
    throw std::invalid_argument("testkit: unknown checkpoint kind '" +
                                parts[0] + "'");
  }
  policy.restore_overhead = to_double(parts[2], "checkpoint restore");
  return policy;
}

/// Fault plan from params: either explicit `outages` ("m:down:up;...") or
/// a generated plan from FaultSpec-shaped knobs, both seeded by
/// `fault_seed`.
FaultPlan fault_plan_from_params(const Instance& inst, const Params& params) {
  const auto fault_seed =
      static_cast<std::uint64_t>(param_int(params, "fault_seed", 1234));
  const std::string outages = param_string(params, "outages", "");
  if (!outages.empty()) {
    FaultPlan plan;
    for (const std::string& window : split(outages, ';')) {
      const auto parts = split(window, ':');
      if (parts.size() != 3) {
        throw std::invalid_argument(
            "testkit: outages windows are m:down:up, got '" + window + "'");
      }
      OutageWindow w;
      w.machine = static_cast<MachineId>(to_double(parts[0], "outage m"));
      w.down = to_double(parts[1], "outage down");
      w.up = to_double(parts[2], "outage up");
      plan.outages.push_back(w);
    }
    plan.failure_prob = param_double(params, "failure_prob", 0.0);
    plan.max_retries =
        static_cast<int>(param_int(params, "max_retries", 3));
    plan.retry_backoff = param_double(params, "retry_backoff", 0.0);
    plan.seed = fault_seed;
    plan.checkpoint = checkpoint_from_params(params);
    plan.validate(inst.num_machines(), inst.num_jobs());
    return plan;
  }
  FaultSpec spec;
  spec.mtbf = param_double(params, "mtbf", 40.0);
  spec.mttr = param_double(params, "mttr", 5.0);
  spec.straggler_prob = param_double(params, "straggler_prob", 0.1);
  spec.stretch_lo = param_double(params, "stretch_lo", 1.5);
  spec.stretch_hi = param_double(params, "stretch_hi", 3.0);
  spec.failure_prob = param_double(params, "failure_prob", 0.05);
  spec.max_retries = static_cast<int>(param_int(params, "max_retries", 3));
  spec.retry_backoff = param_double(params, "retry_backoff", 0.5);
  spec.checkpoint = checkpoint_from_params(params);
  return make_fault_plan(spec, inst, fault_seed);
}

/// "" when equal, else a description of the first difference.
std::string diff_schedules(const Schedule& a, const Schedule& b,
                           double time_scale) {
  if (a.num_jobs() != b.num_jobs()) return "job counts differ";
  for (std::size_t i = 0; i < a.num_jobs(); ++i) {
    const auto id = static_cast<JobId>(i);
    const Assignment& x = a.assignment(id);
    const Assignment& y = b.assignment(id);
    if (x.machine != y.machine) {
      return "job " + std::to_string(i) + ": machine " +
             std::to_string(x.machine) + " vs " + std::to_string(y.machine);
    }
    if (x.start * time_scale != y.start) {
      return "job " + std::to_string(i) + ": start " + fmt(x.start) +
             (time_scale == 1.0 ? " vs " : " (scaled) vs ") + fmt(y.start);
    }
  }
  return "";
}

Instance with_machines(const Instance& inst, int machines) {
  return Instance(inst.jobs(), machines, inst.num_resources());
}

// ---- standard oracles ----------------------------------------------------

OracleResult validator_clean(const Instance& inst,
                             const exp::SchedulerSpec& spec, const Params&) {
  Schedule schedule;
  const exp::EvalResult r = exp::evaluate_with_schedule(inst, spec, schedule);
  if (r.failed) return fail("run failed validation: " + r.error);
  double trivial = 0.0;
  for (const Job& j : inst.jobs()) trivial += j.weight * (j.release + j.processing);
  if (r.twct < trivial - 1e-9) {
    return fail("TWCT " + fmt(r.twct) + " below the trivial lower bound " +
                fmt(trivial));
  }
  return {};
}

OracleResult validator_clean_faults(const Instance& inst,
                                    const exp::SchedulerSpec& spec,
                                    const Params& params) {
  const FaultPlan plan = fault_plan_from_params(inst, params);
  const exp::EvalResult r = exp::evaluate(inst, spec, &plan);
  if (r.failed) return fail("faulty run failed validation: " + r.error);
  return {};
}

OracleResult fault_replay_determinism(const Instance& inst,
                                      const exp::SchedulerSpec& spec,
                                      const Params& params) {
  const FaultPlan plan = fault_plan_from_params(inst, params);
  RunOptions opts;
  opts.faults = plan.empty() ? nullptr : &plan;
  const auto run_once = [&] {
    const auto scheduler = exp::make_scheduler(spec, inst);
    return run_online(inst, *scheduler, opts);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  if (a.num_events != b.num_events) {
    return fail("event counts differ: " + std::to_string(a.num_events) +
                " vs " + std::to_string(b.num_events));
  }
  const std::string diff = diff_schedules(a.schedule, b.schedule, 1.0);
  if (!diff.empty()) return fail("schedules differ: " + diff);
  if (a.attempts.size() != b.attempts.size()) {
    return fail("attempt counts differ");
  }
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    const Attempt& x = a.attempts[i];
    const Attempt& y = b.attempts[i];
    if (x.job != y.job || x.machine != y.machine || x.start != y.start ||
        x.end != y.end || x.outcome != y.outcome) {
      return fail("attempt " + std::to_string(i) + " differs");
    }
  }
  return {};
}

OracleResult crash_recovery(const Instance& inst,
                            const exp::SchedulerSpec& spec,
                            const Params& params) {
  if (inst.num_jobs() == 0) return {};
  const int pairs = static_cast<int>(param_int(params, "crash_pairs", 3));
  const auto seed =
      static_cast<std::uint64_t>(param_int(params, "crash_seed", 2024));
  const FaultPlan plan = fault_plan_from_params(inst, params);
  RunOptions opts;
  opts.faults = plan.empty() ? nullptr : &plan;
  opts.record_events = true;  // the event log joins the byte comparison
  recovery::RecoveryOptions rec;
  rec.snapshot_every = static_cast<std::uint64_t>(
      param_int(params, "snapshot_every", 16));
  const std::string dir = artifacts_dir() + "/crash_oracle";
  const auto factory = [&] { return exp::make_scheduler(spec, inst); };
  const auto reports =
      faults::run_crash_sweep(inst, factory, opts, rec, pairs, seed, dir);
  for (const faults::CrashReplayReport& r : reports) {
    if (!r.identical) {
      return fail(
          "crash at event " + std::to_string(r.trial.kill_after_events) +
          (r.trial.torn_write_bytes > 0 ? " (torn journal write)" : "") +
          ": " + r.detail);
    }
  }
  return {};
}

/// API-legal adversary: commits on random machines at random future fits,
/// defers the rest to wakeups (the engine must stay sound regardless).
class ChaoticScheduler : public OnlineScheduler {
 public:
  explicit ChaoticScheduler(std::uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "chaotic"; }

  void on_arrival(EngineContext& ctx, JobId job) override {
    if (util::uniform01(rng_) < 0.5) {
      commit_randomly(ctx, job);
    } else {
      ctx.schedule_wakeup(ctx.now() + util::uniform(rng_, 0.1, 3.0));
    }
  }

  void on_wakeup(EngineContext& ctx) override {
    const std::vector<JobId> pending = ctx.pending();
    for (JobId id : pending) commit_randomly(ctx, id);
  }

 private:
  void commit_randomly(EngineContext& ctx, JobId id) {
    const auto machine = static_cast<MachineId>(util::uniform_index(
        rng_, static_cast<std::uint64_t>(ctx.num_machines())));
    const Time not_before = ctx.now() + util::uniform(rng_, 0.0, 4.0);
    const Time start = ctx.earliest_fit_on(id, machine, not_before);
    ctx.commit(id, machine, start);
  }

  util::Xoshiro256 rng_;
};

OracleResult engine_chaos(const Instance& inst, const exp::SchedulerSpec&,
                          const Params& params) {
  ChaoticScheduler chaotic(
      static_cast<std::uint64_t>(param_int(params, "chaos_seed", 7)));
  const RunResult r = run_online(inst, chaotic);
  const ValidationResult valid = validate_schedule(inst, r.schedule);
  if (!valid.ok) return fail("invalid schedule: " + valid.message);
  for (std::size_t i = 0; i < inst.num_jobs(); ++i) {
    const auto id = static_cast<JobId>(i);
    if (r.schedule.start_time(id) < inst.job(id).release) {
      return fail("job " + std::to_string(i) + " starts before release");
    }
  }
  double trivial = 0.0;
  for (const Job& j : inst.jobs()) trivial += j.weight * (j.release + j.processing);
  if (total_weighted_completion_time(inst, r.schedule) < trivial - 1e-9) {
    return fail("TWCT below the trivial lower bound");
  }
  return {};
}

OracleResult weight_scaling(const Instance& inst,
                            const exp::SchedulerSpec& spec, const Params&) {
  Schedule base_schedule;
  const exp::EvalResult base =
      exp::evaluate_with_schedule(inst, spec, base_schedule);
  if (base.failed) return fail("base run failed: " + base.error);

  std::vector<Job> jobs = inst.jobs();
  for (Job& j : jobs) j.weight *= 2.0;  // exact in IEEE
  const Instance scaled(std::move(jobs), inst.num_machines(),
                        inst.num_resources());
  Schedule scaled_schedule;
  const exp::EvalResult doubled =
      exp::evaluate_with_schedule(scaled, spec, scaled_schedule);
  if (doubled.failed) return fail("scaled run failed: " + doubled.error);

  const std::string diff =
      diff_schedules(base_schedule, scaled_schedule, 1.0);
  if (!diff.empty()) {
    return fail("doubling all weights changed the schedule: " + diff);
  }
  if (doubled.twct != 2.0 * base.twct) {
    return fail("TWCT not exactly doubled: " + fmt(base.twct) + " -> " +
                fmt(doubled.twct));
  }
  return {};
}

OracleResult time_scaling(const Instance& inst,
                          const exp::SchedulerSpec& spec, const Params&) {
  Schedule base_schedule;
  const exp::EvalResult base =
      exp::evaluate_with_schedule(inst, spec, base_schedule);
  if (base.failed) return fail("base run failed: " + base.error);

  std::vector<Job> jobs = inst.jobs();
  for (Job& j : jobs) {
    j.release *= 2.0;  // power-of-two scaling commutes with IEEE + - * /
    j.processing *= 2.0;
  }
  const Instance scaled(std::move(jobs), inst.num_machines(),
                        inst.num_resources());
  exp::SchedulerSpec scaled_spec = spec;
  scaled_spec.mris.gamma0 *= 2.0;  // the interval grid scales with time
  Schedule scaled_schedule;
  const exp::EvalResult doubled =
      exp::evaluate_with_schedule(scaled, scaled_spec, scaled_schedule);
  if (doubled.failed) return fail("scaled run failed: " + doubled.error);

  const std::string diff =
      diff_schedules(base_schedule, scaled_schedule, 2.0);
  if (!diff.empty()) {
    return fail("doubling the time axis did not double the schedule: " +
                diff);
  }
  if (doubled.makespan != 2.0 * base.makespan) {
    return fail("makespan not exactly doubled: " + fmt(base.makespan) +
                " -> " + fmt(doubled.makespan));
  }
  return {};
}

/// Demands snapped to the dyadic 1/64 grid, where sums are exact in *any*
/// order — the permutation oracle's preprocessing (see header).
Instance dyadic_demands(const Instance& inst) {
  std::vector<Job> jobs = inst.jobs();
  for (Job& j : jobs) {
    for (double& d : j.demand) {
      d = std::min(1.0, std::round(d * 64.0) / 64.0);
    }
    if (j.total_demand() <= 0.0) j.demand[0] = 1.0 / 64.0;
  }
  return Instance(std::move(jobs), inst.num_machines(),
                  inst.num_resources());
}

OracleResult resource_permutation(const Instance& inst,
                                  const exp::SchedulerSpec& spec,
                                  const Params&) {
  const Instance base = dyadic_demands(inst);
  std::vector<Job> jobs = base.jobs();
  for (Job& j : jobs) std::reverse(j.demand.begin(), j.demand.end());
  const Instance permuted(std::move(jobs), base.num_machines(),
                          base.num_resources());

  Schedule base_schedule;
  const exp::EvalResult a =
      exp::evaluate_with_schedule(base, spec, base_schedule);
  if (a.failed) return fail("base run failed: " + a.error);
  Schedule permuted_schedule;
  const exp::EvalResult b =
      exp::evaluate_with_schedule(permuted, spec, permuted_schedule);
  if (b.failed) return fail("permuted run failed: " + b.error);

  const std::string diff =
      diff_schedules(base_schedule, permuted_schedule, 1.0);
  if (!diff.empty()) {
    return fail("reversing the resource axes changed the schedule: " + diff);
  }
  return {};
}

OracleResult machine_augmentation(const Instance& inst,
                                  const exp::SchedulerSpec& spec,
                                  const Params& params) {
  if (inst.num_jobs() == 0) return {};
  const double slack = param_double(params, "slack", 2.0);
  const exp::EvalResult base = exp::evaluate(inst, spec);
  if (base.failed) return fail("base run failed: " + base.error);
  const exp::EvalResult more =
      exp::evaluate(with_machines(inst, inst.num_machines() + 1), spec);
  if (more.failed) return fail("augmented run failed: " + more.error);
  if (more.awct > slack * base.awct + 1e-9) {
    return fail("adding a machine blew AWCT up " + fmt(base.awct) + " -> " +
                fmt(more.awct) + " (slack " + fmt(slack) + ")");
  }
  return {};
}

OracleResult job_removal(const Instance& inst, const exp::SchedulerSpec& spec,
                         const Params& params) {
  if (inst.num_jobs() <= 1) return {};
  const double slack = param_double(params, "slack", 2.0);
  const exp::EvalResult base = exp::evaluate(inst, spec);
  if (base.failed) return fail("base run failed: " + base.error);
  std::vector<Job> jobs = inst.jobs();
  jobs.pop_back();
  const Instance smaller(std::move(jobs), inst.num_machines(),
                         inst.num_resources());
  const exp::EvalResult less = exp::evaluate(smaller, spec);
  if (less.failed) return fail("reduced run failed: " + less.error);
  if (less.twct > slack * base.twct + 1e-9) {
    return fail("removing the last job blew TWCT up " + fmt(base.twct) +
                " -> " + fmt(less.twct) + " (slack " + fmt(slack) + ")");
  }
  return {};
}

OracleResult ratio_awct(const Instance& inst, const exp::SchedulerSpec& spec,
                        const Params&) {
  if (spec.kind != exp::SchedulerKind::kMris) return {};  // theorem is MRIS's
  if (spec.mris.alpha < 2.0) return {};  // alpha < 2 voids the constant
  if (inst.num_jobs() == 0) return {};
  const exp::EvalResult r = exp::evaluate(inst, spec);
  if (r.failed) return fail("run failed: " + r.error);
  const double bound = competitive_bound(spec, inst.num_resources());
  const double lb = awct_fluid_lower_bound(inst);
  if (r.awct > bound * lb * (1.0 + 1e-9)) {
    return fail("AWCT " + fmt(r.awct) + " exceeds " + fmt(bound) +
                " x fluid lower bound " + fmt(lb) + " (ratio " +
                fmt(r.awct / lb) + ")");
  }
  return {};
}

OracleResult ratio_makespan(const Instance& inst,
                            const exp::SchedulerSpec& spec, const Params&) {
  if (spec.kind != exp::SchedulerKind::kMris) return {};
  if (spec.mris.alpha < 2.0) return {};
  if (inst.num_jobs() == 0) return {};
  const exp::EvalResult r = exp::evaluate(inst, spec);
  if (r.failed) return fail("run failed: " + r.error);
  const double bound = competitive_bound(spec, inst.num_resources());
  const double lb = makespan_lower_bound(inst);
  if (r.makespan > bound * lb * (1.0 + 1e-9)) {
    return fail("makespan " + fmt(r.makespan) + " exceeds " + fmt(bound) +
                " x lower bound " + fmt(lb) + " (ratio " +
                fmt(r.makespan / lb) + ")");
  }
  return {};
}

// ---- SIMD dispatch identity ----------------------------------------------

/// Differential oracle for the SIMD kernel layer (DESIGN.md §"SIMD
/// kernels"): the dispatch level is pure implementation detail, so a run
/// under the scalar kernels and a run under the AVX2 kernels must place
/// every job bit-identically — same machine, same start, for any
/// scheduler.  On builds or CPUs without AVX2 the second run stays on the
/// scalar kernels and the check holds trivially (still a useful replay of
/// the engine's own determinism).
OracleResult simd_identity(const Instance& inst,
                           const exp::SchedulerSpec& spec, const Params&) {
  if (inst.num_jobs() == 0 || inst.num_machines() == 0) return {};
  namespace simd = util::simd;
  const simd::Level before = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  Schedule s_scalar;
  const exp::EvalResult r_scalar =
      exp::evaluate_with_schedule(inst, spec, s_scalar);
  if (r_scalar.failed) {
    simd::set_level(before);
    return fail("scalar-dispatch run failed: " + r_scalar.error);
  }
  const bool vectorized = simd::set_level(simd::Level::kAvx2);
  Schedule s_vector;
  const exp::EvalResult r_vector =
      exp::evaluate_with_schedule(inst, spec, s_vector);
  simd::set_level(before);
  if (r_vector.failed) {
    return fail(std::string(vectorized ? "avx2" : "scalar") +
                "-dispatch run failed: " + r_vector.error);
  }
  for (std::size_t i = 0; i < inst.num_jobs(); ++i) {
    const Assignment& a = s_scalar.assignment(static_cast<JobId>(i));
    const Assignment& b = s_vector.assignment(static_cast<JobId>(i));
    if (a.machine != b.machine || a.start != b.start) {
      return fail("job " + std::to_string(i) + " placed at (m" +
                  std::to_string(a.machine) + ", t" + fmt(a.start) +
                  ") under scalar dispatch but (m" +
                  std::to_string(b.machine) + ", t" + fmt(b.start) +
                  ") under " + simd::level_name(simd::Level::kAvx2) +
                  " dispatch");
    }
  }
  return {};
}

// ---- streaming equivalence -----------------------------------------------

/// Byte-compares two full runs: event stream, placements, and attempts.
std::string diff_runs(const RunResult& a, const RunResult& b,
                      std::size_t num_jobs) {
  if (a.num_events != b.num_events) {
    return "event counts differ: " + std::to_string(a.num_events) + " vs " +
           std::to_string(b.num_events);
  }
  if (a.log.size() != b.log.size()) {
    return "event log lengths differ: " + std::to_string(a.log.size()) +
           " vs " + std::to_string(b.log.size());
  }
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    const EventRecord& x = a.log[i];
    const EventRecord& y = b.log[i];
    if (x.kind != y.kind || x.t != y.t || x.job != y.job ||
        x.machine != y.machine || x.start != y.start) {
      return "event " + std::to_string(i) + " differs: " +
             event_kind_name(x.kind) + "@t" + fmt(x.t) + " vs " +
             event_kind_name(y.kind) + "@t" + fmt(y.t);
    }
  }
  for (std::size_t i = 0; i < num_jobs; ++i) {
    const auto id = static_cast<JobId>(i);
    const Assignment& x = a.schedule.assignment(id);
    const Assignment& y = b.schedule.assignment(id);
    if (x.machine != y.machine || x.start != y.start) {
      return "job " + std::to_string(i) + " placed at (m" +
             std::to_string(x.machine) + ", t" + fmt(x.start) +
             ") in batch but (m" + std::to_string(y.machine) + ", t" +
             fmt(y.start) + ") in the stream";
    }
  }
  if (a.attempts.size() != b.attempts.size()) return "attempt counts differ";
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    const Attempt& x = a.attempts[i];
    const Attempt& y = b.attempts[i];
    if (x.job != y.job || x.machine != y.machine || x.start != y.start ||
        x.end != y.end || x.outcome != y.outcome) {
      return "attempt " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// Streaming-vs-batch oracle (docs/DAEMON.md): admitting an instance's
/// jobs one frame at a time through StreamEngine — in release order, ties
/// in id order, exactly as the daemon drives it — must reproduce
/// run_online() byte-for-byte: same event stream, same placements, same
/// attempts.  Machine outages, injected failures and checkpoint policies
/// all ride along (per-job straggler stretch tables are cleared — a
/// per-job table needs the full job set upfront, which a stream by
/// definition lacks).  The engine's idle hook fires
/// between every admission, proving on_idle cannot leak into decisions.
OracleResult streaming_equivalence(const Instance& inst,
                                   const exp::SchedulerSpec& spec,
                                   const Params& params) {
  if (inst.num_machines() == 0) return {};
  FaultPlan plan = fault_plan_from_params(inst, params);
  plan.stretch.clear();
  if (!plan.empty()) plan.validate(inst.num_machines(), inst.num_jobs());

  // Canonical admission order: by release, ties in prior id order.  Both
  // sides run the reindexed instance so job ids agree.
  std::vector<Job> ordered = inst.jobs();
  std::stable_sort(
      ordered.begin(), ordered.end(),
      [](const Job& a, const Job& b) { return a.release < b.release; });
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    ordered[i].id = static_cast<JobId>(i);
  }
  const Instance batch_inst(ordered, inst.num_machines(),
                            inst.num_resources());

  RunOptions opts;
  opts.record_events = true;
  opts.faults = plan.empty() ? nullptr : &plan;

  const auto batch_scheduler = exp::make_scheduler(spec, batch_inst);
  const RunResult batch = run_online(batch_inst, *batch_scheduler, opts);

  Instance grow(std::vector<Job>{}, inst.num_machines(),
                inst.num_resources());
  const auto stream_scheduler = exp::make_scheduler(spec, batch_inst);
  StreamEngine engine(grow, *stream_scheduler, opts);
  engine.start();
  for (const Job& j : ordered) {
    engine.run_until_release(j.release);
    engine.idle();  // must never change a decision; exercised on purpose
    engine.admit(j);
  }
  const RunResult stream = engine.finish();

  const std::string diff = diff_runs(batch, stream, batch_inst.num_jobs());
  if (!diff.empty()) return fail("stream vs batch: " + diff);
  return {};
}

// ---- fixtures ------------------------------------------------------------

OracleResult fixture_triple_heavy(const Instance& inst,
                                  const exp::SchedulerSpec&, const Params&) {
  std::size_t heavy = 0;
  for (const Job& j : inst.jobs()) {
    if (j.dominant_demand() >= 0.5) ++heavy;
  }
  if (heavy >= 3) {
    return fail("deliberately broken fixture: " + std::to_string(heavy) +
                " jobs with dominant demand >= 0.5 (threshold 3)");
  }
  return {};
}

}  // namespace

void OracleCatalog::add(const std::string& name, OracleFn fn) {
  if (!oracles_.emplace(name, std::move(fn)).second) {
    throw std::invalid_argument("duplicate oracle name: " + name);
  }
}

const OracleFn* OracleCatalog::find(const std::string& name) const {
  const auto it = oracles_.find(name);
  return it == oracles_.end() ? nullptr : &it->second;
}

std::vector<std::string> OracleCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(oracles_.size());
  for (const auto& [name, fn] : oracles_) out.push_back(name);
  return out;
}

OracleCatalog OracleCatalog::standard() {
  OracleCatalog catalog;
  catalog.add("validator-clean", validator_clean);
  catalog.add("validator-clean-faults", validator_clean_faults);
  catalog.add("fault-replay-determinism", fault_replay_determinism);
  catalog.add("crash-recovery", crash_recovery);
  catalog.add("engine-chaos", engine_chaos);
  catalog.add("weight-scaling", weight_scaling);
  catalog.add("time-scaling", time_scaling);
  catalog.add("resource-permutation", resource_permutation);
  catalog.add("machine-augmentation", machine_augmentation);
  catalog.add("job-removal", job_removal);
  catalog.add("ratio-awct", ratio_awct);
  catalog.add("ratio-makespan", ratio_makespan);
  catalog.add("simd-identity", simd_identity);
  catalog.add("streaming-equivalence", streaming_equivalence);
  return catalog;
}

OracleCatalog OracleCatalog::with_fixtures() {
  OracleCatalog catalog = standard();
  catalog.add("fixture-triple-heavy", fixture_triple_heavy);
  return catalog;
}

OracleResult run_oracle(const OracleCatalog& catalog,
                        const std::string& oracle, const Instance& inst,
                        const std::string& scheduler, const Params& params) {
  const OracleFn* fn = catalog.find(oracle);
  if (fn == nullptr) {
    throw std::invalid_argument("unknown oracle: " + oracle);
  }
  const exp::SchedulerSpec spec = exp::parse_scheduler_spec(scheduler);
  try {
    return (*fn)(inst, spec, params);
  } catch (const std::exception& e) {
    return fail(std::string("oracle threw: ") + e.what());
  }
}

double competitive_bound(const exp::SchedulerSpec& spec, int num_resources) {
  const double eps = spec.mris.backend == knapsack::Backend::kCadp
                         ? spec.mris.eps
                         : 1.0;
  return 8.0 * static_cast<double>(num_resources) * (1.0 + eps);
}

std::string artifacts_dir() {
  return util::env_string("MRIS_TESTKIT_ARTIFACTS", "testkit_artifacts");
}

OracleResult replay_corpus_entry(const OracleCatalog& catalog,
                                 const CorpusEntry& entry) {
  const OracleResult result = run_oracle(catalog, entry.oracle,
                                         entry.instance, entry.scheduler,
                                         entry.params);
  if (entry.expect_failure && result.ok) {
    return fail("corpus entry '" + entry.name +
                "' expected the failure to reproduce, but the oracle passed");
  }
  if (!entry.expect_failure && !result.ok) {
    return fail("corpus entry '" + entry.name + "' regressed: " +
                result.message);
  }
  return {};
}

CheckReport check_and_minimize(const OracleCatalog& catalog,
                               const std::string& oracle,
                               const Instance& inst,
                               const std::string& scheduler,
                               const Params& params,
                               const ShrinkOptions& shrink) {
  const OracleResult first = run_oracle(catalog, oracle, inst, scheduler,
                                        params);
  if (first.ok) return {};

  const InstancePredicate fails = [&](const Instance& candidate) {
    return !run_oracle(catalog, oracle, candidate, scheduler, params).ok;
  };
  ShrinkStats stats;
  const Instance minimized = shrink_instance(inst, fails, shrink, &stats);
  const OracleResult minimized_result =
      run_oracle(catalog, oracle, minimized, scheduler, params);

  CorpusEntry entry;
  entry.oracle = oracle;
  entry.scheduler = scheduler;
  entry.expect_failure = true;
  entry.params = params;
  entry.instance = minimized;
  std::ostringstream serialized;
  entry.name = oracle + "-" + scheduler + "-min";
  write_corpus(serialized, entry);
  std::ostringstream tag;
  tag << std::hex << (fnv1a64(serialized.str()) & 0xffffffffULL);
  entry.name += "-" + tag.str();
  const std::string path = artifacts_dir() + "/" + entry.name + ".corpus";
  write_corpus_file(path, entry);

  CheckReport report;
  report.ok = false;
  report.corpus_path = path;
  std::ostringstream message;
  message << "oracle '" << oracle << "' failed for scheduler '" << scheduler
          << "': " << first.message << "\n  minimized to "
          << minimized.num_jobs() << " jobs / " << minimized.num_machines()
          << " machines / " << minimized.num_resources() << " resources in "
          << stats.predicate_calls << " predicate calls ("
          << minimized_result.message << ")\n  counterexample written to "
          << path << " — move it into tests/regressions/ (expect: pass once "
          << "fixed) to pin the fix";
  report.message = message.str();
  return report;
}

}  // namespace mris::testkit
