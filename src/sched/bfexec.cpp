#include "sched/bfexec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/pq.hpp"

namespace mris {

void BfExecScheduler::on_arrival(EngineContext& ctx, JobId job) {
  const Time now = ctx.now();
  if (ctx.earliest_start(job) > now) return;  // retry-gated; re-fires later
  MachineId best = kInvalidMachine;
  double best_norm = std::numeric_limits<double>::infinity();
  std::vector<double> avail(static_cast<std::size_t>(ctx.num_resources()));
  for (MachineId m = 0; m < ctx.num_machines(); ++m) {
    if (!ctx.machine_up(m)) continue;
    if (!ctx.can_start(job, m, now)) continue;
    ctx.cluster().available_into(m, now, avail);
    double norm2 = 0.0;
    for (double a : avail) norm2 += a * a;
    if (norm2 < best_norm) {
      best_norm = norm2;
      best = m;
    }
  }
  if (best != kInvalidMachine) {
    ctx.try_commit(job, best, now);
  }
  // Infeasible on every machine: the job waits for a departure or repair.
}

void BfExecScheduler::on_completion(EngineContext& ctx, JobId /*job*/,
                                    MachineId machine) {
  drain(ctx, machine);
}

void BfExecScheduler::on_machine_up(EngineContext& ctx, MachineId machine) {
  drain(ctx, machine);
}

void BfExecScheduler::drain(EngineContext& ctx, MachineId machine) {
  const Time now = ctx.now();
  if (!ctx.machine_up(machine)) return;
  std::vector<double> avail(static_cast<std::size_t>(ctx.num_resources()));
  ctx.cluster().available_into(machine, now, avail);
  for (;;) {
    JobId shortest = kInvalidJob;
    for (JobId id : ctx.pending()) {
      if (ctx.earliest_start(id) > now) continue;  // retry-gated
      if (!fits_available(avail, ctx.job(id).demand)) continue;
      if (!ctx.can_start(id, machine, now)) continue;
      if (shortest == kInvalidJob ||
          ctx.job(id).processing < ctx.job(shortest).processing ||
          (ctx.job(id).processing == ctx.job(shortest).processing &&
           id < shortest)) {
        shortest = id;
      }
    }
    if (shortest == kInvalidJob) break;
    const Job& chosen = ctx.job(shortest);
    if (!ctx.try_commit(shortest, machine, now)) break;
    for (std::size_t l = 0; l < avail.size(); ++l) {
      avail[l] = std::max(0.0, avail[l] - chosen.demand[l]);
    }
  }
}

}  // namespace mris
