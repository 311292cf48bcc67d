#include "sched/hybrid.hpp"

namespace mris {

double HybridScheduler::cluster_utilization(const EngineContext& ctx,
                                            Time t) {
  double used = 0.0;
  const int M = ctx.num_machines();
  const int R = ctx.num_resources();
  std::vector<double> avail(static_cast<std::size_t>(R));
  for (MachineId m = 0; m < M; ++m) {
    ctx.cluster().available_into(m, t, avail);
    for (double a : avail) used += 1.0 - a;
  }
  return used / (static_cast<double>(M) * static_cast<double>(R));
}

void HybridScheduler::on_arrival(EngineContext& ctx, JobId job) {
  if (ctx.earliest_start(job) <= ctx.now() &&  // not retry-gated
      cluster_utilization(ctx, ctx.now()) <= threshold_) {
    for (MachineId m = 0; m < ctx.num_machines(); ++m) {
      if (!ctx.machine_up(m)) continue;
      if (!ctx.can_start(job, m, ctx.now())) continue;
      if (ctx.try_commit(job, m, ctx.now())) break;
    }
  }
  // Fall through: whether committed or not, keep MRIS's wakeup chain armed
  // (an uncommitted job must be caught by the next interval).
  MrisScheduler::on_arrival(ctx, job);
}

}  // namespace mris
