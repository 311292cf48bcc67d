#include "sched/drf.hpp"

#include <algorithm>
#include <limits>

#include "sim/recovery/state_io.hpp"

#include "sched/pq.hpp"

namespace mris {

double DrfScheduler::dominant_share(TenantId tenant) const {
  const auto it = allocated_.find(tenant);
  if (it == allocated_.end()) return 0.0;
  double share = 0.0;
  for (double a : it->second) share = std::max(share, a);
  return share;
}

void DrfScheduler::uncharge(EngineContext& ctx, JobId job) {
  const auto charged = charged_.find(job);
  if (charged == charged_.end()) return;
  const Job& j = ctx.job(job);
  const double m = static_cast<double>(ctx.num_machines());
  auto it = allocated_.find(charged->second);
  if (it != allocated_.end()) {
    for (std::size_t l = 0; l < j.demand.size(); ++l) {
      it->second[l] = std::max(0.0, it->second[l] - j.demand[l] / m);
    }
  }
  charged_.erase(charged);
}

void DrfScheduler::on_arrival(EngineContext& ctx, JobId job) {
  // A re-released job (killed or cancelled by a fault) is still charged
  // against its tenant; release the share before reallocating.
  uncharge(ctx, job);
  allocate(ctx);
}

void DrfScheduler::on_completion(EngineContext& ctx, JobId job,
                                 MachineId /*machine*/) {
  // Release the finished job's contribution to its tenant's share.
  uncharge(ctx, job);
  allocate(ctx);
}

void DrfScheduler::on_machine_up(EngineContext& ctx, MachineId /*machine*/) {
  allocate(ctx);
}

void DrfScheduler::allocate(EngineContext& ctx) {
  const Time now = ctx.now();
  const int M = ctx.num_machines();
  const double m = static_cast<double>(M);

  // Free capacity at now, one R-strided row per machine.
  const auto R = static_cast<std::size_t>(ctx.num_resources());
  std::vector<double> avail(static_cast<std::size_t>(M) * R);
  const auto row = [&](MachineId machine) {
    return std::span(avail).subspan(static_cast<std::size_t>(machine) * R, R);
  };
  for (MachineId machine = 0; machine < M; ++machine) {
    ctx.cluster().available_into(machine, now, row(machine));
  }

  for (;;) {
    // Head-of-line job per tenant: FIFO within tenant (pending() preserves
    // release order).  Retry-gated jobs are not schedulable yet and must
    // not block their tenant's line.
    std::map<TenantId, JobId> head;
    for (JobId id : ctx.pending()) {
      if (ctx.earliest_start(id) > now) continue;
      head.try_emplace(ctx.job(id).tenant, id);
    }
    if (head.empty()) return;

    // Among tenants whose head job fits somewhere, pick the one with the
    // smallest dominant share (ties -> smaller tenant id via map order).
    TenantId best_tenant = -1;
    JobId best_job = kInvalidJob;
    MachineId best_machine = kInvalidMachine;
    double best_share = std::numeric_limits<double>::infinity();
    for (const auto& [tenant, id] : head) {
      const double share = dominant_share(tenant);
      if (share >= best_share) continue;
      const Job& j = ctx.job(id);
      for (MachineId machine = 0; machine < M; ++machine) {
        if (!ctx.machine_up(machine)) continue;
        if (!fits_available(row(machine), j.demand)) continue;
        if (!ctx.can_start(id, machine, now)) continue;
        best_tenant = tenant;
        best_job = id;
        best_machine = machine;
        best_share = share;
        break;
      }
    }
    if (best_job == kInvalidJob) return;

    const Job& j = ctx.job(best_job);
    if (!ctx.try_commit(best_job, best_machine, now)) return;
    charged_[best_job] = best_tenant;
    auto& alloc =
        allocated_
            .try_emplace(best_tenant,
                         std::vector<double>(j.demand.size(), 0.0))
            .first->second;
    const std::span<double> machine_avail = row(best_machine);
    for (std::size_t l = 0; l < j.demand.size(); ++l) {
      alloc[l] += j.demand[l] / m;
      machine_avail[l] = std::max(0.0, machine_avail[l] - j.demand[l]);
    }
  }
}

void DrfScheduler::save_state(recovery::StateWriter& w) const {
  w.u64(allocated_.size());
  for (const auto& [tenant, alloc] : allocated_) {
    w.i32(tenant);
    w.vec_f64(alloc);
  }
  w.u64(charged_.size());
  for (const auto& [job, tenant] : charged_) {
    w.i32(job);
    w.i32(tenant);
  }
}

void DrfScheduler::restore_state(recovery::StateReader& r) {
  allocated_.clear();
  charged_.clear();
  const std::uint64_t tenants = r.u64();
  for (std::uint64_t i = 0; i < tenants; ++i) {
    const TenantId tenant = r.i32();
    allocated_[tenant] = r.vec_f64();
  }
  const std::uint64_t charges = r.u64();
  for (std::uint64_t i = 0; i < charges; ++i) {
    const JobId job = r.i32();
    charged_[job] = r.i32();
  }
}

}  // namespace mris
