#include "sched/tetris.hpp"

#include "sched/pq.hpp"

#include <algorithm>
#include <limits>

namespace mris {

void TetrisScheduler::on_arrival(EngineContext& ctx, JobId /*job*/) {
  pack(ctx);
}

void TetrisScheduler::on_completion(EngineContext& ctx, JobId /*job*/,
                                    MachineId /*machine*/) {
  pack(ctx);
}

void TetrisScheduler::on_machine_up(EngineContext& ctx, MachineId /*machine*/) {
  pack(ctx);
}

void TetrisScheduler::pack(EngineContext& ctx) {
  const Time now = ctx.now();
  // Normalizer for the small-volume term over the pending set at this event.
  double v_max = 0.0;
  for (JobId id : ctx.pending()) {
    v_max = std::max(v_max, ctx.job(id).volume());
  }
  std::vector<double> avail(static_cast<std::size_t>(ctx.num_resources()));
  for (MachineId m = 0; m < ctx.num_machines(); ++m) {
    if (!ctx.machine_up(m)) continue;
    ctx.cluster().available_into(m, now, avail);
    for (;;) {
      JobId best = kInvalidJob;
      double best_score = -std::numeric_limits<double>::infinity();
      for (JobId id : ctx.pending()) {
        if (ctx.earliest_start(id) > now) continue;  // retry-gated
        const Job& j = ctx.job(id);
        if (!fits_available(avail, j.demand)) continue;
        if (!ctx.can_start(id, m, now)) continue;
        double align = 0.0;
        for (std::size_t l = 0; l < avail.size(); ++l) {
          align += j.demand[l] * avail[l];
        }
        align /= static_cast<double>(ctx.num_resources());
        const double small_volume =
            (v_max > 0.0) ? 1.0 - j.volume() / v_max : 0.0;
        const double score = align + eps_t_ * small_volume;
        if (score > best_score ||
            (score == best_score && (best == kInvalidJob || id < best))) {
          best_score = score;
          best = id;
        }
      }
      if (best == kInvalidJob) break;
      const Job& chosen = ctx.job(best);
      if (!ctx.try_commit(best, m, now)) break;
      for (std::size_t l = 0; l < avail.size(); ++l) {
        avail[l] = std::max(0.0, avail[l] - chosen.demand[l]);
      }
    }
  }
}

}  // namespace mris
