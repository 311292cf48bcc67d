// COLLECT-ALL-PRIORITY-QUEUE (Section 7.2): the extreme-patience strawman.
// CA-PQ is given one piece of side information the other schedulers lack —
// the release time of the last job — and does nothing until then, after
// which it behaves exactly like PRIORITY-QUEUE on the full job set.
#pragma once

#include "sched/pq.hpp"

namespace mris {

class CollectAllPqScheduler : public PriorityQueueScheduler {
 public:
  /// `last_release` is the (externally provided) release time of the final
  /// job; scheduling is suppressed before it.
  CollectAllPqScheduler(Time last_release,
                        Heuristic heuristic = Heuristic::kWsjf)
      : PriorityQueueScheduler(heuristic), last_release_(last_release) {}

  std::string name() const override {
    return "CA-PQ-" + heuristic_name(heuristic_);
  }

  void on_start(EngineContext& ctx) override {
    PriorityQueueScheduler::on_start(ctx);
    ctx.schedule_wakeup(last_release_);
  }

  void on_arrival(EngineContext& ctx, JobId job) override {
    enqueue(ctx, job);  // collect silently; no scheduling before activation
    if (active(ctx)) scan_and_schedule(ctx);
  }

  void on_completion(EngineContext& ctx, JobId job,
                     MachineId machine) override {
    if (active(ctx)) PriorityQueueScheduler::on_completion(ctx, job, machine);
  }

  void on_wakeup(EngineContext& ctx) override {
    if (active(ctx)) scan_and_schedule(ctx);
  }

  void on_machine_up(EngineContext& ctx, MachineId machine) override {
    // A repair before the activation time must not break the patience.
    if (active(ctx)) PriorityQueueScheduler::on_machine_up(ctx, machine);
  }

 private:
  bool active(const EngineContext& ctx) const {
    return ctx.now() >= last_release_;
  }

  Time last_release_;
};

}  // namespace mris
