#include "sched/pq.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "sim/recovery/state_io.hpp"
#include "util/contracts.hpp"

namespace mris {

bool fits_available(std::span<const double> available,
                    std::span<const double> demand) {
  for (std::size_t l = 0; l < demand.size(); ++l) {
    if (demand[l] > available[l] + 1e-9) return false;
  }
  return true;
}

void PriorityQueueScheduler::rebuild_if_stale(const EngineContext& ctx) {
  if (!stale_) return;
  stale_ = false;
  queued_.assign(ctx.num_jobs(), 0);
  demand_.clear();
  for (Entry& e : queue_) {
    const Job& job = ctx.job(e.id);
    e.key = heuristic_key(heuristic_, job);
    demand_.insert(demand_.end(), job.demand.begin(), job.demand.end());
    queued_[static_cast<std::size_t>(e.id)] = 1;
  }
}

void PriorityQueueScheduler::enqueue(EngineContext& ctx, JobId job) {
  rebuild_if_stale(ctx);
  // A requeued job may already sit in the queue (it re-arrives via
  // on_arrival after a fault); never hold it twice.  Streaming admission
  // appends jobs, so membership grows with the job count.
  if (queued_.size() < ctx.num_jobs()) queued_.resize(ctx.num_jobs(), 0);
  char& member = queued_[static_cast<std::size_t>(job)];
  if (member) return;
  // The key is computed once: a queued job's effective view never changes
  // while it waits (only a committed attempt's loss re-sizes it).
  const Job& j = ctx.job(job);
  const Entry entry{heuristic_key(heuristic_, j), job};
  const auto pos = std::lower_bound(
      queue_.begin(), queue_.end(), entry, [](const Entry& a, const Entry& b) {
        if (a.key != b.key) return a.key < b.key;
        return a.id < b.id;
      });
  const auto row = (pos - queue_.begin()) *
                   static_cast<std::ptrdiff_t>(ctx.num_resources());
  queue_.insert(pos, entry);
  demand_.insert(demand_.begin() + row, j.demand.begin(), j.demand.end());
  member = 1;
}

void PriorityQueueScheduler::on_arrival(EngineContext& ctx, JobId job) {
  enqueue(ctx, job);
  scan_and_schedule(ctx);
}

void PriorityQueueScheduler::on_completion(EngineContext& ctx, JobId /*job*/,
                                           MachineId /*machine*/) {
  scan_and_schedule(ctx);
}

void PriorityQueueScheduler::on_machine_up(EngineContext& ctx,
                                           MachineId /*machine*/) {
  // Repaired capacity may unblock queued jobs (including ones requeued by
  // the very outage that just ended).
  scan_and_schedule(ctx);
}

void PriorityQueueScheduler::refresh_max_free(std::size_t resources) {
  max_free_.assign(resources, -std::numeric_limits<double>::infinity());
  for (std::size_t m = 0; m < up_.size(); ++m) {
    if (!up_[m]) continue;
    for (std::size_t l = 0; l < resources; ++l) {
      max_free_[l] = std::max(max_free_[l], free_[m * resources + l]);
    }
  }
}

void PriorityQueueScheduler::scan_and_schedule(EngineContext& ctx) {
  rebuild_if_stale(ctx);
  if (queue_.empty()) return;
  const Time now = ctx.now();
  const int M = ctx.num_machines();
  const auto R = static_cast<std::size_t>(ctx.num_resources());

  // Instantaneous free capacity per machine, maintained across commits in
  // this scan.  In a pure PQ run every reservation starts at or before now,
  // so instantaneous fit implies window fit; can_start() still confirms so
  // that subclasses remain correct if mixed with future reservations.
  free_.resize(static_cast<std::size_t>(M) * R);
  up_.resize(static_cast<std::size_t>(M));
  const Cluster& cluster = ctx.cluster();
  for (MachineId m = 0; m < M; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    up_[mi] = ctx.machine_up(m) ? 1 : 0;
    cluster.available_into(m, now, std::span(free_).subspan(mi * R, R));
  }
  refresh_max_free(R);

  std::size_t write = 0;
  for (std::size_t read = 0; read < queue_.size(); ++read) {
    const Entry entry = queue_[read];
    const std::span<const double> demand(demand_.data() + read * R, R);
    bool committed = false;
    // A job that fails the prefilter fits on no up machine (DESIGN.md).
    if (fits_available(max_free_, demand) &&
        ctx.earliest_start(entry.id) <= now) {  // skip retry-gated jobs
      for (MachineId m = 0; m < M; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        if (!up_[mi]) continue;
        const std::span<double> avail = std::span(free_).subspan(mi * R, R);
        if (!fits_available(avail, demand)) continue;
        if (!ctx.can_start(entry.id, m, now)) continue;
        if (!ctx.try_commit(entry.id, m, now)) continue;
        MRIS_INVARIANT(
            entry.key == heuristic_key(heuristic_, ctx.job(entry.id)),
            "a queued job's cached heuristic key went stale");
        for (std::size_t l = 0; l < R; ++l) {
          avail[l] = std::max(0.0, avail[l] - demand[l]);
        }
        refresh_max_free(R);
        committed = true;
        break;
      }
    }
    if (committed) {
      queued_[static_cast<std::size_t>(entry.id)] = 0;
      continue;
    }
    if (write != read) {
      queue_[write] = entry;
      std::copy_n(demand.begin(), R, demand_.begin() + write * R);
    }
    ++write;
  }
  queue_.resize(write);
  demand_.resize(write * R);
}

Time offline_pq_schedule(
    const std::vector<JobId>& jobs, Heuristic heuristic, Time not_before,
    const std::function<const Job&(JobId)>& job_of,
    const std::function<Time(JobId, Time, MachineId&)>& earliest_fit,
    const std::function<void(JobId, MachineId, Time)>& commit) {
  std::vector<JobId> order = jobs;
  sort_jobs(order, heuristic, job_of);
  Time makespan = not_before;
  for (JobId id : order) {
    MachineId machine = kInvalidMachine;
    const Time start = earliest_fit(id, not_before, machine);
    commit(id, machine, start);
    makespan = std::max(makespan, start + job_of(id).processing);
  }
  return makespan;
}

Time offline_pq_schedule_eventscan(
    const std::vector<JobId>& jobs, Heuristic heuristic, Time not_before,
    const std::function<const Job&(JobId)>& job_of,
    const std::function<Time(JobId, Time, MachineId&)>& earliest_fit,
    const std::function<void(JobId, MachineId, Time)>& commit) {
  std::vector<JobId> remaining = jobs;
  sort_jobs(remaining, heuristic, job_of);
  Time makespan = not_before;
  Time t = not_before;
  // Min-heap of future event candidates (completions of this batch).
  std::priority_queue<Time, std::vector<Time>, std::greater<>> events;
  while (!remaining.empty()) {
    // Start every job that fits at exactly t, scanning in priority order.
    std::size_t write = 0;
    for (std::size_t read = 0; read < remaining.size(); ++read) {
      const JobId id = remaining[read];
      MachineId machine = kInvalidMachine;
      const Time start = earliest_fit(id, t, machine);
      if (start == t) {
        commit(id, machine, t);
        const Time finish = t + job_of(id).processing;
        events.push(finish);
        makespan = std::max(makespan, finish);
      } else {
        remaining[write++] = id;
      }
    }
    remaining.resize(write);
    if (remaining.empty()) break;

    // Advance to the next event strictly after t.  If the batch produced
    // no usable completion (e.g. blocked by pre-existing reservations),
    // fall forward to the earliest feasible start of any remaining job.
    Time next = std::numeric_limits<Time>::infinity();
    while (!events.empty() && events.top() <= t) events.pop();
    if (!events.empty()) next = events.top();
    for (JobId id : remaining) {
      MachineId machine = kInvalidMachine;
      next = std::min(next, earliest_fit(id, t, machine));
    }
    t = next;
  }
  return makespan;
}

void PriorityQueueScheduler::save_state(recovery::StateWriter& w) const {
  std::vector<JobId> ids;
  ids.reserve(queue_.size());
  for (const Entry& e : queue_) ids.push_back(e.id);
  w.vec_i32(ids);
}

void PriorityQueueScheduler::restore_state(recovery::StateReader& r) {
  // No context here: keys, demand rows and membership are rebuilt by the
  // first callback after the restore.
  queue_.clear();
  for (JobId id : r.vec_i32()) queue_.push_back({0.0, id});
  stale_ = true;
}

}  // namespace mris
