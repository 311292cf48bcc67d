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

namespace {

/// The queue order: heuristic key, ties by job id.
template <typename A, typename B>
bool ranks_before(const A& a, const B& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}

}  // namespace

std::span<const double> PriorityQueueScheduler::row_of(
    std::int32_t cls) const {
  return {rows_.data() + static_cast<std::size_t>(cls) * resources_,
          resources_};
}

std::vector<std::int32_t>::iterator PriorityQueueScheduler::find_row(
    std::span<const double> row) {
  return std::lower_bound(
      by_row_.begin(), by_row_.end(), row,
      [this](std::int32_t cls, std::span<const double> r) {
        const auto a = row_of(cls);
        return std::lexicographical_compare(a.begin(), a.end(), r.begin(),
                                            r.end());
      });
}

std::int32_t PriorityQueueScheduler::class_of(std::span<const double> demand) {
  // Rows that differ only in the sign of a zero share a class: every use
  // of a row (fits_available, the commit's subtraction, the peak) gives
  // them the same result.
  const auto at = find_row(demand);
  if (at != by_row_.end() && std::ranges::equal(row_of(*at), demand)) {
    return *at;
  }
  std::int32_t cls;
  if (free_slots_.empty()) {
    cls = static_cast<std::int32_t>(classes_.size());
    classes_.emplace_back();
    rows_.insert(rows_.end(), demand.begin(), demand.end());
  } else {
    cls = free_slots_.back();
    free_slots_.pop_back();
    const auto at_row = static_cast<std::size_t>(cls) * resources_;
    std::ranges::copy(demand,
                      rows_.begin() + static_cast<std::ptrdiff_t>(at_row));
  }
  by_row_.insert(at, cls);
  return cls;
}

void PriorityQueueScheduler::release_class(std::int32_t cls) {
  by_row_.erase(find_row(row_of(cls)));
  free_slots_.push_back(cls);
}

PriorityQueueScheduler::Head PriorityQueueScheduler::head_of(
    const Entry& e, std::int32_t cls) const {
  const auto row = row_of(cls);
  const auto peak = std::ranges::max_element(row);
  return {e.key, e.id, cls, static_cast<std::int32_t>(peak - row.begin()),
          *peak};
}

void PriorityQueueScheduler::rebuild_if_stale(const EngineContext& ctx) {
  if (!stale_) return;
  stale_ = false;
  resources_ = static_cast<std::size_t>(ctx.num_resources());
  queued_.assign(ctx.num_jobs(), 0);
  // restored_ is in ascending (key, id) order, so walking it backwards
  // appends to every class in its descending order.
  for (auto it = restored_.rbegin(); it != restored_.rend(); ++it) {
    const Job& job = ctx.job(*it);
    const std::int32_t cls = class_of(job.demand);
    classes_[static_cast<std::size_t>(cls)].push_back(
        {heuristic_key(heuristic_, job), *it});
    queued_[static_cast<std::size_t>(*it)] = 1;
  }
  restored_.clear();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].empty()) continue;
    order_.push_back(
        head_of(classes_[c].back(), static_cast<std::int32_t>(c)));
  }
  std::sort(order_.begin(), order_.end(), ranks_before<Head, Head>);
}

void PriorityQueueScheduler::enqueue(EngineContext& ctx, JobId job) {
  rebuild_if_stale(ctx);
  // A requeued job may already sit in the queue (it re-arrives via
  // on_arrival after a fault); never hold it twice.  Streaming admission
  // appends jobs, so membership grows with the job count.
  if (queued_.size() < ctx.num_jobs()) queued_.resize(ctx.num_jobs(), 0);
  char& member = queued_[static_cast<std::size_t>(job)];
  if (member) return;
  member = 1;
  // The key is computed once: a queued job's effective view never changes
  // while it waits (only a committed attempt's loss re-sizes it).
  resources_ = static_cast<std::size_t>(ctx.num_resources());
  const Job& j = ctx.job(job);
  const Entry entry{heuristic_key(heuristic_, j), job};
  const std::int32_t cls = class_of(j.demand);
  ClassJobs& jobs = classes_[static_cast<std::size_t>(cls)];
  const auto pos = std::lower_bound(
      jobs.begin(), jobs.end(), entry,
      [](const Entry& a, const Entry& b) { return ranks_before(b, a); });
  if (pos == jobs.end()) {
    // The job heads its class: move the class to its place in order_.
    const Head head = head_of(entry, cls);
    const auto at = std::lower_bound(order_.begin(), order_.end(), head,
                                     ranks_before<Head, Head>);
    if (jobs.empty()) {
      order_.insert(at, head);
    } else {
      const auto was = std::lower_bound(at, order_.end(), jobs.back(),
                                        ranks_before<Head, Entry>);
      MRIS_INVARIANT(was != order_.end() && was->cls == cls,
                     "a class is missing from the head order");
      std::move_backward(at, was, was + 1);
      *at = head;
    }
  }
  jobs.insert(pos, entry);
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

void PriorityQueueScheduler::on_start(EngineContext& /*ctx*/) { reset(); }

void PriorityQueueScheduler::reset() {
  // The class table's row width and the membership bitmap belong to one
  // run; versions count the changes of one cluster object, so a row read
  // in another run could carry a matching key.
  classes_.clear();
  rows_.clear();
  free_slots_.clear();
  by_row_.clear();
  order_.clear();
  queued_.clear();
  restored_.clear();
  stale_ = false;
  row_keys_.clear();
  max_stale_ = true;
}

double* PriorityQueueScheduler::free_row(const EngineContext& ctx,
                                         const Cluster& cluster,
                                         std::size_t m) {
  // Exact to read late: a row is read before this scan's first commit to
  // its machine, and commits to other machines do not change it.
  if (up_[m] == kUnread) {
    up_[m] = ctx.machine_up(static_cast<MachineId>(m)) ? kUp : kDown;
    if (up_[m] == kUp) read_row(cluster, m);
  }
  return up_[m] == kUp ? free_.data() + m * resources_ : nullptr;
}

void PriorityQueueScheduler::read_row(const Cluster& cluster, std::size_t m) {
  const auto machine = static_cast<MachineId>(m);
  RowKey& key = row_keys_[m];
  const std::uint64_t version = cluster.version(machine);
  if (key.version == version && key.from <= now_ && now_ < key.until) return;
  const std::span<double> row(free_.data() + m * resources_, resources_);
  if (!max_stale_) std::ranges::copy(row, was_.begin());
  key = {version, now_, cluster.available_until(machine, now_, row)};
  if (!max_stale_) note_row_change(m);
}

void PriorityQueueScheduler::note_row_change(std::size_t m) {
  const double* row = free_.data() + m * resources_;
  for (std::size_t l = 0; l < resources_; ++l) {
    if (row[l] >= max_free_[l]) {
      max_free_[l] = row[l];
    } else if (was_[l] == max_free_[l]) {
      // The row held this max and fell below it; another may hold it too.
      max_stale_ = true;
      return;
    }
  }
}

void PriorityQueueScheduler::refresh_max_free(std::size_t resources) {
  max_free_.assign(resources, -std::numeric_limits<double>::infinity());
  for (std::size_t m = 0; m < up_.size(); ++m) {
    if (up_[m] != kUp) continue;
    for (std::size_t l = 0; l < resources; ++l) {
      max_free_[l] = std::max(max_free_[l], free_[m * resources + l]);
    }
  }
  max_stale_ = false;
}

void PriorityQueueScheduler::scan_and_schedule(EngineContext& ctx) {
  rebuild_if_stale(ctx);
  if (order_.empty()) return;
  now_ = ctx.now();
  const auto M = static_cast<std::size_t>(ctx.num_machines());
  resources_ = static_cast<std::size_t>(ctx.num_resources());
  const std::size_t R = resources_;

  // Instantaneous free capacity per machine, maintained across commits in
  // this scan.  In a pure PQ run every reservation starts at or before now,
  // so instantaneous fit implies window fit; can_start() still confirms so
  // that subclasses remain correct if mixed with future reservations.
  // A row is re-read from the timeline only when its cached key no longer
  // covers now.  With one class queued, rows are checked as its jobs reach
  // each machine; with more, all are checked now so that max_free_ can drop
  // a class before its machine loop.  max_free_ follows the rows that
  // change and is rebuilt only when a row that held a max falls or the up
  // set moves.
  const Cluster& cluster = ctx.cluster();
  if (row_keys_.size() != M || free_.size() != M * R) {
    row_keys_.assign(M, RowKey{});
    free_.assign(M * R, 0.0);
    was_.assign(R, 0.0);
    max_up_.assign(M, 0);
    max_stale_ = true;
  }
  up_.assign(M, kUnread);
  const bool prefilter = order_.size() > 1;
  if (prefilter) {
    for (std::size_t m = 0; m < M; ++m) {
      const bool up = ctx.machine_up(static_cast<MachineId>(m));
      if (up != (max_up_[m] != 0)) {
        max_up_[m] = up ? 1 : 0;
        max_stale_ = true;
      }
      up_[m] = up ? kUp : kDown;
      if (up) read_row(cluster, m);
    }
    if (max_stale_) refresh_max_free(R);
  } else {
    max_stale_ = true;  // rows may change below without max_free_
  }

  // Visits one job: started, left queued, or its class is dead.  Free
  // capacity only falls within a scan, so once a row fits on no up machine
  // no later job of its class fits either.
  enum class Outcome { kStarted, kKept, kDead };
  const auto try_start = [&](const Head& e,
                             std::span<const double> demand) -> Outcome {
    // A job that fails the prefilter fits on no up machine (DESIGN.md).
    // The peak resource alone settles most of them without the row.
    if (prefilter && (e.peak > max_free_[e.peak_at] + 1e-9 ||
                      !fits_available(max_free_, demand))) {
      return Outcome::kDead;
    }
    // A retry-gated job is skipped; later jobs of its class may start.
    if (ctx.earliest_start(e.id) > now_) return Outcome::kKept;
    bool fits_somewhere = false;
    for (std::size_t m = 0; m < M; ++m) {
      double* row = free_row(ctx, cluster, m);
      if (row == nullptr) continue;
      const std::span<double> avail(row, R);
      if (!fits_available(avail, demand)) continue;
      fits_somewhere = true;
      const auto machine = static_cast<MachineId>(m);
      if (!ctx.can_start(e.id, machine, now_)) continue;
      if (!ctx.try_commit(e.id, machine, now_)) continue;
      MRIS_INVARIANT(e.key == heuristic_key(heuristic_, ctx.job(e.id)),
                     "a queued job's cached heuristic key went stale");
      if (prefilter) std::ranges::copy(avail, was_.begin());
      for (std::size_t l = 0; l < R; ++l) {
        avail[l] = std::max(0.0, avail[l] - demand[l]);
      }
      row_keys_[m] = {};  // the row no longer mirrors the timeline
      if (prefilter) {
        note_row_change(m);
        if (max_stale_) refresh_max_free(R);
      }
      return Outcome::kStarted;
    }
    // A can_start/try_commit refusal depends on p_j, not only on the row.
    return fits_somewhere ? Outcome::kKept : Outcome::kDead;
  };

  // A k-way merge of the classes in global (key, id) order.  order_ yields
  // each class's head; a class whose next job must be visited in this scan
  // waits in revisit_.  Every class leaves the merge exactly once: it is
  // written back to order_ (compacted in place, in order of its new head)
  // when its first job that stays queued is visited, or released when its
  // last job starts.
  const auto later = [](const Cursor& a, const Cursor& b) {
    return ranks_before(b.head, a.head);
  };
  revisit_.clear();
  std::size_t write = 0;
  std::size_t read = 0;
  while (read < order_.size() || !revisit_.empty()) {
    Cursor cur;
    if (!revisit_.empty() &&
        (read == order_.size() || ranks_before(revisit_.front().head,
                                               order_[read]))) {
      std::pop_heap(revisit_.begin(), revisit_.end(), later);
      cur = revisit_.back();
      revisit_.pop_back();
    } else {
      cur = {order_[read++], -1, false};  // -1: the class's head, back()
    }
    const Outcome outcome = try_start(cur.head, row_of(cur.head.cls));
    if (outcome == Outcome::kDead) {
      if (!cur.kept) order_[write++] = cur.head;
      continue;
    }
    ClassJobs& jobs = classes_[static_cast<std::size_t>(cur.head.cls)];
    if (cur.pos < 0) cur.pos = static_cast<std::int32_t>(jobs.size()) - 1;
    if (outcome == Outcome::kStarted) {
      queued_[static_cast<std::size_t>(cur.head.id)] = 0;
      jobs.erase(jobs.begin() + cur.pos);
      if (jobs.empty()) {
        release_class(cur.head.cls);
        continue;
      }
    } else if (!cur.kept) {
      order_[write++] = cur.head;
      cur.kept = true;
    }
    if (cur.pos == 0) continue;
    const Entry& next = jobs[static_cast<std::size_t>(--cur.pos)];
    cur.head.key = next.key;
    cur.head.id = next.id;
    revisit_.push_back(cur);
    std::push_heap(revisit_.begin(), revisit_.end(), later);
  }
  order_.resize(write);
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
  if (stale_) {
    w.vec_i32(restored_);
    return;
  }
  std::vector<Entry> queued;
  for (const Head& head : order_) {
    const ClassJobs& jobs = classes_[static_cast<std::size_t>(head.cls)];
    queued.insert(queued.end(), jobs.begin(), jobs.end());
  }
  std::sort(queued.begin(), queued.end(), ranks_before<Entry, Entry>);
  std::vector<JobId> ids;
  ids.reserve(queued.size());
  for (const Entry& e : queued) ids.push_back(e.id);
  w.vec_i32(ids);
}

void PriorityQueueScheduler::restore_state(recovery::StateReader& r) {
  // No context here: keys, classes and membership are rebuilt by the first
  // callback after the restore.
  reset();
  restored_ = r.vec_i32();
  stale_ = true;
}

}  // namespace mris
