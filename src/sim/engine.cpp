#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/faults/crash.hpp"
#include "sim/recovery/journal.hpp"
#include "sim/recovery/snapshot.hpp"
#include "sim/recovery/state_io.hpp"
#include "util/contracts.hpp"

namespace mris {

namespace {

/// Completions between committed-horizon calendar prunes
/// (Cluster::prune_before).  Pruning only discards capacity history the
/// engine already refuses to commit into (below now), so the cadence never
/// affects results — only the memory bound: a long-running daemon holds
/// O(backlog) calendar rather than O(all history).
constexpr int kPruneEvery = 32;

// Internal event kinds.  The relative order of the original three kinds
// (completion < arrival < wakeup) is preserved so fault-free runs replay
// the pre-fault engine byte-for-byte; repairs/crashes slot in between so
// an arrival at t observes the post-fault cluster at t.
enum class EventKind : int {
  kCompletion = 0,
  kMachineUp = 1,
  kMachineDown = 2,
  kArrival = 3,
  kWakeup = 4,
  kRetryReady = 5,
};

struct Event {
  Time t;
  EventKind kind;
  std::uint64_t seq;  // FIFO tie-break within (t, kind)
  JobId job = kInvalidJob;
  MachineId machine = kInvalidMachine;
  std::uint64_t aux = 0;  // completion: job epoch; machine event: outage idx
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.kind != b.kind) return static_cast<int>(a.kind) > static_cast<int>(b.kind);
    return a.seq > b.seq;
  }
};

/// Read-only access to a priority_queue's underlying array, in heap (not
/// sorted) order.  EventLater is a strict total order — (t, kind, seq) with
/// seq unique — so the pop sequence, the only thing the engine observes, is
/// the same no matter how the heap happens to be laid out.  Snapshots
/// serialize the raw array instead of draining a copied queue, which was
/// O(Q log Q) sift-downs per snapshot and dominated durability overhead.
struct QueuePeek : std::priority_queue<Event, std::vector<Event>, EventLater> {
  static const std::vector<Event>& container(
      const std::priority_queue<Event, std::vector<Event>, EventLater>& q) {
    return q.*&QueuePeek::c;
  }
};

// Little-endian field stores for stack-staged snapshot records (same wire
// format as StateWriter::u32/u64/f64).
void put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}
void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}
void put_f64(char* p, double v) { put_u64(p, std::bit_cast<std::uint64_t>(v)); }

/// The EventRecord a popped internal event is emitted and journaled as.
EventRecord to_record(const Event& e, Time now) {
  using K = EventRecord::Kind;
  // Indexed by EventKind.
  static constexpr K kKinds[] = {K::kCompletion, K::kMachineUp,
                                 K::kMachineDown, K::kArrival,
                                 K::kWakeup,     K::kRetryReady};
  return {kKinds[static_cast<int>(e.kind)], now, e.job, e.machine, 0.0};
}

class Engine final : public EngineContext {
 public:
  Engine(const Instance& inst, OnlineScheduler& scheduler,
         const RunOptions& options, bool streaming = false)
      : inst_(inst),
        scheduler_(scheduler),
        options_(options),
        cluster_(inst.num_machines(), inst.num_resources()),
        schedule_(inst.num_jobs()),
        streaming_(streaming),
        in_pending_(inst.num_jobs(), 0),
        released_(inst.num_jobs(), false),
        committed_(inst.num_jobs(), false),
        retries_(inst.num_jobs(), 0),
        injected_(inst.num_jobs(), 0),
        residual_(inst.num_jobs()),
        gate_(inst.num_jobs(), 0.0),
        epoch_(inst.num_jobs(), 0),
        machine_down_flag_(static_cast<std::size_t>(inst.num_machines()), 0),
        down_until_(static_cast<std::size_t>(inst.num_machines()), 0.0),
        live_(static_cast<std::size_t>(inst.num_machines())),
        outage_floor_(static_cast<std::size_t>(inst.num_machines()),
                      -std::numeric_limits<Time>::infinity()) {
  }

  RunResult run();

  // Streaming driver (StreamEngine) ------------------------------------

  /// Fault validation, recovery setup, and fresh-run seeding; returns true
  /// when engine state was restored from a snapshot.  run() calls this too.
  bool prepare();

  /// Processes the next event.  Returns false — consuming nothing — when
  /// no event is left or (with `bounded`) the next event's key is at or
  /// past (stop, kArrival), the slot an arrival at `stop` would occupy.
  bool step(Time stop, bool bounded);

  /// Final feasibility checks + result assembly (the run() postlude).
  RunResult finalize();

  /// Throws std::logic_error unless an arrival at `release` may be
  /// admitted next: releases must be non-decreasing across admissions, and
  /// the arrival key must not precede the last processed event key —
  /// events must stay non-decreasing, or the run is not replayable.
  void check_admissible(Time release) const;

  /// Admits job `id` of the (externally grown) instance mid-run: extends
  /// every per-job array and schedules the arrival (check_admissible
  /// first).
  void admit(JobId id);

  bool restored() const noexcept { return restored_; }

  // EngineContext -----------------------------------------------------
  Time now() const override { return now_; }
  int num_machines() const override { return inst_.num_machines(); }
  int num_resources() const override { return inst_.num_resources(); }
  std::size_t num_jobs() const override { return inst_.num_jobs(); }

  const Job& job(JobId id) const override {
    if (id < 0 || static_cast<std::size_t>(id) >= inst_.num_jobs()) {
      throw std::logic_error("EngineContext::job: bad job id");
    }
    if (!released_[static_cast<std::size_t>(id)]) {
      throw std::logic_error(
          "EngineContext::job: job " + std::to_string(id) +
          " has not been released yet (online model violation)");
    }
    // Under faults, the effective view: a resumed job's processing is its
    // residual work plus restore overhead, so schedulers classify, sort,
    // and pack by what actually remains to run.
    return faults_ ? effective_[static_cast<std::size_t>(id)] : inst_.job(id);
  }

  const std::vector<JobId>& pending() const override {
    compact_pending();
    return pending_;
  }
  const Cluster& cluster() const override { return cluster_; }

  bool can_start(JobId id, MachineId m, Time start) const override {
    return cluster_.fits(job(id), m, start);
  }

  Time earliest_fit_on(JobId id, MachineId m, Time not_before) const override {
    // A revealed outage is a hard no-start zone even for zero-demand jobs
    // (which the capacity block alone would not stop).
    if (m >= 0 && m < cluster_.num_machines()) {
      not_before =
          std::max(not_before, outage_floor_[static_cast<std::size_t>(m)]);
    }
    return cluster_.earliest_fit_on(job(id), m, not_before);
  }

  Time earliest_fit(JobId id, Time not_before,
                    MachineId& best_machine) const override {
    return cluster_.earliest_fit(job(id), not_before, best_machine,
                                 outage_floor_);
  }

  void commit(JobId id, MachineId m, Time start) override {
    commit_impl(id, m, start, /*throwing=*/true);
  }

  bool try_commit(JobId id, MachineId m, Time start) override {
    return commit_impl(id, m, start, /*throwing=*/false);
  }

  void schedule_wakeup(Time t) override {
    if (t < now_ - 1e-9) {
      throw std::logic_error("schedule_wakeup: time in the past");
    }
    if (wakeups_.insert(t).second) {
      push({t, EventKind::kWakeup, seq_++});
    }
  }

  int retry_count(JobId id) const override {
    return retries_.at(static_cast<std::size_t>(id));
  }

  Time earliest_start(JobId id) const override {
    return std::max(now_, gate_.at(static_cast<std::size_t>(id)));
  }

  bool machine_up(MachineId m) const override {
    return machine_down_flag_.at(static_cast<std::size_t>(m)) == 0;
  }

  Time checkpointed_progress(JobId id) const override {
    return residual_.at(static_cast<std::size_t>(id)).done;
  }

 private:
  /// One committed reservation currently on a machine's calendar.  Tracked
  /// only in faulty runs (the fault-free path never needs to revisit one).
  struct LiveRes {
    JobId job;
    Time start;
    Time declared_end;  ///< start + declared effective processing
    Time occupied_end;  ///< actual occupancy end (>= declared under stragglers)
    bool extended;      ///< straggler extension already applied
    Time restore;       ///< restore overhead included in this attempt
    Time work;          ///< declared residual work (p_j - progress_in)
    Time progress_in;   ///< checkpointed progress resumed from
  };

  void push(Event e) { queue_.push(e); }

  /// True when the next event in (t, kind, seq) order is the arrival under
  /// the cursor rather than the heap's top.  No heap event is an arrival,
  /// so the two never tie.
  bool next_is_arrival() const {
    return arrivals_cursor_ < arrivals_.size() &&
           (queue_.empty() ||
            EventLater{}(queue_.top(), arrivals_[arrivals_cursor_]));
  }

  /// Puts arrivals_ in (t, seq) order, the order the heap pops events of
  /// one kind in.
  void sort_arrivals() {
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Event& a, const Event& b) {
                return EventLater{}(b, a);
              });
  }

  bool drained() const {
    return queue_.empty() && arrivals_cursor_ == arrivals_.size();
  }

  /// Consumes the arrival under the cursor.  The consumed prefix is
  /// dropped once it is larger than the rest, so the move cost amortizes
  /// to O(1) per arrival and a daemon holds only its unconsumed backlog.
  void pop_arrival() {
    if (++arrivals_cursor_ > arrivals_.size() / 2) {
      arrivals_.erase(arrivals_.begin(),
                      arrivals_.begin() +
                          static_cast<std::ptrdiff_t>(arrivals_cursor_));
      arrivals_cursor_ = 0;
    }
  }

  /// Drops the entries of jobs committed since the last compaction.
  /// Stable, so pending_ ends up exactly as an erase at each commit would
  /// have left it.
  void compact_pending() const {
    if (pending_dead_ == 0) return;
    std::erase_if(pending_, [this](JobId id) {
      return in_pending_[static_cast<std::size_t>(id)] == 0;
    });
    pending_dead_ = 0;
  }

  /// Appends a requeued job.  It may still have a dead entry from its
  /// commit, which must go first or the job would be listed twice.
  void add_pending(JobId id) {
    compact_pending();
    pending_.push_back(id);
    in_pending_[static_cast<std::size_t>(id)] = 1;
  }

  /// Advances job `id`'s checkpointed progress to `done` (a salvaged grid
  /// mark) and re-sizes its effective view for the next attempt.
  void set_progress(JobId id, Time done) {
    const std::size_t i = static_cast<std::size_t>(id);
    const Job& j = inst_.job(id);
    MRIS_EXPECT(done >= residual_[i].done - 1e-12,
                "checkpointed progress must be monotone across attempts");
    MRIS_EXPECT(done < j.processing,
                "salvaged progress must leave positive residual work");
    residual_[i].done = done;
    residual_[i].restore =
        done > 0.0 ? faults_->checkpoint.restore_overhead : 0.0;
    effective_[i].processing = residual_[i].effective_processing(j);
    MRIS_ENSURE(effective_[i].processing > 0.0,
                "effective processing of a resumed job must stay positive");
  }

  bool commit_impl(JobId id, MachineId m, Time start, bool throwing) {
    if (id < 0 || static_cast<std::size_t>(id) >= inst_.num_jobs() ||
        !released_[static_cast<std::size_t>(id)]) {
      if (throwing) job(id);  // throws the canonical visibility error
      return false;
    }
    // Effective view: a resumed job reserves and completes by its residual
    // processing time, not the original p_j.
    const Job& j =
        faults_ ? effective_[static_cast<std::size_t>(id)] : inst_.job(id);
    if (committed_[static_cast<std::size_t>(id)]) {
      if (!throwing) return false;
      throw std::logic_error("commit: job " + std::to_string(id) +
                             " already committed (non-preemptive model)");
    }
    // Tolerate microscopic clock skew but not genuine past starts.
    if (start < now_ - 1e-9) {
      if (!throwing) return false;
      throw std::logic_error("commit: start " + std::to_string(start) +
                             " is in the past (now=" + std::to_string(now_) +
                             ")");
    }
    if (start + 1e-9 < j.release) {
      if (!throwing) return false;
      throw std::logic_error("commit: start precedes release of job " +
                             std::to_string(id));
    }
    if (start + 1e-9 < gate_[static_cast<std::size_t>(id)]) {
      if (!throwing) return false;
      throw std::logic_error("commit: start precedes retry gate of job " +
                             std::to_string(id));
    }
    if (m >= 0 && m < cluster_.num_machines() &&
        machine_down_flag_[static_cast<std::size_t>(m)] &&
        start < down_until_[static_cast<std::size_t>(m)] - 1e-9) {
      // The outage block stops any non-zero demand via capacity, but
      // zero-demand jobs would slip through; reject all starts inside a
      // *revealed* outage window explicitly.
      if (!throwing) return false;
      throw std::logic_error("commit: machine " + std::to_string(m) +
                             " is down until t=" +
                             std::to_string(down_until_[static_cast<std::size_t>(m)]));
    }
    if (throwing) {
      cluster_.reserve(j, m, start);  // throws if infeasible
    } else {
      if (m < 0 || m >= cluster_.num_machines() || !cluster_.fits(j, m, start)) {
        return false;
      }
      cluster_.reserve(j, m, start);
    }
    schedule_.assign(id, m, start);
    MRIS_ENSURE(schedule_.assignment(id).assigned(),
                "commit must leave the job assigned in the schedule");
    record({EventRecord::Kind::kCommit, now_, id, m, start});
    committed_[static_cast<std::size_t>(id)] = true;
    MRIS_INVARIANT(in_pending_[static_cast<std::size_t>(id)],
                   "a committable job must have a live pending entry");
    in_pending_[static_cast<std::size_t>(id)] = 0;
    if (2 * ++pending_dead_ > pending_.size()) compact_pending();
    if (faults_) {
      auto& lv = live_[static_cast<std::size_t>(m)];
      MRIS_INVARIANT(std::none_of(lv.begin(), lv.end(),
                                  [&](const LiveRes& r) { return r.job == id; }),
                     "committed job already has a live reservation");
      const ResidualWork& rw = residual_[static_cast<std::size_t>(id)];
      lv.push_back({id, start, start + j.processing, start + j.processing,
                    false, rw.restore, rw.remaining(inst_.job(id)),
                    rw.done});
    }
    push({start + j.processing, EventKind::kCompletion, seq_++, id, m,
          epoch_[static_cast<std::size_t>(id)]});
    return true;
  }

  /// Re-releases a lost job: invalidates its queued completion, clears the
  /// assignment, appends it to pending_, and (for genuine losses) advances
  /// the retry counter and exponential-backoff gate.  The caller notifies
  /// the scheduler; a gated job instead gets a kRetryReady event at its
  /// gate, which default-forwards to on_arrival.
  void requeue(JobId id, MachineId lost_machine, bool count_retry) {
    const std::size_t i = static_cast<std::size_t>(id);
    MRIS_EXPECT(committed_[i],
                "requeue of a job without a committed reservation");
    ++epoch_[i];
    committed_[i] = false;
    schedule_.unassign(id);
    Time gate = now_;
    if (count_retry) {
      ++retries_[i];
      if (faults_->retry_backoff > 0.0) {
        gate = now_ + faults_->retry_backoff * std::ldexp(1.0, retries_[i] - 1);
      }
    }
    gate_[i] = gate;
    add_pending(id);
    record({EventRecord::Kind::kRequeue, now_, id, lost_machine, 0.0});
    if (gate > now_ + 1e-12) {
      push({gate, EventKind::kRetryReady, seq_++, id, lost_machine});
    }
  }

  bool gated(JobId id) const {
    return gate_[static_cast<std::size_t>(id)] > now_ + 1e-12;
  }

  // Durability subsystem (docs/RECOVERY.md) -----------------------------

  /// Funnels every emitted EventRecord to the on_record observer and
  /// through the durability layer: verified against the journal tail
  /// (while resuming), or appended to the journal (once past the tail).
  /// The journal is the authoritative record stream — a resumed run that
  /// re-derives a different record than the journal holds is corrupt or
  /// nondeterministic, and aborts loudly rather than completing wrong.
  void record(const EventRecord& rec) {
    if (options_.on_record) options_.on_record(rec);
    if (rec_ == nullptr) return;
    if (verify_pos_ < verify_tail_.size()) {
      if (recovery::encode_event_record(rec) !=
          recovery::encode_event_record(verify_tail_[verify_pos_])) {
        throw std::runtime_error(
            "recovery: resumed run diverged from the journal at record " +
            std::to_string(records_emitted_) + " (re-derived " +
            event_kind_name(rec.kind) + ", journal holds " +
            event_kind_name(verify_tail_[verify_pos_].kind) +
            "); the state is corrupt or the run is nondeterministic");
      }
      ++verify_pos_;
    } else if (journal_ != nullptr) {
      journal_->append(rec);
    }
    ++records_emitted_;
  }

  /// Everything that identifies a run: instance, scheduler and fault plan.
  /// A snapshot or journal written under a different fingerprint refuses
  /// to resume — recovering state into the wrong run would silently
  /// corrupt results.
  std::uint64_t compute_fingerprint() const {
    recovery::Fingerprint fp;
    fp.mix(std::string_view(scheduler_.name()));
    fp.mix(static_cast<std::uint64_t>(inst_.num_machines()));
    fp.mix(static_cast<std::uint64_t>(inst_.num_resources()));
    if (streaming_) {
      // The job set is not known upfront and grows between the crashed and
      // the resumed process, so it cannot be part of the identity; job data
      // integrity is the admission journal's contract (serve/daemon.hpp,
      // per-record CRC + its own config fingerprint).
      fp.mix(std::string_view("stream-v1"));
    } else {
      fp.mix(static_cast<std::uint64_t>(inst_.num_jobs()));
      for (const Job& j : inst_.jobs()) {
        fp.mix(static_cast<std::uint64_t>(j.id));
        fp.mix(j.release);
        fp.mix(j.processing);
        fp.mix(j.weight);
        fp.mix(static_cast<std::uint64_t>(j.tenant));
        for (double d : j.demand) fp.mix(d);
      }
    }
    fp.mix(static_cast<std::uint64_t>(faults_ != nullptr ? 1 : 0));
    if (faults_ != nullptr) {
      fp.mix(static_cast<std::uint64_t>(faults_->outages.size()));
      for (const OutageWindow& o : faults_->outages) {
        fp.mix(static_cast<std::uint64_t>(o.machine));
        fp.mix(o.down);
        fp.mix(o.up);
      }
      fp.mix(static_cast<std::uint64_t>(faults_->stretch.size()));
      for (double s : faults_->stretch) fp.mix(s);
      fp.mix(faults_->failure_prob);
      fp.mix(static_cast<std::uint64_t>(faults_->max_retries));
      fp.mix(faults_->retry_backoff);
      fp.mix(faults_->seed);
      const CheckpointPolicy& cp = faults_->checkpoint;
      fp.mix(static_cast<std::uint64_t>(cp.kind));
      fp.mix(cp.interval);
      fp.mix(cp.fraction);
      fp.mix(cp.restore_overhead);
      fp.mix(cp.jitter);
      fp.mix(cp.seed);
    }
    return fp.value();
  }

  /// Serializes the complete engine state at an event boundary: clock,
  /// event queue, job/scheduling flags, fault-recovery state, machine
  /// timelines, the schedule, and the scheduler's own state.
  void save_engine_state(recovery::StateWriter& w) const {
    // Streaming payloads lead with the admitted-job count: a resuming
    // daemon must rebuild the instance prefix from its admission journal
    // *before* the engine can restore (every per-job array below is sized
    // by it).  serve::serve_stream reads exactly this field.
    if (streaming_) w.u64(inst_.num_jobs());
    w.f64(now_);
    w.u64(seq_);
    w.u64(processed_);
    w.u64(remaining_);
    w.i32(completions_since_prune_);
    // One event block: the heap, then the unconsumed arrivals.
    const std::vector<Event>& heap = QueuePeek::container(queue_);
    const std::size_t unconsumed = arrivals_.size() - arrivals_cursor_;
    w.u64(heap.size() + unconsumed);
    // The queue is the largest block in a snapshot (a fault plan
    // pre-schedules every outage event), so each event is staged in a
    // stack buffer and appended in one call rather than six.
    w.reserve((heap.size() + unconsumed) * 33);
    const auto put_event = [&w](const Event& e) {
      char b[33];
      put_f64(b + 0, e.t);
      b[8] = static_cast<char>(e.kind);
      put_u64(b + 9, e.seq);
      put_u32(b + 17, static_cast<std::uint32_t>(e.job));
      put_u32(b + 21, static_cast<std::uint32_t>(e.machine));
      put_u64(b + 25, e.aux);
      w.raw(b, sizeof b);
    };
    for (const Event& e : heap) put_event(e);
    for (std::size_t i = arrivals_cursor_; i < arrivals_.size(); ++i) {
      put_event(arrivals_[i]);
    }
    compact_pending();
    w.vec_i32(pending_);
    w.vec_char(released_);
    w.vec_char(committed_);
    w.vec_f64(std::vector<double>(wakeups_.begin(), wakeups_.end()));
    w.u8(faults_ != nullptr ? 1 : 0);
    if (faults_ != nullptr) {
      w.u64(attempts_.size());
      w.reserve(attempts_.size() * 49);
      for (const Attempt& a : attempts_) {
        char b[49];
        put_u32(b + 0, static_cast<std::uint32_t>(a.job));
        put_u32(b + 4, static_cast<std::uint32_t>(a.machine));
        put_f64(b + 8, a.start);
        put_f64(b + 16, a.end);
        b[24] = static_cast<char>(a.outcome);
        put_f64(b + 25, a.restore);
        put_f64(b + 33, a.progress_in);
        put_f64(b + 41, a.progress_out);
        w.raw(b, sizeof b);
      }
      w.vec_i32(retries_);
      w.vec_i32(injected_);
      w.u64(residual_.size());
      for (const ResidualWork& rw : residual_) {
        w.f64(rw.done);
        w.f64(rw.restore);
      }
      w.vec_f64(gate_);
      w.vec_u64(epoch_);
      w.vec_char(machine_down_flag_);
      w.vec_f64(down_until_);
      w.u64(live_.size());
      for (const std::vector<LiveRes>& lv : live_) {
        w.u64(lv.size());
        for (const LiveRes& r : lv) {
          w.i32(r.job);
          w.f64(r.start);
          w.f64(r.declared_end);
          w.f64(r.occupied_end);
          w.u8(r.extended ? 1 : 0);
          w.f64(r.restore);
          w.f64(r.work);
          w.f64(r.progress_in);
        }
      }
    }
    cluster_.save_state(w);
    w.u64(schedule_.num_jobs());
    for (std::size_t i = 0; i < schedule_.num_jobs(); ++i) {
      const Assignment& a = schedule_.assignment(static_cast<JobId>(i));
      w.i32(a.machine);
      w.f64(a.start);
    }
    recovery::StateWriter sw;
    scheduler_.save_state(sw);
    w.str(sw.data());
  }

  void restore_engine_state(recovery::StateReader& r) {
    if (streaming_ && r.u64() != inst_.num_jobs()) {
      throw std::runtime_error(
          "recovery: instance prefix does not match the snapshot's "
          "admitted-job count (admission journal out of sync)");
    }
    now_ = r.f64();
    seq_ = r.u64();
    processed_ = r.u64();
    remaining_ = static_cast<std::size_t>(r.u64());
    completions_since_prune_ = r.i32();
    const std::uint64_t qn = r.u64();
    queue_ = decltype(queue_)();
    arrivals_.clear();
    arrivals_cursor_ = 0;
    for (std::uint64_t i = 0; i < qn; ++i) {
      Event e{};
      e.t = r.f64();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(EventKind::kRetryReady)) {
        throw std::runtime_error("recovery: bad event kind in snapshot");
      }
      e.kind = static_cast<EventKind>(kind);
      e.seq = r.u64();
      e.job = r.i32();
      e.machine = r.i32();
      e.aux = r.u64();
      if (e.kind == EventKind::kArrival) {
        arrivals_.push_back(e);
      } else {
        queue_.push(e);
      }
    }
    sort_arrivals();
    pending_ = r.vec_i32();
    pending_dead_ = 0;
    released_ = r.vec_char();
    committed_ = r.vec_char();
    if (released_.size() != inst_.num_jobs() ||
        committed_.size() != inst_.num_jobs()) {
      throw std::runtime_error("recovery: snapshot job count mismatch");
    }
    in_pending_.assign(inst_.num_jobs(), 0);
    for (JobId id : pending_) {
      if (id < 0 || static_cast<std::size_t>(id) >= inst_.num_jobs()) {
        throw std::runtime_error("recovery: bad pending job id in snapshot");
      }
      in_pending_[static_cast<std::size_t>(id)] = 1;
    }
    wakeups_.clear();
    for (double t : r.vec_f64()) wakeups_.insert(t);
    const bool had_faults = r.u8() != 0;
    if (had_faults != (faults_ != nullptr)) {
      throw std::runtime_error(
          "recovery: snapshot was taken under a different fault plan; "
          "refusing to resume");
    }
    if (faults_ != nullptr) {
      const std::uint64_t an = r.u64();
      attempts_.clear();
      attempts_.reserve(static_cast<std::size_t>(an));
      for (std::uint64_t i = 0; i < an; ++i) {
        Attempt a;
        a.job = r.i32();
        a.machine = r.i32();
        a.start = r.f64();
        a.end = r.f64();
        const std::uint8_t outcome = r.u8();
        if (outcome > static_cast<std::uint8_t>(Attempt::Outcome::kJobFailure)) {
          throw std::runtime_error("recovery: bad attempt outcome in snapshot");
        }
        a.outcome = static_cast<Attempt::Outcome>(outcome);
        a.restore = r.f64();
        a.progress_in = r.f64();
        a.progress_out = r.f64();
        attempts_.push_back(a);
      }
      retries_ = r.vec_i32();
      injected_ = r.vec_i32();
      const std::uint64_t rn = r.u64();
      if (rn != inst_.num_jobs() || retries_.size() != inst_.num_jobs() ||
          injected_.size() != inst_.num_jobs()) {
        throw std::runtime_error("recovery: snapshot job count mismatch");
      }
      residual_.assign(static_cast<std::size_t>(rn), ResidualWork{});
      for (ResidualWork& rw : residual_) {
        rw.done = r.f64();
        rw.restore = r.f64();
      }
      gate_ = r.vec_f64();
      epoch_ = r.vec_u64();
      machine_down_flag_ = r.vec_char();
      down_until_ = r.vec_f64();
      if (machine_down_flag_.size() != outage_floor_.size() ||
          down_until_.size() != outage_floor_.size()) {
        throw std::runtime_error("recovery: snapshot machine count mismatch");
      }
      for (std::size_t m = 0; m < outage_floor_.size(); ++m) {
        outage_floor_[m] = machine_down_flag_[m]
                               ? down_until_[m]
                               : -std::numeric_limits<Time>::infinity();
      }
      const std::uint64_t mn = r.u64();
      if (mn != static_cast<std::uint64_t>(inst_.num_machines())) {
        throw std::runtime_error("recovery: snapshot machine count mismatch");
      }
      live_.assign(static_cast<std::size_t>(mn), {});
      for (std::vector<LiveRes>& lv : live_) {
        const std::uint64_t ln = r.u64();
        lv.reserve(static_cast<std::size_t>(ln));
        for (std::uint64_t i = 0; i < ln; ++i) {
          LiveRes res{};
          res.job = r.i32();
          res.start = r.f64();
          res.declared_end = r.f64();
          res.occupied_end = r.f64();
          res.extended = r.u8() != 0;
          res.restore = r.f64();
          res.work = r.f64();
          res.progress_in = r.f64();
          lv.push_back(res);
        }
      }
      // The effective views are derived state: recompute them from the
      // restored residuals exactly as set_progress() maintains them.
      effective_ = inst_.jobs();
      for (std::size_t i = 0; i < effective_.size(); ++i) {
        effective_[i].processing =
            residual_[i].effective_processing(inst_.jobs()[i]);
      }
    }
    cluster_.restore_state(r);
    const std::uint64_t sn = r.u64();
    if (sn != inst_.num_jobs()) {
      throw std::runtime_error("recovery: snapshot job count mismatch");
    }
    schedule_ = Schedule(inst_.num_jobs());
    for (std::size_t i = 0; i < static_cast<std::size_t>(sn); ++i) {
      const MachineId machine = r.i32();
      const Time start = r.f64();
      if (machine != kInvalidMachine) {
        schedule_.assign(static_cast<JobId>(i), machine, start);
      }
    }
    const std::string sched_bytes = r.str();
    recovery::StateReader sr(sched_bytes);
    scheduler_.restore_state(sr);
    if (!sr.done()) {
      throw std::runtime_error(
          "recovery: scheduler '" + scheduler_.name() +
          "' did not consume its serialized state (save/restore mismatch)");
    }
    if (!r.done()) {
      throw std::runtime_error("recovery: trailing bytes in snapshot payload");
    }
  }

  /// Initializes the durability layer; returns true when engine state was
  /// restored from a snapshot (the caller then skips fresh-run seeding).
  bool setup_recovery() {
    rec_ = options_.recovery;
    MRIS_EXPECT(!rec_->journal_path.empty() || !rec_->snapshot_path.empty(),
                "RecoveryOptions needs a journal path or a snapshot path");
    fingerprint_ = compute_fingerprint();
    if (!rec_->snapshot_path.empty()) {
      snapstore_ =
          std::make_unique<recovery::SnapshotStore>(*rec_, &rec_stats_);
    }
    if (!rec_->journal_path.empty()) {
      journal_ = std::make_unique<recovery::JournalWriter>(*rec_, &rec_stats_);
    }

    bool restored = false;
    bool journal_reusable = false;
    if (rec_->resume) {
      recovery::JournalContents jr;
      std::vector<EventRecord> journaled;
      if (journal_ != nullptr) {
        jr = recovery::read_journal(rec_->journal_path,
                                    recovery::kEventJournal);
        if (jr.ok && jr.fingerprint != fingerprint_) {
          throw std::runtime_error(
              "recovery: journal belongs to a different (instance, "
              "scheduler, fault plan); refusing to resume");
        }
        if (jr.ok && jr.torn_bytes > 0) {
          // Torn-record truncation rule: make the cut permanent before
          // this run appends past it.
          rec_stats_.journal_torn_bytes = jr.torn_bytes;
          if (!recovery::truncate_journal(rec_->journal_path,
                                          jr.valid_bytes)) {
            throw std::runtime_error(
                "recovery: cannot truncate torn journal tail");
          }
        }
        journal_reusable = jr.ok;
        journaled = recovery::event_records(jr);
      }
      recovery::SnapshotContents read;
      const recovery::SnapshotContents& snap =
          rec_->snapshot != nullptr && snapstore_ != nullptr ? *rec_->snapshot
                                                             : read;
      if (snapstore_ != nullptr) {
        if (rec_->snapshot == nullptr) {
          read = recovery::read_snapshot(rec_->snapshot_path);
        }
        if (snap.ok && snap.meta.fingerprint != fingerprint_) {
          throw std::runtime_error(
              "recovery: snapshot belongs to a different (instance, "
              "scheduler, fault plan); refusing to resume");
        }
      }
      if (snap.ok) {
        recovery::StateReader reader(snap.payload);
        restore_engine_state(reader);
        records_emitted_ = snap.meta.journal_records;
        // The journal tail past the snapshot cut is re-derived by forward
        // execution and cross-checked record by record.  A journal shorter
        // than the cut (a crash lost an unsynced batch) just means less to
        // verify — the records are re-derived and re-appended instead.
        const std::size_t cut = static_cast<std::size_t>(
            std::min<std::uint64_t>(snap.meta.journal_records,
                                    journaled.size()));
        verify_tail_.assign(journaled.begin() + static_cast<std::ptrdiff_t>(cut),
                            journaled.end());
        // The observer sees the uninterrupted run's stream: the pre-cut
        // records come from the journal (forward execution re-fires the
        // tail), so no snapshot has to carry the history.
        if (options_.on_record) {
          for (std::size_t i = 0; i < cut; ++i) {
            options_.on_record(journaled[i]);
          }
        }
        rec_stats_.resumed_from_snapshot = true;
        restored = true;
      } else if (jr.ok) {
        // Journal-only rung: deterministic re-execution from t=0, verified
        // against the entire surviving journal.
        verify_tail_ = std::move(journaled);
        rec_stats_.resumed_journal_only = true;
      }
    }
    if (journal_ != nullptr) {
      if (journal_reusable) {
        journal_->open_append();
      } else {
        journal_->open_fresh(fingerprint_);
      }
    }
    if (!rec_->resume && snapstore_ != nullptr) {
      // Fresh-run hygiene: a stale snapshot from an earlier run must not
      // survive to confuse a later resume.
      std::remove(rec_->snapshot_path.c_str());
    }
    return restored;
  }

  /// Takes a snapshot when the cadence says one is due.  The journal is
  /// synced first so the snapshot's cut is covered by durable records.
  void maybe_snapshot(bool was_wakeup) {
    if (snapstore_ == nullptr || snapstore_->dead()) return;
    const bool due =
        was_wakeup ||
        (rec_->snapshot_every > 0 && processed_ % rec_->snapshot_every == 0);
    if (!due) return;
    if (journal_ != nullptr) journal_->sync();
    recovery::SnapshotMeta meta;
    meta.fingerprint = fingerprint_;
    meta.events_processed = processed_;
    meta.journal_records = records_emitted_;
    meta.now = now_;
    snap_writer_.clear();
    save_engine_state(snap_writer_);
    snapstore_->write(meta, snap_writer_.data());
  }

  /// Keeps the degradation-ladder flags current: snapshots failing with a
  /// live journal is journal-only mode; losing the last configured
  /// mechanism is in-memory mode.  Either way the run keeps scheduling.
  void note_degradation() {
    const bool snap_failed = snapstore_ != nullptr && snapstore_->dead();
    const bool jrnl_alive = journal_ != nullptr && !journal_->dead();
    const bool jrnl_failed = journal_ != nullptr && !jrnl_alive;
    if (snap_failed && jrnl_alive) rec_stats_.degraded_journal_only = true;
    if (jrnl_failed && (snapstore_ == nullptr || snap_failed)) {
      rec_stats_.degraded_in_memory = true;
    }
  }

  const Instance& inst_;
  OnlineScheduler& scheduler_;
  RunOptions options_;
  Cluster cluster_;
  Schedule schedule_;

  /// Completions since the last committed-horizon prune (kPruneEvery):
  /// each prune pays one O(B) compaction per machine, so batching keeps it
  /// amortized O(1) per breakpoint while still bounding B by the live
  /// reservations.
  int completions_since_prune_ = 0;

  /// Streaming-admission mode (StreamEngine): arrivals come from admit()
  /// instead of upfront seeding, and the fingerprint/snapshot format
  /// adapts (see compute_fingerprint / save_engine_state).
  const bool streaming_;
  bool restored_ = false;
  /// Key of the last processed event — admit() must never schedule an
  /// arrival into the processed past.  A snapshot restore resets this to
  /// (now_, kCompletion), the weakest key any still-queued event at now_
  /// can hold.
  Time last_t_ = 0.0;
  EventKind last_kind_ = EventKind::kCompletion;

  Time now_ = 0.0;
  std::uint64_t seq_ = 0;

  /// Every non-arrival event.  Arrivals never enter the heap: they sit in
  /// arrivals_, sorted by (t, seq), and next_is_arrival() merges the two.
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  /// Unconsumed arrivals from arrivals_cursor_ on; the consumed prefix is
  /// trimmed once it outgrows the rest (pop_arrival).
  std::vector<Event> arrivals_;
  std::size_t arrivals_cursor_ = 0;
  /// Released-but-uncommitted jobs in release order, plus dead entries of
  /// jobs committed since the last compact_pending().  Readers only ever
  /// see the compacted list.
  mutable std::vector<JobId> pending_;
  mutable std::size_t pending_dead_ = 0;
  std::vector<char> in_pending_;  ///< per job: has a live pending_ entry
  std::vector<char> released_;
  std::vector<char> committed_;
  std::set<Time> wakeups_;
  std::size_t processed_ = 0;
  std::size_t remaining_ = 0;  ///< jobs not yet completed

  // Durability state (inert without RunOptions::recovery).
  const recovery::RecoveryOptions* rec_ = nullptr;
  recovery::RecoveryStats rec_stats_;
  std::unique_ptr<recovery::JournalWriter> journal_;
  std::unique_ptr<recovery::SnapshotStore> snapstore_;
  recovery::StateWriter snap_writer_;  ///< reused buffer, capacity persists
  std::uint64_t fingerprint_ = 0;
  std::uint64_t records_emitted_ = 0;  ///< position in the record stream
  std::vector<EventRecord> verify_tail_;  ///< journal records to re-derive
  std::size_t verify_pos_ = 0;

  // Fault/recovery state (inert without a plan).
  const FaultPlan* faults_ = nullptr;
  std::vector<Attempt> attempts_;
  std::vector<int> retries_;            ///< all losses (kills + injections)
  std::vector<int> injected_;           ///< injected failures only (budget)
  std::vector<ResidualWork> residual_;  ///< checkpointed progress per job
  /// Effective job views (processing = restore + residual work), the
  /// scheduler-visible jobs under faults.  Materialized only then.
  std::vector<Job> effective_;
  std::vector<Time> gate_;              ///< retry-backoff gates
  std::vector<std::uint64_t> epoch_;    ///< invalidates stale completions
  std::vector<char> machine_down_flag_;
  std::vector<Time> down_until_;        ///< repair time of the live outage
  std::vector<std::vector<LiveRes>> live_;  ///< per machine, commit order
  /// Per machine: down_until_ while down, -inf while up — the no-start
  /// floor earliest_fit applies (derived, not serialized).
  std::vector<Time> outage_floor_;
};

bool Engine::prepare() {
  if (options_.faults) {
    options_.faults->validate(inst_.num_machines(), inst_.num_jobs());
    if (streaming_ && !options_.faults->stretch.empty()) {
      // A per-job stretch table needs the full job set upfront, which a
      // streaming run by definition does not have.  Outages, injected
      // failures and checkpoint policies are all job-set-independent.
      throw std::invalid_argument(
          "streaming: per-job straggler stretch tables are not supported "
          "(the job set is unknown upfront)");
    }
    if (!options_.faults->empty()) faults_ = options_.faults;
  }

  // The durability layer may restore the whole engine (and scheduler) at a
  // snapshot cut, in which case fresh-run seeding must not happen: the
  // restored queue already holds the unprocessed events, and on_start has
  // already run in the lost process.
  if (options_.recovery != nullptr) restored_ = setup_recovery();

  if (restored_) {
    // Still-queued events at now_ may hold any kind, so the weakest key at
    // now_ is the only safe lower bound for future admissions.
    last_t_ = now_;
    last_kind_ = EventKind::kCompletion;
  } else {
    if (streaming_ && inst_.num_jobs() != 0) {
      throw std::logic_error(
          "streaming: a fresh (non-resumed) run must start from an empty "
          "instance; pre-admitted jobs are only valid under a snapshot");
    }
    // Materialize the effective-job views only when faults can actually
    // fire; fault-free runs keep serving inst_ jobs untouched.
    if (faults_) effective_ = inst_.jobs();
    remaining_ = inst_.num_jobs();

    // Seed arrival events, each taking its seq in id order as it did when
    // arrivals went through the heap (streaming runs admit them one at a
    // time instead, through admit()).
    if (!streaming_) {
      arrivals_.reserve(inst_.num_jobs());
      for (const Job& j : inst_.jobs()) {
        arrivals_.push_back({j.release, EventKind::kArrival, seq_++, j.id});
      }
      sort_arrivals();
    }
    // Seed crash/repair events.  Capacity is blocked only when a crash is
    // *processed*, so calendars never leak future outages to schedulers.
    if (faults_) {
      for (std::size_t i = 0; i < faults_->outages.size(); ++i) {
        const OutageWindow& o = faults_->outages[i];
        push({o.down, EventKind::kMachineDown, seq_++, kInvalidJob, o.machine, i});
        push({o.up, EventKind::kMachineUp, seq_++, kInvalidJob, o.machine, i});
      }
    }

    scheduler_.on_start(*this);
  }
  return restored_;
}

void Engine::check_admissible(Time release) const {
  MRIS_EXPECT(streaming_, "admit() is only valid on a streaming engine");
  // arrivals_ must stay sorted by (t, seq); seq grows with every admission,
  // so releases must not decrease.  Once every admitted arrival has been
  // consumed (and trimmed), the frontier check below covers this.
  if (!arrivals_.empty() && release < arrivals_.back().t) {
    throw std::logic_error(
        "admit: release " + std::to_string(release) +
        " precedes the last admitted release " +
        std::to_string(arrivals_.back().t) +
        " (admissions must be in non-decreasing release order)");
  }
  // An arrival whose key precedes the last processed event's key would
  // rewrite already-processed history — the stream must deliver frames in
  // release order, ahead of the simulation frontier.
  if (release < last_t_ ||
      (release == last_t_ && EventKind::kArrival < last_kind_)) {
    throw std::logic_error(
        "admit: release " + std::to_string(release) +
        " lies in the already-processed past (frontier t=" +
        std::to_string(last_t_) + ")");
  }
}

void Engine::admit(JobId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= inst_.num_jobs() ||
      static_cast<std::size_t>(id) != released_.size()) {
    throw std::logic_error(
        "admit: job id must be the next unadmitted instance index");
  }
  const Job& j = inst_.job(id);
  check_admissible(j.release);
  schedule_.append();
  in_pending_.push_back(0);
  released_.push_back(0);
  committed_.push_back(0);
  retries_.push_back(0);
  injected_.push_back(0);
  residual_.push_back(ResidualWork{});
  gate_.push_back(0.0);
  epoch_.push_back(0);
  if (faults_) effective_.push_back(j);
  ++remaining_;
  arrivals_.push_back({j.release, EventKind::kArrival, seq_++, id});
}

RunResult Engine::run() {
  prepare();
  while (step(0.0, /*bounded=*/false)) {
  }
  return finalize();
}

bool Engine::step(Time stop, bool bounded) {
  if (drained()) return false;
  const bool arrival = next_is_arrival();
  const Event& next = arrival ? arrivals_[arrivals_cursor_] : queue_.top();
  // Stop at the first event that would sort at/after an arrival at `stop`
  // — exactly where a batch engine would interleave it.
  if (bounded &&
      !(next.t < stop || (next.t == stop && next.kind < EventKind::kArrival))) {
    return false;
  }
  {
    const Event e = next;
    if (arrival) {
      pop_arrival();
    } else {
      queue_.pop();
    }
    MRIS_INVARIANT(e.t >= now_ - 1e-9,
                   "events must be non-decreasing in time");
    now_ = std::max(now_, e.t);
    last_t_ = e.t;
    last_kind_ = e.kind;
    if (faults_) {
      if (e.kind == EventKind::kCompletion &&
          e.aux != epoch_[static_cast<std::size_t>(e.job)]) {
        return true;  // superseded by a requeue/cancel
      }
      if (e.kind == EventKind::kRetryReady &&
          (committed_[static_cast<std::size_t>(e.job)] || gated(e.job))) {
        return true;  // committed meanwhile, or lost again with a later gate
      }
      if (e.kind == EventKind::kCompletion) {
        // Straggler check: if the declared completion passes without the
        // actual (stretched) runtime elapsing, extend the occupancy and
        // re-arm the completion at the actual end.
        auto& lv = live_[static_cast<std::size_t>(e.machine)];
        auto it = std::find_if(lv.begin(), lv.end(), [&](const LiveRes& r) {
          return r.job == e.job;
        });
        MRIS_INVARIANT(it != lv.end(),
                       "live completion without a reservation");
        if (it == lv.end()) return true;  // unreachable unless in count mode
        if (!it->extended) {
          const Job& j = inst_.job(e.job);
          // Only the residual work stretches; the restore prefix is a fixed
          // re-load cost.  Anchoring on declared_end keeps stretch == 1
          // attempts bit-exactly unextended.
          const double stretch = faults_->actual_processing(e.job, 1.0);
          const Time actual_end =
              it->declared_end + it->work * (stretch - 1.0);
          if (actual_end > it->declared_end + 1e-12) {
            // Exact-endpoint form: the kill path later releases up to
            // occupied_end, so the extension must end on that breakpoint
            // bit-for-bit.
            cluster_.force_reserve_until(e.machine, it->declared_end,
                                         actual_end, j.demand);
            it->occupied_end = actual_end;
            it->extended = true;
            push({actual_end, EventKind::kCompletion, seq_++, e.job, e.machine,
                  e.aux});
            return true;  // not done yet; the real completion fires later
          }
          it->extended = true;  // declared == actual; nothing to extend
        }
      }
    }
    // Crash injection (tests only): a lethal event either dies mid-journal-
    // write before any side effect (torn case), or runs to its boundary and
    // dies there (below).  Stale-event skips above never count, so a crash
    // point is the same event in the original and any resumed run.
    const bool lethal = rec_ != nullptr && rec_->crash != nullptr &&
                        rec_->crash->kill_after_events == processed_ + 1;
    if (lethal && rec_->crash->torn_write_bytes > 0) {
      if (journal_ != nullptr && verify_pos_ >= verify_tail_.size()) {
        journal_->append_torn(to_record(e, now_),
                              rec_->crash->torn_write_bytes);
      }
      throw EngineKilled(processed_);
    }
    ++processed_;
    if (rec_ != nullptr && verify_pos_ < verify_tail_.size()) {
      ++rec_stats_.resume_replayed_events;
    }
    if (rec_ != nullptr || options_.on_record) {
      record(to_record(e, now_));
    }
    switch (e.kind) {
      case EventKind::kArrival:
        // A fresh id has never been in pending_, so no compaction first.
        released_[static_cast<std::size_t>(e.job)] = true;
        pending_.push_back(e.job);
        in_pending_[static_cast<std::size_t>(e.job)] = 1;
        scheduler_.on_arrival(*this, e.job);
        break;
      case EventKind::kCompletion: {
        if (faults_) {
          auto& lv = live_[static_cast<std::size_t>(e.machine)];
          auto it = std::find_if(lv.begin(), lv.end(), [&](const LiveRes& r) {
            return r.job == e.job;
          });
          MRIS_INVARIANT(it != lv.end(),
                         "completion of a job with no live reservation");
          if (it == lv.end()) break;  // unreachable unless in count mode
          const LiveRes res = *it;
          lv.erase(it);
          const std::size_t ji = static_cast<std::size_t>(e.job);
          const bool fail =
              faults_->failure_prob > 0.0 &&
              injected_[ji] < faults_->max_retries &&
              failure_draw(faults_->seed, e.job, retries_[ji]) <
                  faults_->failure_prob;
          if (fail) {
            // The attempt ran to its actual completion, but the injected
            // failure destroys the uncommitted output: salvage the last
            // checkpoint mark (strictly below p_j, so residual work stays
            // positive) and resume from there.
            const Job& j = inst_.job(e.job);
            Time salvage = 0.0;
            if (faults_->checkpoint.enabled()) {
              salvage = std::max(
                  res.progress_in,
                  faults_->checkpoint.salvageable(j, j.processing));
            }
            attempts_.push_back({e.job, e.machine, res.start, now_,
                                 Attempt::Outcome::kJobFailure, res.restore,
                                 res.progress_in, salvage});
            set_progress(e.job, salvage);
            ++injected_[ji];
            record({EventRecord::Kind::kJobFailed, now_, e.job, e.machine, 0.0});
            requeue(e.job, e.machine, /*count_retry=*/true);
            if (!gated(e.job)) scheduler_.on_arrival(*this, e.job);
            break;  // the job did not complete
          }
          // Under the none policy every checkpoint field stays 0 (the
          // legacy restart-from-scratch attempt format).
          attempts_.push_back({e.job, e.machine, res.start, now_,
                               Attempt::Outcome::kCompleted, res.restore,
                               res.progress_in,
                               faults_->checkpoint.enabled()
                                   ? inst_.job(e.job).processing
                                   : 0.0});
        }
        --remaining_;
        // Committed-horizon compaction: commits are rejected below
        // now - 1e-9, so calendar history before that is dead weight for
        // every future query.  Batched so the memmove cost amortizes.
        if (++completions_since_prune_ >= kPruneEvery) {
          completions_since_prune_ = 0;
          cluster_.prune_before(std::max(0.0, now_ - 1e-9));
        }
        scheduler_.on_completion(*this, e.job, e.machine);
        break;
      }
      case EventKind::kWakeup:
        scheduler_.on_wakeup(*this);
        break;
      case EventKind::kMachineDown: {
        MRIS_EXPECT(e.aux < faults_->outages.size(),
                    "machine-down event names an unknown outage window");
        const OutageWindow& o = faults_->outages[e.aux];
        const std::size_t mi = static_cast<std::size_t>(e.machine);
        machine_down_flag_[mi] = 1;
        down_until_[mi] = o.up;
        outage_floor_[mi] = o.up;
        cluster_.block(e.machine, o.down, o.up);
        // Partition the machine's reservations: running jobs (started
        // before the crash) are killed and their work is lost; ones that
        // would start inside the window are silently cancelled; ones
        // starting at/after the repair survive untouched.
        std::vector<LiveRes> killed, cancelled;
        auto& lv = live_[mi];
        for (auto it = lv.begin(); it != lv.end();) {
          if (it->start >= o.up) {
            ++it;
          } else if (it->start >= o.down) {
            cancelled.push_back(*it);
            it = lv.erase(it);
          } else {
            killed.push_back(*it);
            it = lv.erase(it);
          }
        }
        for (const LiveRes& r : killed) {
          // [r.start, down) was real usage and stays on the calendar; the
          // tail the dead job would still hold is freed.  release_until:
          // recomputing the duration as occupied_end - down rounds the end
          // one ulp past the reserved breakpoint and used to trip the
          // "usage went negative" invariant (ROADMAP open item).
          cluster_.release_until(e.machine, o.down, r.occupied_end,
                                 inst_.job(r.job).demand);
          // Progress at the kill: the restore prefix re-executes nothing,
          // then work advances at rate 1/stretch.  Salvage the last
          // checkpoint mark at or below that progress.
          const Job& j = inst_.job(r.job);
          Time salvage = 0.0;
          if (faults_->checkpoint.enabled()) {
            const double stretch = faults_->actual_processing(r.job, 1.0);
            const Time work_time = std::max(0.0, (o.down - r.start) - r.restore);
            const Time achieved = r.progress_in + work_time / stretch;
            salvage = std::max(r.progress_in,
                               faults_->checkpoint.salvageable(j, achieved));
          }
          attempts_.push_back({r.job, e.machine, r.start, o.down,
                               Attempt::Outcome::kMachineFailure, r.restore,
                               r.progress_in, salvage});
          set_progress(r.job, salvage);
          requeue(r.job, e.machine, /*count_retry=*/true);
        }
        for (const LiveRes& r : cancelled) {
          cluster_.release_until(e.machine, r.start, r.declared_end,
                                 inst_.job(r.job).demand);
          requeue(r.job, e.machine, /*count_retry=*/false);
        }
        scheduler_.on_machine_down(*this, e.machine);
        for (const LiveRes& r : killed) {
          if (!committed_[static_cast<std::size_t>(r.job)] && !gated(r.job)) {
            scheduler_.on_arrival(*this, r.job);
          }
        }
        for (const LiveRes& r : cancelled) {
          if (!committed_[static_cast<std::size_t>(r.job)] && !gated(r.job)) {
            scheduler_.on_arrival(*this, r.job);
          }
        }
        break;
      }
      case EventKind::kMachineUp:
        machine_down_flag_[static_cast<std::size_t>(e.machine)] = 0;
        outage_floor_[static_cast<std::size_t>(e.machine)] =
            -std::numeric_limits<Time>::infinity();
        scheduler_.on_machine_up(*this, e.machine);
        break;
      case EventKind::kRetryReady:
        scheduler_.on_retry_ready(*this, e.job);
        break;
    }
    if (drained() && remaining_ > 0) {
      throw std::runtime_error(
          "run_online: scheduler '" + scheduler_.name() + "' deadlocked: " +
          std::to_string(remaining_) +
          " jobs uncompleted with no future events");
    }
    if (lethal) {
      // Boundary kill: the event's side effects happened, but the process
      // dies before any snapshot — and the journal loses whatever was
      // appended since its last fsync batch.
      if (journal_ != nullptr) journal_->kill();
      throw EngineKilled(processed_);
    }
    if (rec_ != nullptr) {
      maybe_snapshot(e.kind == EventKind::kWakeup);
      note_degradation();
    }
  }
  return true;
}

RunResult Engine::finalize() {
  if (!schedule_.complete()) {
    throw std::runtime_error("run_online: schedule incomplete after run");
  }
  if (journal_ != nullptr) {
    journal_->sync();
    note_degradation();
  }
  RunResult result{std::move(schedule_), processed_, std::move(attempts_),
                   rec_stats_, cluster_.fit_counters()};
  return result;
}

}  // namespace

const char* event_kind_name(EventRecord::Kind kind) {
  // Indexed by EventRecord::Kind.
  static constexpr const char* kNames[] = {
      "arrival",    "completion", "wakeup",  "commit",     "machine-down",
      "machine-up", "job-failed", "requeue", "retry-ready"};
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "?";
}

RunResult run_online(const Instance& inst, OnlineScheduler& scheduler,
                     const RunOptions& options) {
  Engine engine(inst, scheduler, options);
  return engine.run();
}

struct StreamEngine::Impl {
  Instance& inst;
  Engine engine;
  bool started = false;
  bool finished = false;

  Impl(Instance& i, OnlineScheduler& s, const RunOptions& o)
      : inst(i), engine(i, s, o, /*streaming=*/true) {}

  void require_live(const char* what) const {
    if (!started) {
      throw std::logic_error(std::string("StreamEngine::") + what +
                             ": start() has not been called");
    }
    if (finished) {
      throw std::logic_error(std::string("StreamEngine::") + what +
                             ": the run is already finished");
    }
  }
};

StreamEngine::StreamEngine(Instance& inst, OnlineScheduler& scheduler,
                           const RunOptions& options)
    : impl_(std::make_unique<Impl>(inst, scheduler, options)) {}

StreamEngine::~StreamEngine() = default;

void StreamEngine::start() {
  if (impl_->started) {
    throw std::logic_error("StreamEngine::start: called twice");
  }
  impl_->started = true;
  impl_->engine.prepare();
}

bool StreamEngine::resumed_from_snapshot() const {
  return impl_->engine.restored();
}

JobId StreamEngine::admit(const Job& job) {
  impl_->require_live("admit");
  // Checked before the append, so a rejected job never enters the store.
  impl_->engine.check_admissible(job.release);
  const JobId id = impl_->inst.append(job);
  impl_->engine.admit(id);
  return id;
}

void StreamEngine::run_until_release(Time release) {
  impl_->require_live("run_until_release");
  while (impl_->engine.step(release, /*bounded=*/true)) {
  }
}

RunResult StreamEngine::finish() {
  impl_->require_live("finish");
  impl_->finished = true;
  while (impl_->engine.step(0.0, /*bounded=*/false)) {
  }
  return impl_->engine.finalize();
}

}  // namespace mris
