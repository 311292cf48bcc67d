#include "traced.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using mris::EngineContext;
using mris::Job;
using mris::JobId;
using mris::MachineId;
using mris::Time;

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBatchRun: return "batch_run";
    case SpanKind::kServeRun: return "serve_run";
    case SpanKind::kAdmission: return "admission";
    case SpanKind::kDrain: return "drain";
    case SpanKind::kStart: return "on_start";
    case SpanKind::kArrival: return "on_arrival";
    case SpanKind::kCompletion: return "on_completion";
    case SpanKind::kWakeup: return "on_wakeup";
    case SpanKind::kMachineDown: return "on_machine_down";
    case SpanKind::kMachineUp: return "on_machine_up";
    case SpanKind::kRetryReady: return "on_retry_ready";
    case SpanKind::kIdle: return "on_idle";
  }
  return "unknown";
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

void Tracer::reset() {
  frames_.clear();
  spans_.clear();
  totals_ = LayerTotals{};
  root_span_ = group_span_ = callback_span_ = 0;
  epoch_ = Clock::now();
}

std::int64_t Tracer::since_epoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint32_t Tracer::open_span(SpanKind kind, std::uint32_t parent,
                                Clock::time_point start) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.kind = kind;
  s.start_ns = since_epoch(start);
  spans_.push_back(s);
  return s.id;
}

void Tracer::close_span(std::uint32_t id, Clock::time_point end) {
  spans_[id - 1].end_ns = since_epoch(end);
}

void Tracer::enter(Layer layer) {
  frames_.push_back(Frame{layer, Clock::now(), 0.0});
}

double Tracer::leave() {
  const Clock::time_point end = Clock::now();
  const Frame f = frames_.back();
  frames_.pop_back();
  const double d = std::chrono::duration<double>(end - f.start).count();
  totals_.self_s[static_cast<int>(f.layer)] += d - f.child_s;
  if (!frames_.empty()) frames_.back().child_s += d;
  return d;
}

void Tracer::begin_root(SpanKind kind) {
  enter(kind == SpanKind::kServeRun ? Layer::kServeRest : Layer::kEngine);
  const Clock::time_point start = frames_.back().start;
  root_span_ = open_span(kind, 0, start);
  group_span_ = kind == SpanKind::kServeRun
                    ? open_span(SpanKind::kAdmission, root_span_, start)
                    : root_span_;
}

void Tracer::end_root() {
  leave();
  const Clock::time_point end = Clock::now();
  if (group_span_ != root_span_) {
    // The group still open after the last admission is the final drain.
    spans_[group_span_ - 1].kind = SpanKind::kDrain;
    close_span(group_span_, end);
  }
  close_span(root_span_, end);
  root_span_ = group_span_ = 0;
}

void Tracer::admission_done() {
  const Clock::time_point now = Clock::now();
  close_span(group_span_, now);
  group_span_ = open_span(SpanKind::kAdmission, root_span_, now);
}

void Tracer::begin_callback(SpanKind kind, std::uint64_t pending) {
  ++totals_.callbacks;
  totals_.pending_hwm = std::max(totals_.pending_hwm, pending);
  enter(Layer::kSched);
  callback_kind_ = kind;
  callback_span_ = open_span(kind, group_span_, frames_.back().start);
}

void Tracer::end_callback() {
  const double before = totals_.self(Layer::kSched);
  const double d = leave();
  close_span(callback_span_, Clock::now());
  if (callback_kind_ == SpanKind::kWakeup) {
    ++totals_.wakeups;
    totals_.wakeup_max_s = std::max(totals_.wakeup_max_s, d);
    totals_.wakeup_self_s += totals_.self(Layer::kSched) - before;
  }
}

void Tracer::count_commit(std::size_t breakpoints) {
  ++totals_.commits;
  totals_.breakpoints_hwm =
      std::max<std::uint64_t>(totals_.breakpoints_hwm, breakpoints);
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,parent,kind,start_ns,end_ns\n", f);
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%s,%lld,%lld\n", s.id, s.parent,
                 span_kind_name(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---- TracedContext --------------------------------------------------------

const Job& TracedContext::job(JobId id) const {
  tracer_.count_read();
  return inner_.job(id);
}

const std::vector<JobId>& TracedContext::pending() const {
  tracer_.count_read();
  return inner_.pending();
}

const mris::Cluster& TracedContext::cluster() const {
  tracer_.count_read();
  return inner_.cluster();
}

int TracedContext::retry_count(JobId id) const {
  tracer_.count_read();
  return inner_.retry_count(id);
}

Time TracedContext::earliest_start(JobId id) const {
  tracer_.count_read();
  return inner_.earliest_start(id);
}

bool TracedContext::machine_up(MachineId m) const {
  tracer_.count_read();
  return inner_.machine_up(m);
}

Time TracedContext::checkpointed_progress(JobId id) const {
  tracer_.count_read();
  return inner_.checkpointed_progress(id);
}

bool TracedContext::can_start(JobId id, MachineId m, Time start) const {
  tracer_.count_fit_query();
  tracer_.enter(Layer::kTimelineQuery);
  const bool ok = inner_.can_start(id, m, start);
  tracer_.leave();
  return ok;
}

Time TracedContext::earliest_fit_on(JobId id, MachineId m,
                                    Time not_before) const {
  tracer_.count_fit_query();
  tracer_.enter(Layer::kTimelineQuery);
  const Time t = inner_.earliest_fit_on(id, m, not_before);
  tracer_.leave();
  return t;
}

Time TracedContext::earliest_fit(JobId id, Time not_before,
                                 MachineId& best_machine) const {
  tracer_.count_fit_query();
  tracer_.enter(Layer::kTimelineQuery);
  const Time t = inner_.earliest_fit(id, not_before, best_machine);
  tracer_.leave();
  return t;
}

void TracedContext::commit(JobId id, MachineId m, Time start) {
  tracer_.enter(Layer::kTimelineCommit);
  inner_.commit(id, m, start);
  tracer_.leave();
  tracer_.count_commit(inner_.cluster().machine(m).num_breakpoints());
}

bool TracedContext::try_commit(JobId id, MachineId m, Time start) {
  tracer_.enter(Layer::kTimelineCommit);
  const bool ok = inner_.try_commit(id, m, start);
  tracer_.leave();
  if (ok) tracer_.count_commit(inner_.cluster().machine(m).num_breakpoints());
  return ok;
}

// ---- TracedScheduler ------------------------------------------------------

template <typename F>
void TracedScheduler::traced(SpanKind kind, EngineContext& ctx, F&& call) {
  tracer_.begin_callback(kind, ctx.pending().size());
  TracedContext traced_ctx(ctx, tracer_);
  call(traced_ctx);
  tracer_.end_callback();
}

void TracedScheduler::on_start(EngineContext& ctx) {
  traced(SpanKind::kStart, ctx,
         [&](EngineContext& c) { inner_->on_start(c); });
}

void TracedScheduler::on_arrival(EngineContext& ctx, JobId job) {
  traced(SpanKind::kArrival, ctx,
         [&](EngineContext& c) { inner_->on_arrival(c, job); });
}

void TracedScheduler::on_completion(EngineContext& ctx, JobId job,
                                    MachineId machine) {
  traced(SpanKind::kCompletion, ctx,
         [&](EngineContext& c) { inner_->on_completion(c, job, machine); });
}

void TracedScheduler::on_wakeup(EngineContext& ctx) {
  traced(SpanKind::kWakeup, ctx,
         [&](EngineContext& c) { inner_->on_wakeup(c); });
}

void TracedScheduler::on_machine_down(EngineContext& ctx, MachineId machine) {
  traced(SpanKind::kMachineDown, ctx,
         [&](EngineContext& c) { inner_->on_machine_down(c, machine); });
}

void TracedScheduler::on_machine_up(EngineContext& ctx, MachineId machine) {
  traced(SpanKind::kMachineUp, ctx,
         [&](EngineContext& c) { inner_->on_machine_up(c, machine); });
}

void TracedScheduler::on_retry_ready(EngineContext& ctx, JobId job) {
  traced(SpanKind::kRetryReady, ctx,
         [&](EngineContext& c) { inner_->on_retry_ready(c, job); });
}

void TracedScheduler::on_idle(EngineContext& ctx) {
  traced(SpanKind::kIdle, ctx, [&](EngineContext& c) { inner_->on_idle(c); });
}

// ---- TracedSink -----------------------------------------------------------

void TracedSink::event(const mris::EventRecord& rec) {
  tracer_.count_sink_record();
  tracer_.enter(Layer::kSink);
  inner_.event(rec);
  tracer_.leave();
}

void TracedSink::flush() {
  tracer_.enter(Layer::kSink);
  inner_.flush();
  tracer_.leave();
}

}  // namespace perfbench
