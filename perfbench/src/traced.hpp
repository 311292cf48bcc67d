// Traced-run harness: wrappers around the program's public layer
// boundaries that record where a run spends its time, without touching the
// program itself.
//
//   TracedScheduler  wraps an OnlineScheduler; one span per callback.
//   TracedContext    wraps the EngineContext handed to the inner scheduler;
//                    times the timeline calls (can_start, earliest_fit*,
//                    commit, try_commit) and only counts the cheap reads.
//   TracedSink       wraps a MetricsSink; times and counts every record.
//
// Self time: every timed section is pushed on one stack; when it ends, its
// duration minus the time its nested sections covered is credited to its
// layer.  A commit made inside a scheduler callback therefore counts as
// timeline time, not scheduler time, and a sink record emitted inside that
// commit counts as sink time.  Whatever a root section (a batch run or a
// serve_stream call) does outside every nested section is its own self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/sink.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Layers time is credited to.
enum class Layer : std::uint8_t {
  kEngine,          ///< self time of a batch run_online root
  kServeRest,       ///< self time of a serve_stream root: engine, decode,
                    ///< journals
  kSched,           ///< scheduler callbacks, minus nested timeline calls
  kTimelineQuery,   ///< can_start / earliest_fit / earliest_fit_on
  kTimelineCommit,  ///< commit / try_commit, minus nested sink time
  kSink,            ///< MetricsSink::event / flush
  kCount,
};

/// Span kinds written to the span file.
enum class SpanKind : std::uint8_t {
  kBatchRun,
  kServeRun,
  kAdmission,  ///< one admission: from the previous on_admit to this one
  kDrain,      ///< serve_stream after its last admission
  kStart,
  kArrival,
  kCompletion,
  kWakeup,
  kMachineDown,
  kMachineUp,
  kRetryReady,
  kIdle,
};

const char* span_kind_name(SpanKind kind);

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 for roots
  SpanKind kind = SpanKind::kBatchRun;
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
};

/// Counters and layer times of one traced rep.
struct LayerTotals {
  double self_s[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t callbacks = 0;
  std::uint64_t ctx_reads = 0;
  std::uint64_t pending_hwm = 0;
  std::uint64_t wakeups = 0;
  double wakeup_max_s = 0.0;
  double wakeup_self_s = 0.0;  ///< kSched self time inside on_wakeup
  std::uint64_t fit_queries = 0;
  std::uint64_t commits = 0;
  std::uint64_t breakpoints_hwm = 0;
  std::uint64_t sink_records = 0;

  double self(Layer layer) const { return self_s[static_cast<int>(layer)]; }
};

class Tracer {
 public:
  Tracer();

  /// Opens / closes a root section (a batch run or a serve_stream call).
  void begin_root(SpanKind kind);
  void end_root();

  /// Serve only: the admission in progress completed (on_admit fired).
  void admission_done();

  void enter(Layer layer);
  /// Closes the innermost section and returns its duration in seconds.
  double leave();

  /// Callback spans are sections of Layer::kSched that also leave a span.
  void begin_callback(SpanKind kind, std::uint64_t pending);
  void end_callback();

  void count_read() { ++totals_.ctx_reads; }
  void count_fit_query() { ++totals_.fit_queries; }
  void count_commit(std::size_t breakpoints);
  void count_sink_record() { ++totals_.sink_records; }

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Forgets every span and counter (start of a new traced rep).
  void reset();

  /// Writes the spans as CSV (id,parent,kind,start_ns,end_ns).
  bool write_spans(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };

  std::int64_t since_epoch(Clock::time_point t) const;
  std::uint32_t open_span(SpanKind kind, std::uint32_t parent,
                          Clock::time_point start);
  void close_span(std::uint32_t id, Clock::time_point end);

  Clock::time_point epoch_;
  std::vector<Frame> frames_;
  std::vector<Span> spans_;
  LayerTotals totals_;
  std::uint32_t root_span_ = 0;
  std::uint32_t group_span_ = 0;  ///< parent of the next callback span
  std::uint32_t callback_span_ = 0;
  SpanKind callback_kind_ = SpanKind::kStart;
};

/// Forwards every call to the engine's context, timing timeline calls.
class TracedContext : public mris::EngineContext {
 public:
  TracedContext(mris::EngineContext& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  mris::Time now() const override { return inner_.now(); }
  int num_machines() const override { return inner_.num_machines(); }
  int num_resources() const override { return inner_.num_resources(); }
  std::size_t num_jobs() const override { return inner_.num_jobs(); }
  const mris::Job& job(mris::JobId id) const override;
  const std::vector<mris::JobId>& pending() const override;
  const mris::Cluster& cluster() const override;
  bool can_start(mris::JobId id, mris::MachineId m,
                 mris::Time start) const override;
  mris::Time earliest_fit_on(mris::JobId id, mris::MachineId m,
                             mris::Time not_before) const override;
  mris::Time earliest_fit(mris::JobId id, mris::Time not_before,
                          mris::MachineId& best_machine) const override;
  void commit(mris::JobId id, mris::MachineId m, mris::Time start) override;
  bool try_commit(mris::JobId id, mris::MachineId m,
                  mris::Time start) override;
  void schedule_wakeup(mris::Time t) override { inner_.schedule_wakeup(t); }
  int retry_count(mris::JobId id) const override;
  mris::Time earliest_start(mris::JobId id) const override;
  bool machine_up(mris::MachineId m) const override;
  mris::Time checkpointed_progress(mris::JobId id) const override;

 private:
  mris::EngineContext& inner_;
  Tracer& tracer_;
};

/// Forwards every callback (durability hooks included) to `inner`, handing
/// it a TracedContext, and records one span per callback.
class TracedScheduler : public mris::OnlineScheduler {
 public:
  TracedScheduler(std::unique_ptr<mris::OnlineScheduler> inner,
                  Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void on_start(mris::EngineContext& ctx) override;
  void on_arrival(mris::EngineContext& ctx, mris::JobId job) override;
  void on_completion(mris::EngineContext& ctx, mris::JobId job,
                     mris::MachineId machine) override;
  void on_wakeup(mris::EngineContext& ctx) override;
  void on_machine_down(mris::EngineContext& ctx,
                       mris::MachineId machine) override;
  void on_machine_up(mris::EngineContext& ctx,
                     mris::MachineId machine) override;
  void on_retry_ready(mris::EngineContext& ctx, mris::JobId job) override;
  void on_idle(mris::EngineContext& ctx) override;
  void save_state(mris::recovery::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(mris::recovery::StateReader& r) override {
    inner_->restore_state(r);
  }

 private:
  template <typename F>
  void traced(SpanKind kind, mris::EngineContext& ctx, F&& call);

  std::unique_ptr<mris::OnlineScheduler> inner_;
  Tracer& tracer_;
};

/// Times and counts every record handed to `inner`.
class TracedSink : public mris::serve::MetricsSink {
 public:
  TracedSink(mris::serve::MetricsSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void event(const mris::EventRecord& rec) override;
  void flush() override;

 private:
  mris::serve::MetricsSink& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
