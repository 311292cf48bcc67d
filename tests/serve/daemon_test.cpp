// End-to-end daemon tests (serve/daemon.hpp): a protocol stream served
// through serve_stream() must reproduce the batch run of the same workload
// byte-for-byte — placements, placement checksum, and the sink's rendered
// output — across generator families, schedulers, and sink kinds.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/schedulers.hpp"
#include "serve/protocol.hpp"
#include "sim/faults/crash.hpp"
#include "testkit/generators.hpp"
#include "testkit/streams.hpp"

namespace mris::serve {
namespace {

using testkit::Family;
using testkit::GenConfig;
using testkit::make_family_instance;

/// The canonical streamed form of an instance: jobs in admission order
/// (release, ties by id), reindexed so streamed ids match batch ids.
Instance canonical(const Instance& inst) {
  std::vector<Job> jobs = inst.jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return Instance(std::move(jobs), inst.num_machines(), inst.num_resources());
}

struct BatchReference {
  RunResult run;
  std::uint64_t checksum = 0;
  std::string sink_output;
};

/// Runs the batch engine with the same sink + checksum plumbing the daemon
/// uses, so both sides render through identical code paths.
BatchReference run_batch(const Instance& inst, const std::string& scheduler,
                         SinkKind sink_kind) {
  BatchReference ref;
  std::ostringstream sink_out;
  const std::unique_ptr<MetricsSink> sink = make_sink(sink_kind, sink_out);
  PlacementChecksum checksum;
  RunOptions opts;
  opts.on_record = [&](const EventRecord& rec) {
    if (rec.kind == EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
    sink->event(rec);
  };
  const auto sched =
      exp::make_scheduler(exp::parse_scheduler_spec(scheduler), inst);
  ref.run = run_online(inst, *sched, opts);
  ref.checksum = checksum.value();
  ref.sink_output = sink_out.str();
  return ref;
}

ServeOptions serve_options(const Instance& inst, const std::string& scheduler,
                           MetricsSink* sink) {
  ServeOptions opts;
  opts.num_machines = inst.num_machines();
  opts.num_resources = inst.num_resources();
  opts.sink = sink;
  opts.make_scheduler = [&inst, scheduler] {
    return exp::make_scheduler(exp::parse_scheduler_spec(scheduler), inst);
  };
  return opts;
}

void expect_daemon_matches_batch(const Instance& raw,
                                 const std::string& scheduler,
                                 SinkKind sink_kind,
                                 const std::string& where) {
  const Instance inst = canonical(raw);
  const BatchReference batch = run_batch(inst, scheduler, sink_kind);

  std::istringstream in(encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
  std::ostringstream sink_out;
  const std::unique_ptr<MetricsSink> sink = make_sink(sink_kind, sink_out);
  const ServeResult served =
      serve_stream(in, serve_options(inst, scheduler, sink.get()));

  EXPECT_EQ(served.jobs, inst.num_jobs()) << where;
  EXPECT_EQ(served.placement_checksum, batch.checksum) << where;
  EXPECT_EQ(sink_out.str(), batch.sink_output) << where;
  // The sink output above already compared the record streams.
  EXPECT_EQ("", faults::first_difference({batch.run, {}}, {served.run, {}}))
      << where;
}

TEST(DaemonTest, StreamedRunMatchesBatchAcrossFamilies) {
  const std::size_t iters = testkit::fuzz_iters(3);
  for (Family family : testkit::all_families()) {
    for (std::uint64_t seed = 0; seed < iters; ++seed) {
      GenConfig config;
      config.num_jobs = 24;
      const Instance inst = make_family_instance(family, config, seed);
      expect_daemon_matches_batch(
          inst, "mris", SinkKind::kCsv,
          std::string(testkit::family_name(family)) + " seed " +
              std::to_string(seed));
    }
  }
}

TEST(DaemonTest, StreamedRunMatchesBatchAcrossSchedulers) {
  GenConfig config;
  config.num_jobs = 32;
  const Instance inst = make_family_instance(Family::kMixed, config, 11);
  for (const char* scheduler :
       {"mris", "mris-greedy", "mris-evscan", "pq-wsjf", "tetris", "drf",
        "hybrid"}) {
    expect_daemon_matches_batch(inst, scheduler, SinkKind::kJsonl, scheduler);
  }
}

TEST(DaemonTest, ReportsLatencyAndFrameCounts) {
  GenConfig config;
  config.num_jobs = 20;
  const Instance inst = canonical(
      make_family_instance(Family::kMixed, config, 5));
  std::istringstream in(encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
  const ServeResult r =
      serve_stream(in, serve_options(inst, "mris", nullptr));
  EXPECT_EQ(r.frames, inst.num_jobs() + 2);  // Hello + jobs + End
  EXPECT_EQ(r.latency.samples, inst.num_jobs());
  EXPECT_GE(r.latency.p99_us, r.latency.p50_us);
  EXPECT_GE(r.latency.max_us, r.latency.p99_us);
  EXPECT_FALSE(r.resumed_from_snapshot);
}

TEST(DaemonTest, RejectsMissingFactoryAndBadShape) {
  std::istringstream in;
  ServeOptions opts;
  EXPECT_THROW(serve_stream(in, opts), std::invalid_argument);
  opts.make_scheduler = [] {
    return exp::make_scheduler(exp::parse_scheduler_spec("mris"),
                               Instance(std::vector<Job>{}, 1, 1));
  };
  opts.num_machines = 0;
  EXPECT_THROW(serve_stream(in, opts), std::invalid_argument);
}

TEST(DaemonTest, SinkKindsParse) {
  EXPECT_EQ(parse_sink_kind("null"), SinkKind::kNull);
  EXPECT_EQ(parse_sink_kind("csv"), SinkKind::kCsv);
  EXPECT_EQ(parse_sink_kind("jsonl"), SinkKind::kJsonl);
  EXPECT_THROW(parse_sink_kind("xml"), std::invalid_argument);
}

}  // namespace
}  // namespace mris::serve
