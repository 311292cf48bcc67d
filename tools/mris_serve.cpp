// mris_serve — the scheduler-as-a-service daemon front end (docs/DAEMON.md).
//
//   mris_serve pack --synthetic --jobs 2000 --seed 7 --machines 4
//       --out stream.bin
//   mris_serve pack --workload w.csv --machines 4 --out stream.bin
//   mris_serve run --machines 4 --resources 4 --scheduler mris
//       --in stream.bin --sink csv --sink-out decisions.csv
//       --state-dir /var/lib/mris --snapshot-every 64
//   ... | mris_serve run --machines 4 --resources 2 --scheduler mris
//
// `pack` encodes a workload as a wire-format admission stream (jobs in
// release order, seq from 0 — the canonical streamed form).  `run` serves a
// stream from --in or stdin: every admission is journaled write-ahead when
// --state-dir is set, and a killed daemon restarted with --resume (producer
// replaying from seq 0) finishes with byte-identical sink output.
//
// --crash-after-jobs N is the crash-test harness's kill switch: the daemon
// _Exit(137)s immediately after admitting its N-th live job — no unwinding,
// no buffer flushes — so scripts/daemon_crash_test.sh can cut it down
// mid-stream without racing a timer.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/schedulers.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/workload.hpp"
#include "util/flags.hpp"

namespace {

using namespace mris;

int usage() {
  std::puts(
      "usage: mris_serve <command> [flags]\n"
      "\n"
      "commands:\n"
      "  pack  encode a workload as a protocol stream (docs/DAEMON.md)\n"
      "        --workload F | --synthetic [--jobs N --seed S]\n"
      "        --machines M (demand normalization; default 4)\n"
      "        --out F (required)\n"
      "  run   serve an admission stream\n"
      "        --machines M --resources R --scheduler NAME (default mris)\n"
      "        --in F (default: stdin)\n"
      "        --sink null|csv|jsonl [--sink-out F (default: stdout)]\n"
      "        --state-dir D [--snapshot-every N] [--resume]\n"
      "\n"
      "schedulers: any online scheduler name from `mris simulate`;\n"
      "clairvoyant ones (capq*) see an empty horizon and are not useful\n"
      "in a daemon.");
  return 2;
}

/// Jobs in the canonical streamed form: release order, ids = seq.
std::vector<Job> canonical_jobs(const Instance& inst) {
  std::vector<Job> jobs = inst.jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return jobs;
}

int cmd_pack(const util::Flags& flags) {
  const std::string out_path = flags.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "pack: --out is required\n");
    return 2;
  }
  const std::string workload_path = flags.get("workload", "");
  trace::Workload w;
  if (!workload_path.empty()) {
    w = trace::read_workload_csv_file(workload_path);
  } else if (flags.get_bool("synthetic", false)) {
    trace::GeneratorConfig cfg;
    cfg.num_jobs = flags.get_count("jobs", 1000);
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    w = merge_storage(trace::generate_azure_like(cfg));
  } else {
    std::fprintf(stderr, "pack: need --workload or --synthetic\n");
    return 2;
  }
  const int machines = static_cast<int>(flags.get_int("machines", 4));
  const Instance inst = to_instance(w, machines);
  const std::vector<Job> jobs = canonical_jobs(inst);
  const std::string bytes = serve::encode_stream(
      jobs, static_cast<std::uint32_t>(inst.num_resources()));

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "pack: failed writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("packed %zu jobs (%d resources) -> %s (%zu bytes)\n",
              jobs.size(), inst.num_resources(), out_path.c_str(),
              bytes.size());
  return 0;
}

int cmd_run(const util::Flags& flags) {
  serve::ServeOptions opts;
  opts.num_machines = static_cast<int>(flags.get_int("machines", 4));
  opts.num_resources = static_cast<int>(flags.get_int("resources", 2));
  opts.state_dir = flags.get("state-dir", "");
  opts.snapshot_every = flags.get_count("snapshot-every", 0);
  opts.resume = flags.get_bool("resume", false);

  const std::string scheduler = flags.get("scheduler", "mris");
  const exp::SchedulerSpec spec = exp::parse_scheduler_spec(scheduler);
  // The factory hands the scheduler an empty horizon: a daemon has no
  // future knowledge (clairvoyant schedulers degrade to their online core).
  opts.make_scheduler = [&spec, &opts] {
    return exp::make_scheduler(
        spec, Instance(std::vector<Job>{}, opts.num_machines,
                       opts.num_resources));
  };

  const serve::SinkKind sink_kind =
      serve::parse_sink_kind(flags.get("sink", "null"));
  const std::string sink_path = flags.get("sink-out", "");
  std::ofstream sink_file;
  if (!sink_path.empty()) {
    // Truncate: a resumed daemon re-renders the full history, so the file
    // always holds exactly the uninterrupted-run bytes.
    sink_file.open(sink_path, std::ios::binary | std::ios::trunc);
    if (!sink_file) {
      std::fprintf(stderr, "run: cannot open %s\n", sink_path.c_str());
      return 1;
    }
  }
  std::ostream& sink_stream = sink_path.empty() ? std::cout : sink_file;
  const std::unique_ptr<serve::MetricsSink> sink =
      serve::make_sink(sink_kind, sink_stream);
  opts.sink = sink.get();

  const auto crash_after = flags.get_int("crash-after-jobs", 0);
  if (crash_after > 0) {
    opts.on_admit = [crash_after](std::uint64_t admitted) {
      if (admitted >= static_cast<std::uint64_t>(crash_after)) {
        std::_Exit(137);  // kill -9 semantics: no flushes, no unwinding
      }
    };
  }

  const std::string in_path = flags.get("in", "");
  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path, std::ios::binary);
    if (!in_file) {
      std::fprintf(stderr, "run: cannot open %s\n", in_path.c_str());
      return 1;
    }
  }
  std::istream& in = in_path.empty() ? std::cin : in_file;

  const serve::ServeResult r = serve::serve_stream(in, opts);
  std::fprintf(stderr,
               "served %llu jobs (%llu frames) scheduler=%s\n"
               "placement_checksum=%016llx\n"
               "resume: snapshot=%d restored=%llu readmitted=%llu "
               "deduped=%llu\n"
               "latency_us: n=%llu mean=%.1f p50=%.1f p99=%.1f max=%.1f\n",
               static_cast<unsigned long long>(r.jobs),
               static_cast<unsigned long long>(r.frames), scheduler.c_str(),
               static_cast<unsigned long long>(r.placement_checksum),
               r.resumed_from_snapshot ? 1 : 0,
               static_cast<unsigned long long>(r.resume_restored),
               static_cast<unsigned long long>(r.resume_readmitted),
               static_cast<unsigned long long>(r.replay_deduped),
               static_cast<unsigned long long>(r.latency.samples),
               r.latency.mean_us, r.latency.p50_us, r.latency.p99_us,
               r.latency.max_us);
  // The one machine-parseable stdout line the crash script keys on.
  std::printf("checksum %016llx jobs %llu\n",
              static_cast<unsigned long long>(r.placement_checksum),
              static_cast<unsigned long long>(r.jobs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const util::Flags flags(argc - 1, argv + 1);
    int rc = 2;
    if (command == "pack") {
      rc = cmd_pack(flags);
    } else if (command == "run") {
      rc = cmd_run(flags);
    } else {
      return usage();
    }
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      rc = 2;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mris_serve %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
