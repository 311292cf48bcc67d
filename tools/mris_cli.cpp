// mris — command-line front end to the library.
//
//   mris generate --jobs 5000 --seed 7 --out workload.csv
//   mris stats    --workload workload.csv --machines 4
//   mris simulate --workload workload.csv --scheduler mris --machines 4
//   mris simulate --synthetic --jobs 2000 --scheduler pq-wsjf --gantt
//   mris compare  --synthetic --jobs 2000 --machines 2
//
// Workload sources (choose one):
//   --workload FILE            native workload CSV (see trace/io.hpp)
//   --azure-vm FILE --azure-vmtype FILE   Azure packing trace CSV tables
//   --azure-sqlite FILE        Azure packing trace sqlite database
//   --synthetic                built-in Azure-like generator
//
// Common transforms:
//   --downsample F --offset D  keep every F-th job starting at D
//   --augment R                extend to R resources (Sec 7.5.3)
//   --no-merge-storage         keep hdd/ssd separate (5 resources)
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/schedule_io.hpp"
#include "exp/ascii.hpp"
#include "exp/gantt.hpp"
#include "exp/runner.hpp"
#include "trace/azure.hpp"
#include "trace/azure_sqlite.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/sampling.hpp"
#include "trace/statistics.hpp"
#include "util/flags.hpp"

namespace {

using namespace mris;

int usage() {
  std::puts(
      "usage: mris <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate   synthesize an Azure-like workload and write it as CSV\n"
      "             --jobs N --seed S --tenants T --demand-scale X --out F\n"
      "  stats      characterize a workload (load factor, distributions)\n"
      "  simulate   run one scheduler online; print metrics\n"
      "             --scheduler NAME [--gantt] [--out-schedule F]\n"
      "             durability: --state-dir D [--snapshot-every N]\n"
      "             [--resume-from D] (snapshot + write-ahead journal in D)\n"
      "  compare    run the full paper lineup (+ DRF, HYBRID) side by side\n"
      "\n"
      "workload sources: --workload F | --azure-vm F --azure-vmtype F |\n"
      "                  --azure-sqlite F | --synthetic [--jobs N --seed S]\n"
      "transforms:       --downsample F [--offset D] --augment R\n"
      "                  --no-merge-storage\n"
      "cluster:          --machines M (default 4)\n"
      "schedulers:       mris mris-greedy mris-nobf mris-evscan pq[-heur]\n"
      "                  capq[-heur] tetris bfexec drf hybrid\n");
  return 2;
}

/// Builds the workload from whichever source flags selected.
trace::Workload load_workload(const util::Flags& flags) {
  const bool synthetic = flags.get_bool("synthetic", false);
  const std::string workload_path = flags.get("workload", "");
  const std::string azure_vm = flags.get("azure-vm", "");
  const std::string azure_vmtype = flags.get("azure-vmtype", "");
  const std::string azure_sqlite = flags.get("azure-sqlite", "");

  trace::Workload w;
  if (!workload_path.empty()) {
    w = trace::read_workload_csv_file(workload_path);
  } else if (!azure_sqlite.empty()) {
    trace::AzureLoadOptions opts;
    opts.max_jobs =
        static_cast<std::size_t>(flags.get_int("max-jobs", 0));
    w = trace::load_azure_trace_sqlite(azure_sqlite, opts);
  } else if (!azure_vm.empty() || !azure_vmtype.empty()) {
    if (azure_vm.empty() || azure_vmtype.empty()) {
      throw std::invalid_argument(
          "--azure-vm and --azure-vmtype must be given together");
    }
    trace::AzureLoadOptions opts;
    opts.max_jobs =
        static_cast<std::size_t>(flags.get_int("max-jobs", 0));
    w = trace::load_azure_trace_files(azure_vm, azure_vmtype, opts);
  } else if (synthetic) {
    trace::GeneratorConfig cfg;
    cfg.num_jobs = static_cast<std::size_t>(flags.get_int("jobs", 10000));
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.num_tenants =
        static_cast<std::size_t>(flags.get_int("tenants", 50));
    cfg.demand_scale = flags.get_double("demand-scale", 1.0);
    w = generate_azure_like(cfg);
  } else {
    throw std::invalid_argument(
        "no workload source given (--workload / --azure-vm + --azure-vmtype"
        " / --azure-sqlite / --synthetic)");
  }

  // Transforms, in the paper's order: merge storage, downsample, augment.
  if (!flags.get_bool("no-merge-storage", false) &&
      w.num_resources() == 5) {
    w = merge_storage(w);
  }
  const auto factor =
      static_cast<std::size_t>(flags.get_int("downsample", 1));
  if (factor > 1) {
    const auto offset = static_cast<std::size_t>(flags.get_int("offset", 0));
    w = downsample(w, factor, offset);
  } else {
    (void)flags.get_int("offset", 0);
  }
  const auto augment = static_cast<std::size_t>(flags.get_int("augment", 0));
  if (augment > 0) {
    util::Xoshiro256 rng(
        static_cast<std::uint64_t>(flags.get_int("seed", 1)) ^ 0xa06u);
    w = augment_resources(w, augment, trace::kCpu, rng);
  }
  return w;
}

int cmd_generate(const util::Flags& flags) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = static_cast<std::size_t>(flags.get_int("jobs", 10000));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.num_tenants = static_cast<std::size_t>(flags.get_int("tenants", 50));
  cfg.demand_scale = flags.get_double("demand-scale", 1.0);
  const trace::Workload w = generate_azure_like(cfg);
  const std::string out = flags.get("out", "workload.csv");
  trace::write_workload_csv_file(out, w);
  std::printf("wrote %zu jobs (%zu resources) to %s\n", w.jobs.size(),
              w.num_resources(), out.c_str());
  return 0;
}

int cmd_stats(const util::Flags& flags) {
  const trace::Workload w = load_workload(flags);
  const int machines = static_cast<int>(flags.get_int("machines", 4));
  std::printf("%s", format_stats(compute_stats(w), machines).c_str());
  const auto hist = arrival_histogram(w, 24);
  std::size_t peak = 1;
  for (std::size_t c : hist) peak = std::max(peak, c);
  std::printf("arrivals over the window (24 slices):\n");
  for (std::size_t c : hist) {
    const auto bar = static_cast<std::size_t>(
        50.0 * static_cast<double>(c) / static_cast<double>(peak));
    std::printf("  %6zu |%s\n", c, std::string(bar, '#').c_str());
  }
  return 0;
}

int cmd_simulate(const util::Flags& flags) {
  const trace::Workload w = load_workload(flags);
  const int machines = static_cast<int>(flags.get_int("machines", 4));
  const Instance inst = to_instance(w, machines);
  const exp::SchedulerSpec spec =
      exp::parse_scheduler_spec(flags.get("scheduler", "mris"));

  // Durability (docs/RECOVERY.md): --state-dir enables snapshot + journal
  // files there; --resume-from restores a crashed run's state dir instead.
  recovery::RecoveryOptions rec;
  const std::string resume_from = flags.get("resume-from", "");
  const std::string state_dir =
      resume_from.empty() ? flags.get("state-dir", "") : resume_from;
  const bool durable = !state_dir.empty();
  if (durable) {
    std::filesystem::create_directories(state_dir);
    rec.snapshot_path = state_dir + "/engine.mrsn";
    rec.journal_path = state_dir + "/engine.mrjl";
    rec.snapshot_every =
        static_cast<std::uint64_t>(flags.get_int("snapshot-every", 64));
    rec.resume = !resume_from.empty();
  } else {
    (void)flags.get_int("snapshot-every", 0);  // meaningless without a dir
  }

  Schedule sched;
  const exp::EvalResult r = exp::evaluate_with_schedule(
      inst, spec, sched, nullptr, durable ? &rec : nullptr);
  std::printf("scheduler:     %s\n", spec.display_name().c_str());
  std::printf("jobs/machines: %zu / %d\n", r.num_jobs, machines);
  std::printf("AWCT:          %s\n", exp::format_num(r.awct).c_str());
  std::printf("AWFT:          %s\n", exp::format_num(r.awft).c_str());
  std::printf("makespan:      %s\n", exp::format_num(r.makespan).c_str());
  std::printf("mean delay:    %s\n", exp::format_num(r.mean_delay).c_str());
  if (durable) {
    std::printf(
        "durability:    %llu snapshots, %llu journal records"
        " (%llu bytes)%s%s\n",
        static_cast<unsigned long long>(r.recovery.snapshots_taken),
        static_cast<unsigned long long>(r.recovery.journal_records),
        static_cast<unsigned long long>(r.recovery.journal_bytes),
        r.recovery.resumed_from_snapshot   ? ", resumed from snapshot"
        : r.recovery.resumed_journal_only  ? ", resumed journal-only"
                                           : "",
        r.recovery.degraded_in_memory      ? ", DEGRADED to in-memory"
        : r.recovery.degraded_journal_only ? ", DEGRADED to journal-only"
                                           : "");
    if (r.recovery.resume_replayed_events > 0) {
      std::printf("               %llu events replayed from the journal\n",
                  static_cast<unsigned long long>(
                      r.recovery.resume_replayed_events));
    }
  }

  if (flags.get_bool("gantt", false)) {
    std::printf("\n%s", exp::render_gantt(inst, sched).c_str());
  }
  const std::string out = flags.get("out-schedule", "");
  if (!out.empty()) {
    write_schedule_csv_file(out, inst, sched);
    std::printf("schedule written to %s\n", out.c_str());
  }

  const std::string log_path = flags.get("log-events", "");
  if (!log_path.empty()) {
    // Re-run with event recording (runs are deterministic) and dump the
    // full engine event log as CSV.
    auto scheduler = exp::make_scheduler(spec, inst);
    RunOptions run_opts;
    run_opts.record_events = true;
    const RunResult rr = run_online(inst, *scheduler, run_opts);
    std::ofstream log_file(log_path);
    if (!log_file) {
      throw std::runtime_error("cannot write " + log_path);
    }
    log_file << "t,kind,job,machine,start\n";
    for (const EventRecord& e : rr.log) {
      log_file << e.t << ',' << event_kind_name(e.kind) << ',' << e.job
               << ',' << e.machine << ','
               << (e.kind == EventRecord::Kind::kCommit
                       ? std::to_string(e.start)
                       : std::string())
               << '\n';
    }
    std::printf("%zu engine events written to %s\n", rr.log.size(),
                log_path.c_str());
  }
  return 0;
}

int cmd_compare(const util::Flags& flags) {
  const trace::Workload w = load_workload(flags);
  const int machines = static_cast<int>(flags.get_int("machines", 4));
  const Instance inst = to_instance(w, machines);

  std::vector<exp::SchedulerSpec> lineup = exp::comparison_lineup();
  lineup.push_back(exp::SchedulerSpec::Drf());
  lineup.push_back(exp::SchedulerSpec::Hybrid());

  std::vector<std::vector<std::string>> table = {
      {"scheduler", "AWCT", "AWFT", "makespan", "mean delay"}};
  for (const auto& spec : lineup) {
    const exp::EvalResult r = exp::evaluate(inst, spec);
    table.push_back({spec.display_name(), exp::format_num(r.awct),
                     exp::format_num(r.awft), exp::format_num(r.makespan),
                     exp::format_num(r.mean_delay)});
  }
  std::printf("%s", exp::render_table(table).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const util::Flags flags(argc - 1, argv + 1);
    int rc;
    if (command == "generate") {
      rc = cmd_generate(flags);
    } else if (command == "stats") {
      rc = cmd_stats(flags);
    } else if (command == "simulate") {
      rc = cmd_simulate(flags);
    } else if (command == "compare") {
      rc = cmd_compare(flags);
    } else {
      return usage();
    }
    for (const std::string& flag : flags.unconsumed()) {
      std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
