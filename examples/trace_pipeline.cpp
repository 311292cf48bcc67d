// The full trace pipeline of Section 7.1, end to end:
//
//   1. obtain a workload — either the real Azure packing trace (pass the
//      two CSV paths) or the built-in synthetic Azure-like generator;
//   2. merge HDD+SSD into one storage resource;
//   3. downsample by a factor f at several offsets Delta (the paper's
//      replication scheme);
//   4. optionally augment with synthetic resources (Sec 7.5.3);
//   5. run the comparison lineup and aggregate mean ± 95% CI.
//
//   $ ./examples/trace_pipeline                      # synthetic trace
//   $ ./examples/trace_pipeline vm.csv vmType.csv    # real Azure trace
#include <cstdio>
#include <vector>

#include "exp/ascii.hpp"
#include "exp/runner.hpp"
#include "trace/azure.hpp"
#include "trace/generator.hpp"
#include "trace/sampling.hpp"

int main(int argc, char** argv) {
  using namespace mris;

  // Step 1: load or synthesize the 5-resource workload.
  trace::Workload raw;
  if (argc >= 3) {
    std::printf("loading Azure packing trace from %s + %s ...\n", argv[1],
                argv[2]);
    trace::AzureLoadOptions opts;
    opts.max_jobs = 100000;  // plenty for this demo
    raw = trace::load_azure_trace_files(argv[1], argv[2], opts);
  } else {
    std::printf("no trace files given; using the synthetic generator\n");
    trace::GeneratorConfig cfg;
    cfg.num_jobs = 20000;
    cfg.seed = 11;
    raw = generate_azure_like(cfg);
  }
  std::printf("raw workload: %zu jobs, %zu resources\n", raw.jobs.size(),
              raw.num_resources());

  // Step 2: merge storage (no job uses both HDD and SSD).
  const trace::Workload merged = merge_storage(raw);

  // Step 3: downsample to N = |raw| / f jobs, 5 replications.
  const std::size_t factor = 10;
  const std::size_t reps = 5;
  util::Xoshiro256 rng(99);
  const auto offsets = trace::sample_offsets(factor, reps, rng);
  std::printf("downsampling by f=%zu at offsets:", factor);
  for (std::size_t o : offsets) std::printf(" %zu", o);
  std::printf("\n");

  // Step 4 (optional): augment from 4 to 6 resources.
  const std::size_t target_resources = 6;

  const int machines = 4;
  auto factory = [&](std::size_t rep) {
    trace::Workload sampled = trace::downsample(merged, factor, offsets[rep]);
    util::Xoshiro256 aug_rng(1000 + rep);
    return to_instance(
        trace::augment_resources(sampled, target_resources, trace::kCpu,
                                 aug_rng),
        machines);
  };

  // Step 5: run and aggregate.
  std::vector<std::vector<std::string>> table = {
      {"scheduler", "AWCT (mean ± 95% CI)", "makespan", "mean delay"}};
  const std::vector<exp::SchedulerSpec> lineup = exp::comparison_lineup();
  const std::vector<exp::PointResult> points =
      exp::replicate_lineup(reps, factory, lineup);
  for (std::size_t s = 0; s < lineup.size(); ++s) {
    const exp::PointResult& p = points[s];
    table.push_back({lineup[s].display_name(), exp::format_ci(p.awct),
                     exp::format_ci(p.makespan), exp::format_ci(p.mean_delay)});
  }
  std::printf("\n%s", exp::render_table(table).c_str());
  std::printf(
      "\nTo run against the genuine dataset, export the `vm` and `vmType`\n"
      "tables of AzureTracesForPacking2020 as CSV and pass their paths.\n");
  return 0;
}
