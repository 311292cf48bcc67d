// Microbenchmarks of full online simulations: events processed per second
// for each scheduler as N grows.  The PQ family's scan costs O(queue * R)
// per event plus O(M * R) per commit (DESIGN.md, "PQ scan"); MRIS's cost is
// knapsack-dominated (Sec 5.3: O(N^3/eps) worst case, but each iteration
// touches only the pending set).
#include <benchmark/benchmark.h>

#include "exp/runner.hpp"
#include "trace/generator.hpp"
#include "trace/sampling.hpp"

namespace {

using namespace mris;

Instance bench_instance(std::size_t n) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = n;
  cfg.seed = 42;
  return to_instance(merge_storage(generate_azure_like(cfg)), 4);
}

void run_spec(benchmark::State& state, const exp::SchedulerSpec& spec) {
  const Instance inst = bench_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto scheduler = exp::make_scheduler(spec, inst);
    benchmark::DoNotOptimize(run_online(inst, *scheduler));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Pq(benchmark::State& state) {
  run_spec(state, exp::SchedulerSpec::Pq(Heuristic::kWsjf));
}
BENCHMARK(BM_Pq)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000);

void BM_Mris(benchmark::State& state) {
  run_spec(state, exp::SchedulerSpec::Mris());
}
BENCHMARK(BM_Mris)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000);

void BM_MrisGreedy(benchmark::State& state) {
  run_spec(state, exp::SchedulerSpec::Mris(
                      Heuristic::kWsjf, knapsack::Backend::kGreedyConstraint));
}
BENCHMARK(BM_MrisGreedy)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000);

void BM_Tetris(benchmark::State& state) {
  run_spec(state, exp::SchedulerSpec::Tetris());
}
BENCHMARK(BM_Tetris)->Arg(250)->Arg(500)->Arg(1000);

void BM_BfExec(benchmark::State& state) {
  run_spec(state, exp::SchedulerSpec::BfExec());
}
BENCHMARK(BM_BfExec)->Arg(250)->Arg(500)->Arg(1000);

void BM_Validate(benchmark::State& state) {
  const Instance inst = bench_instance(static_cast<std::size_t>(state.range(0)));
  auto scheduler = exp::make_scheduler(exp::SchedulerSpec::Pq(), inst);
  const RunResult r = run_online(inst, *scheduler);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_schedule(inst, r.schedule));
  }
}
BENCHMARK(BM_Validate)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
