// Empirical competitive-ratio checks against the exact offline oracle on
// tiny random instances: MRIS must stay within its proven 8R(1+eps) bound
// for both AWCT (Theorem 6.8) and makespan (Lemma 6.9).  PQ, by Lemma 4.1,
// must exceed any constant ratio on the adversarial family.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "exp/runner.hpp"
#include "sched/optimal.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace mris {
namespace {

Instance tiny_random_instance(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const int machines = 1 + static_cast<int>(util::uniform_index(rng, 2));
  const int resources = 1 + static_cast<int>(util::uniform_index(rng, 3));
  const std::size_t n = 3 + util::uniform_index(rng, 3);  // 3..5 jobs
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> d(static_cast<std::size_t>(resources));
    for (double& x : d) x = util::uniform(rng, 0.1, 1.0);
    b.add(util::uniform(rng, 0.0, 4.0), util::uniform(rng, 1.0, 4.0),
          util::uniform(rng, 0.5, 2.0), std::move(d));
  }
  return b.build();
}

class MrisCompetitive : public ::testing::TestWithParam<int> {};

TEST_P(MrisCompetitive, AwctWithinTheoremBound) {
  const Instance inst =
      tiny_random_instance(static_cast<std::uint64_t>(GetParam()) * 2654435761);
  const double eps = 0.5;

  exp::SchedulerSpec spec = exp::SchedulerSpec::Mris();
  spec.mris.eps = eps;
  const exp::EvalResult alg = exp::evaluate(inst, spec);

  const Schedule opt = optimal_weighted_completion_schedule(inst);
  ASSERT_TRUE(validate_schedule(inst, opt).ok);
  const double opt_twct = total_weighted_completion_time(inst, opt);

  const double bound =
      8.0 * inst.num_resources() * (1.0 + eps);
  EXPECT_LE(alg.twct, bound * opt_twct + 1e-6)
      << "Theorem 6.8 violated on seed " << GetParam();
}

TEST_P(MrisCompetitive, MakespanWithinLemmaBound) {
  const Instance inst =
      tiny_random_instance(static_cast<std::uint64_t>(GetParam()) * 40503);
  const double eps = 0.5;

  exp::SchedulerSpec spec = exp::SchedulerSpec::Mris();
  spec.mris.eps = eps;
  const Schedule sched = exp::evaluate(inst, spec).schedule;

  const Schedule opt = optimal_makespan_schedule(inst);
  const double bound = 8.0 * inst.num_resources() * (1.0 + eps);
  EXPECT_LE(makespan(inst, sched), bound * makespan(inst, opt) + 1e-6)
      << "Lemma 6.9 violated on seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TinyRandomInstances, MrisCompetitive,
                         ::testing::Range(1, 30));

class GreedyBackendCompetitive : public ::testing::TestWithParam<int> {};

TEST_P(GreedyBackendCompetitive, AwctWithinGreedyBound) {
  // With the greedy backend the per-interval capacity factor becomes 2
  // instead of (1 + eps): the ratio certificate is 8R * 2 / (1 + eps)
  // relative to CADP's — conservatively we check against 16R.
  const Instance inst =
      tiny_random_instance(static_cast<std::uint64_t>(GetParam()) * 7577);
  exp::SchedulerSpec spec =
      exp::SchedulerSpec::Mris(Heuristic::kWsjf,
                               knapsack::Backend::kGreedyConstraint);
  const exp::EvalResult alg = exp::evaluate(inst, spec);
  const Schedule opt = optimal_weighted_completion_schedule(inst);
  const double bound = 16.0 * inst.num_resources();
  EXPECT_LE(alg.twct,
            bound * total_weighted_completion_time(inst, opt) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(TinyRandomInstances, GreedyBackendCompetitive,
                         ::testing::Range(1, 15));

TEST(PqNonCompetitiveTest, RatioScalesLinearlyOnAdversarialFamily) {
  // Lemma 4.1: ALG/OPT grows ~ N/8 on the family with p = N.  Verify the
  // ratio roughly doubles as N doubles.
  double prev_ratio = 0.0;
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    const Instance inst = trace::make_lemma41_instance(n, 2);
    const exp::EvalResult pq =
        exp::evaluate(inst, exp::SchedulerSpec::Pq(Heuristic::kSjf));
    // Optimal certificate: run small jobs first, blocker last.
    Schedule opt(inst.num_jobs());
    for (JobId j = 1; j < static_cast<JobId>(n); ++j) {
      opt.assign(j, 0, inst.job(j).release);
    }
    opt.assign(0, 0, inst.job(1).release + 1.0);
    ASSERT_TRUE(validate_schedule(inst, opt).ok);
    const double ratio =
        pq.twct / total_weighted_completion_time(inst, opt);
    EXPECT_GT(ratio, prev_ratio * 1.5)
        << "ratio must keep growing with N (Omega(N))";
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 8.0);
}

TEST(MrisVsPqTest, MrisUnaffectedByAdversarialFamily) {
  // MRIS's ratio on the Lemma 4.1 family stays bounded as N grows.
  for (std::size_t n : {16u, 64u, 256u}) {
    const Instance inst = trace::make_lemma41_instance(n, 2);
    const exp::EvalResult mris =
        exp::evaluate(inst, exp::SchedulerSpec::Mris());
    Schedule opt(inst.num_jobs());
    for (JobId j = 1; j < static_cast<JobId>(n); ++j) {
      opt.assign(j, 0, inst.job(j).release);
    }
    opt.assign(0, 0, inst.job(1).release + 1.0);
    const double ratio =
        mris.twct / total_weighted_completion_time(inst, opt);
    EXPECT_LT(ratio, 8.0 * 2 * (1.0 + 0.5))
        << "MRIS ratio must stay within the theorem bound, n=" << n;
  }
}

}  // namespace
}  // namespace mris
