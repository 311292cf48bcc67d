// MULTI-RESOURCE INTERVAL SCHEDULING — Algorithm 1 of the paper.
//
// Geometric wakeups gamma_k = gamma0 * alpha^k.  At each gamma_k:
//   1. J_k = pending jobs with p_j <= gamma_k (and r_j <= gamma_k);
//   2. knapsack capacity zeta_k = R * M * gamma_k; select B_k subset of J_k
//      maximizing total weight under sum of volumes <= zeta_k via a
//      constraint-approximation backend (CADP or GREEDY);
//   3. schedule B_k with the PQ makespan subroutine, backfilling each job
//      to its earliest feasible start >= gamma_k.
//
// With alpha = 2 and the CADP backend this is 8R(1+eps)-competitive for
// AWCT (Theorem 6.8) and for makespan (Lemma 6.9).
//
// Under the fault engine's checkpoint/partial-restart model
// (docs/FAULTS.md) the p_j observed through EngineContext::job() is the
// *residual* processing time of a resumed job, so steps 1 and 2 classify
// and size by the work that actually remains — a long job that salvaged
// most of its progress re-enters as a short job in an early interval.
#pragma once

#include <cstddef>
#include <cstdint>

#include "knapsack/knapsack.hpp"
#include "sched/heuristics.hpp"
#include "sim/engine.hpp"

namespace mris {

struct MrisConfig {
  /// Interval growth base; must satisfy alpha >= 2 so that
  /// gamma_{k+1} - gamma_k >= gamma_k (Sec 5.3).  Values in (1, 2) are
  /// accepted for ablation studies but void the proof's constant.
  double alpha = 2.0;

  /// CADP error parameter, in (0, 1).
  double eps = 0.5;

  /// First interval boundary gamma_0.  The paper normalizes p_j >= 1 and
  /// uses gamma_k = 2^k (gamma_0 = 1).
  double gamma0 = 1.0;

  /// Knapsack constraint-approximation backend (Sec 6.1 / Remark 1).
  knapsack::Backend backend = knapsack::Backend::kCadp;

  /// Sort heuristic for the PQ subroutine (Sec 7.3; WSJF performed best).
  Heuristic heuristic = Heuristic::kWsjf;

  /// When false, iteration k places jobs no earlier than the end of all
  /// previously committed work (the disjoint-interval variant of [13] that
  /// Sec 5 argues against) — an ablation knob.
  bool backfill = true;

  /// How the PQ makespan subroutine places a selected batch.
  enum class Subroutine {
    kEarliestFit,  ///< each job at its earliest feasible start, in order
    kEventScan,    ///< the literal Sec 5.2 event-time scan
  };
  Subroutine subroutine = Subroutine::kEarliestFit;
};

/// Run statistics for diagnostics and ablation benches.
struct MrisStats {
  std::size_t iterations = 0;        ///< wakeups that examined a non-empty J_k
  std::size_t knapsack_items = 0;    ///< total items across knapsack calls
  std::size_t jobs_scheduled = 0;
  double max_interval_volume = 0.0;  ///< max over k of selected volume/zeta_k
};

class MrisScheduler : public OnlineScheduler {
 public:
  explicit MrisScheduler(MrisConfig config = {});

  std::string name() const override;

  void on_start(EngineContext& ctx) override;
  void on_arrival(EngineContext& ctx, JobId job) override;
  void on_wakeup(EngineContext& ctx) override;

  const MrisConfig& config() const noexcept { return config_; }
  const MrisStats& stats() const noexcept { return stats_; }

  /// DP cells relaxed by this process's knapsack solves (sum of
  /// Selection::dp_cells).  Deterministic; never serialized, like
  /// FitCounters, so snapshots stay byte-identical and a resumed run
  /// counts from zero.
  std::uint64_t dp_cells() const noexcept { return dp_cells_; }

  // Durability hooks (docs/RECOVERY.md).  Serialized: stats_, k_, armed_,
  // frontier_.  Not serialized: config_ (reconstructed by the factory),
  // gammas_ (pure std::pow memo), dp_cells_ (a work counter), and the
  // per-wakeup scratch vectors (cleared at the top of every wakeup).
  // Hybrid inherits these.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

 private:
  /// gamma_k, memoized: std::pow is called once per distinct k ever needed
  /// (the arm() catch-up loop and every wakeup re-query small k values).
  /// Memoizing the exact std::pow value — rather than iterating
  /// gamma *= alpha — keeps the boundary times bit-identical to the
  /// uncached implementation.
  double gamma(std::size_t k) const;

  /// Arms the next wakeup at the first gamma_k >= t.
  void arm(EngineContext& ctx, Time t);

  MrisConfig config_;
  MrisStats stats_;
  std::size_t k_ = 0;       ///< next interval index to fire
  bool armed_ = false;      ///< a wakeup is outstanding
  Time frontier_ = 0.0;     ///< end of all committed work (no-backfill mode)
  std::uint64_t dp_cells_ = 0;  ///< see dp_cells()
  mutable std::vector<double> gammas_;  ///< gamma(k) memo, indexed by k

  // Per-wakeup working sets, hoisted out of on_wakeup so steady-state
  // wakeups allocate nothing.
  std::vector<JobId> candidates_;
  std::vector<knapsack::Item> items_;
  std::vector<JobId> batch_;
};

}  // namespace mris
