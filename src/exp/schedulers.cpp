#include "exp/schedulers.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sched/drf.hpp"
#include "sched/hybrid.hpp"

namespace mris::exp {

std::string SchedulerSpec::display_name() const {
  if (!label.empty()) return label;
  switch (kind) {
    case SchedulerKind::kMris: {
      std::string n = "MRIS-" + heuristic_name(heuristic);
      if (mris.backend == knapsack::Backend::kGreedyConstraint) n += "-GREEDY";
      if (!mris.backfill) n += "-nobf";
      if (mris.subroutine == MrisConfig::Subroutine::kEventScan) {
        n += "-evscan";
      }
      return n;
    }
    case SchedulerKind::kPq:
      return "PQ-" + heuristic_name(heuristic);
    case SchedulerKind::kTetris:
      return "TETRIS";
    case SchedulerKind::kBfExec:
      return "BF-EXEC";
    case SchedulerKind::kCaPq:
      return "CA-PQ-" + heuristic_name(heuristic);
    case SchedulerKind::kDrf:
      return "DRF";
    case SchedulerKind::kHybrid:
      return "HYBRID-" + heuristic_name(heuristic);
  }
  return "?";
}

SchedulerSpec SchedulerSpec::Mris(Heuristic h, knapsack::Backend backend) {
  SchedulerSpec s;
  s.kind = SchedulerKind::kMris;
  s.heuristic = h;
  s.mris.heuristic = h;
  s.mris.backend = backend;
  return s;
}

SchedulerSpec SchedulerSpec::Pq(Heuristic h) {
  SchedulerSpec s;
  s.kind = SchedulerKind::kPq;
  s.heuristic = h;
  return s;
}

SchedulerSpec SchedulerSpec::Tetris() {
  SchedulerSpec s;
  s.kind = SchedulerKind::kTetris;
  return s;
}

SchedulerSpec SchedulerSpec::BfExec() {
  SchedulerSpec s;
  s.kind = SchedulerKind::kBfExec;
  return s;
}

SchedulerSpec SchedulerSpec::CaPq(Heuristic h) {
  SchedulerSpec s;
  s.kind = SchedulerKind::kCaPq;
  s.heuristic = h;
  return s;
}

SchedulerSpec SchedulerSpec::Drf() {
  SchedulerSpec s;
  s.kind = SchedulerKind::kDrf;
  return s;
}

SchedulerSpec SchedulerSpec::Hybrid(Heuristic h) {
  SchedulerSpec s;
  s.kind = SchedulerKind::kHybrid;
  s.heuristic = h;
  s.mris.heuristic = h;
  return s;
}

std::unique_ptr<OnlineScheduler> make_scheduler(const SchedulerSpec& spec,
                                                const Instance& inst) {
  switch (spec.kind) {
    case SchedulerKind::kMris: {
      MrisConfig cfg = spec.mris;
      cfg.heuristic = spec.heuristic;
      return std::make_unique<MrisScheduler>(cfg);
    }
    case SchedulerKind::kPq:
      return std::make_unique<PriorityQueueScheduler>(spec.heuristic);
    case SchedulerKind::kTetris:
      return std::make_unique<TetrisScheduler>();
    case SchedulerKind::kBfExec:
      return std::make_unique<BfExecScheduler>();
    case SchedulerKind::kCaPq:
      return std::make_unique<CollectAllPqScheduler>(inst.last_release(),
                                                     spec.heuristic);
    case SchedulerKind::kDrf:
      return std::make_unique<DrfScheduler>();
    case SchedulerKind::kHybrid: {
      MrisConfig cfg = spec.mris;
      cfg.heuristic = spec.heuristic;
      return std::make_unique<HybridScheduler>(cfg);
    }
  }
  throw std::logic_error("make_scheduler: unknown kind");
}

SchedulerSpec parse_scheduler_spec(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });

  const auto heuristic_of = [](const std::string& token,
                               Heuristic fallback) -> Heuristic {
    for (Heuristic h : all_heuristics()) {
      std::string hname = heuristic_name(h);
      std::transform(hname.begin(), hname.end(), hname.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (hname == token) return h;
    }
    if (token.empty()) return fallback;
    throw std::invalid_argument("unknown sorting heuristic '" + token +
                                "' (use svf/wsvf/sjf/wsjf/sdf/wsdf/erf)");
  };
  const auto suffix_after = [&lower](const std::string& prefix) {
    return lower.size() > prefix.size() ? lower.substr(prefix.size() + 1)
                                        : std::string();
  };

  if (lower == "mris") return SchedulerSpec::Mris();
  if (lower == "mris-greedy") {
    return SchedulerSpec::Mris(Heuristic::kWsjf,
                               knapsack::Backend::kGreedyConstraint);
  }
  if (lower == "mris-nobf") {
    SchedulerSpec s = SchedulerSpec::Mris();
    s.mris.backfill = false;
    return s;
  }
  if (lower == "mris-evscan") {
    SchedulerSpec s = SchedulerSpec::Mris();
    s.mris.subroutine = MrisConfig::Subroutine::kEventScan;
    return s;
  }
  if (lower == "tetris") return SchedulerSpec::Tetris();
  if (lower == "bfexec" || lower == "bf-exec") return SchedulerSpec::BfExec();
  if (lower == "drf") return SchedulerSpec::Drf();
  if (lower == "hybrid") return SchedulerSpec::Hybrid();
  if (lower == "pq" || lower.rfind("pq-", 0) == 0) {
    return SchedulerSpec::Pq(
        heuristic_of(suffix_after("pq"), Heuristic::kWsjf));
  }
  if (lower == "capq" || lower.rfind("capq-", 0) == 0) {
    return SchedulerSpec::CaPq(
        heuristic_of(suffix_after("capq"), Heuristic::kWsjf));
  }
  throw std::invalid_argument(
      "unknown scheduler '" + name +
      "' (valid: mris, mris-greedy, mris-nobf, mris-evscan, "
      "pq[-heur], capq[-heur], tetris, bfexec, drf, hybrid)");
}

std::vector<SchedulerSpec> comparison_lineup() {
  return {
      SchedulerSpec::Mris(),
      SchedulerSpec::Pq(Heuristic::kWsjf),
      SchedulerSpec::Pq(Heuristic::kWsvf),
      SchedulerSpec::Tetris(),
      SchedulerSpec::BfExec(),
      SchedulerSpec::CaPq(),
  };
}

}  // namespace mris::exp
