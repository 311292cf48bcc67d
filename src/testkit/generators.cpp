#include "testkit/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "testkit/streams.hpp"
#include "trace/generator.hpp"
#include "util/contracts.hpp"

namespace mris::testkit {

namespace {

int draw_machines(const GenConfig& cfg, util::Xoshiro256& rng) {
  if (cfg.machines > 0) return cfg.machines;
  return 1 + static_cast<int>(util::uniform_index(rng, 4));
}

int draw_resources(const GenConfig& cfg, util::Xoshiro256& rng) {
  if (cfg.resources > 0) return cfg.resources;
  return 1 + static_cast<int>(util::uniform_index(rng, 5));
}

/// A demand vector with a mix of zero and non-trivial entries; always has
/// at least one positive entry.
std::vector<double> mixed_demand(util::Xoshiro256& rng, int resources) {
  std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
  for (double& x : d) {
    x = util::uniform01(rng) < 0.3 ? 0.0 : util::uniform(rng, 0.01, 1.0);
  }
  if (std::all_of(d.begin(), d.end(), [](double x) { return x == 0.0; })) {
    d[0] = 0.5;
  }
  return d;
}

Instance make_mixed(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    b.add(util::uniform(rng, 0.0, 25.0), util::uniform(rng, 1.0, 9.0),
          util::uniform(rng, 0.25, 4.0), mixed_demand(rng, resources));
  }
  return b.build();
}

Instance make_release_burst(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  // A handful of burst instants; every job releases at *exactly* one of
  // them (identical doubles), so arrival ordering and same-time packing
  // ties are maximally stressed.
  const std::size_t bursts = 1 + util::uniform_index(rng, 4);
  std::vector<double> instants(bursts);
  for (double& t : instants) t = util::uniform(rng, 0.0, 30.0);
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    const double r = instants[util::uniform_index(rng, bursts)];
    std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
    for (double& x : d) x = util::uniform(rng, 0.2, 0.9);
    b.add(r, util::uniform(rng, 1.0, 6.0), util::uniform(rng, 0.5, 3.0),
          std::move(d));
  }
  return b.build();
}

Instance make_near_capacity(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  // Demands at and one ulp around the feasibility breakpoints 1 and 1/2:
  // two "half" jobs just fit together, a half plus a half-plus-ulp just
  // don't, and full-demand jobs serialize the machine.
  const double kEdges[] = {1.0,
                           std::nextafter(1.0, 0.0),
                           0.5,
                           std::nextafter(0.5, 1.0),
                           std::nextafter(0.5, 0.0),
                           1.0 / 3.0,
                           std::nextafter(2.0 / 3.0, 1.0)};
  constexpr std::size_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
    for (double& x : d) x = kEdges[util::uniform_index(rng, kNumEdges)];
    b.add(util::uniform(rng, 0.0, 12.0), util::uniform(rng, 1.0, 5.0),
          util::uniform(rng, 0.5, 2.0), std::move(d));
  }
  return b.build();
}

Instance make_ulp_boundary(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  InstanceBuilder b(machines, resources);
  double prev_p = util::uniform(rng, 1.0, 40.0);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    // Full-mantissa releases (thirds and sevenths are never exactly
    // representable, so every start/end sum rounds), and processing times
    // that recur one ulp apart: start + p lands on breakpoints that
    // duration arithmetic cannot recompute — the PR 4 bug's habitat.
    const double r = util::uniform(rng, 0.0, 50.0) / 3.0 +
                     util::uniform(rng, 0.0, 7.0) / 7.0;
    double p;
    switch (util::uniform_index(rng, 4)) {
      case 0: p = std::nextafter(prev_p, 1e9); break;
      case 1: p = std::nextafter(prev_p, 0.0); break;
      case 2: p = prev_p; break;
      default: p = util::uniform(rng, 1.0, 40.0); break;
    }
    p = std::max(1.0, p);
    prev_p = p;
    std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
    for (double& x : d) x = util::uniform(rng, 0.05, 0.95);
    b.add(r, p, util::uniform(rng, 0.25, 4.0), std::move(d));
  }
  return b.build();
}

Instance make_knapsack_ties(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  // Groups of jobs with identical weight (knapsack profit) and identical
  // volume p * u (knapsack size) but different per-resource spreads: the
  // selection is degenerate, so only deterministic tie-breaking keeps runs
  // replayable.
  InstanceBuilder b(machines, resources);
  std::size_t made = 0;
  while (made < cfg.num_jobs) {
    const std::size_t group =
        std::min(cfg.num_jobs - made, 2 + util::uniform_index(rng, 5));
    const double w = static_cast<double>(1 + util::uniform_index(rng, 4));
    const double p = static_cast<double>(1 + util::uniform_index(rng, 8));
    // Total demand u shared by the group in exact eighths, so every
    // member's demand entries sum to *exactly* u regardless of the spread
    // and the knapsack sizes p * u tie bit-for-bit.
    const std::int64_t u8 =
        resources == 1 ? util::uniform_int(rng, 2, 8)
                       : util::uniform_int(rng, 2, 12);
    const double r = util::uniform(rng, 0.0, 10.0);
    for (std::size_t g = 0; g < group; ++g) {
      std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
      if (resources == 1) {
        d[0] = static_cast<double>(u8) / 8.0;
      } else {
        // Split the eighths over two resources; the split varies per job
        // but each entry stays within [0, 1].
        const auto a = util::uniform_index(
            rng, static_cast<std::uint64_t>(resources));
        auto c = util::uniform_index(
            rng, static_cast<std::uint64_t>(resources));
        if (c == a) c = (c + 1) % static_cast<std::uint64_t>(resources);
        const std::int64_t first8 =
            util::uniform_int(rng, std::max<std::int64_t>(0, u8 - 8),
                              std::min<std::int64_t>(u8, 8));
        d[a] = static_cast<double>(first8) / 8.0;
        d[c] = static_cast<double>(u8 - first8) / 8.0;
      }
      b.add(r, p, w, std::move(d));
      ++made;
    }
  }
  return b.build();
}

Instance make_gamma_edge(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = draw_resources(cfg, rng);
  // MRIS classifies by p_j <= gamma_k with gamma_k = 2^k: place p_j at the
  // boundary, one ulp below (same interval) and one ulp above (next
  // interval); releases hug the same boundaries, where wakeup ordering
  // matters (an arrival at gamma_k must be seen by the gamma_k wakeup).
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    const double boundary =
        std::ldexp(1.0, static_cast<int>(util::uniform_index(rng, 6)));
    double p;
    switch (util::uniform_index(rng, 3)) {
      case 0: p = boundary; break;
      case 1: p = std::nextafter(boundary, 0.0); break;
      default: p = std::nextafter(boundary, 1e9); break;
    }
    p = std::max(1.0, p);
    const double rb =
        std::ldexp(1.0, static_cast<int>(util::uniform_index(rng, 6)));
    double r;
    switch (util::uniform_index(rng, 3)) {
      case 0: r = rb; break;
      case 1: r = std::nextafter(rb, 0.0); break;
      default: r = 0.0; break;
    }
    std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
    for (double& x : d) x = util::uniform(rng, 0.1, 0.8);
    b.add(r, p, util::uniform(rng, 0.5, 2.0), std::move(d));
  }
  return b.build();
}

Instance make_dominant_resource(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int machines = draw_machines(cfg, rng);
  const int resources = std::max(2, draw_resources(cfg, rng));
  InstanceBuilder b(machines, resources);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    const auto dominant =
        util::uniform_index(rng, static_cast<std::uint64_t>(resources));
    std::vector<double> d(static_cast<std::size_t>(resources), 0.0);
    for (std::size_t l = 0; l < d.size(); ++l) {
      d[l] = l == dominant ? util::uniform(rng, 0.6, 1.0)
             : util::uniform01(rng) < 0.5 ? 0.0
                                          : util::uniform(rng, 0.0, 0.05);
    }
    b.add(util::uniform(rng, 0.0, 20.0), util::uniform(rng, 1.0, 8.0),
          util::uniform(rng, 0.25, 4.0), std::move(d));
  }
  return b.build();
}

Instance make_patience(const GenConfig& cfg, util::Xoshiro256& rng) {
  const int resources = draw_resources(cfg, rng);
  const std::size_t small = std::max<std::size_t>(2, cfg.num_jobs - 1);
  // The trace generator sizes small-job demands as uniform around
  // blocker / (1.75 * small) with factor up to 1.8, so the blocker must
  // stay below 1.75/1.8 * small for demands to remain within [0, 1].
  const double cap = 0.97 * static_cast<double>(small);
  const double blocker = util::uniform(rng, std::max(1.0, 0.3 * cap), cap);
  // Layered on the trace generator's Sec 7.5.4 family: 1 machine, unless
  // the config asks for M (the same jobs then share M machines).
  Instance inst = trace::make_patience_instance(small, resources, blocker,
                                                rng());
  if (cfg.machines <= 0) return inst;
  return Instance(inst.jobs(), cfg.machines, inst.num_resources());
}

}  // namespace

const std::vector<Family>& all_families() {
  static const std::vector<Family> kAll = {
      Family::kMixed,        Family::kReleaseBurst,
      Family::kNearCapacity, Family::kUlpBoundary,
      Family::kKnapsackTies, Family::kGammaEdge,
      Family::kDominantResource, Family::kPatience,
  };
  return kAll;
}

const char* family_name(Family family) {
  switch (family) {
    case Family::kMixed: return "mixed";
    case Family::kReleaseBurst: return "release-burst";
    case Family::kNearCapacity: return "near-capacity";
    case Family::kUlpBoundary: return "ulp-boundary";
    case Family::kKnapsackTies: return "knapsack-ties";
    case Family::kGammaEdge: return "gamma-edge";
    case Family::kDominantResource: return "dominant-resource";
    case Family::kPatience: return "patience";
  }
  MRIS_EXPECT(false, "unknown testkit family");
  return "?";
}

Family family_from_name(const std::string& name) {
  for (Family f : all_families()) {
    if (name == family_name(f)) return f;
  }
  throw std::invalid_argument("unknown testkit family: " + name);
}

Instance make_family_instance(Family family, const GenConfig& config,
                              std::uint64_t seed) {
  MRIS_EXPECT(config.num_jobs > 0, "family instance needs at least one job");
  util::Xoshiro256 rng = make_stream(seed, family_name(family));
  switch (family) {
    case Family::kMixed: return make_mixed(config, rng);
    case Family::kReleaseBurst: return make_release_burst(config, rng);
    case Family::kNearCapacity: return make_near_capacity(config, rng);
    case Family::kUlpBoundary: return make_ulp_boundary(config, rng);
    case Family::kKnapsackTies: return make_knapsack_ties(config, rng);
    case Family::kGammaEdge: return make_gamma_edge(config, rng);
    case Family::kDominantResource:
      return make_dominant_resource(config, rng);
    case Family::kPatience: return make_patience(config, rng);
  }
  throw std::invalid_argument("unknown testkit family");
}

}  // namespace mris::testkit
