// Adversarial instance families for property testing (layered on the
// trace-generator primitives of src/trace).
//
// Random smoke tests sample the comfortable interior of the instance space;
// the bugs this library hunts live on its edges (the PR 4 ulp-release bug
// needed a reservation endpoint that duration arithmetic cannot recompute).
// Each family below concentrates probability mass on one such edge:
//
//   kMixed            baseline: heterogeneous demands, sizes and releases
//   kReleaseBurst     many jobs released at *identical* instants (tie storms)
//   kNearCapacity     demands at 1, 1-ulp, 0.5±ulp — packing feasibility edges
//   kUlpBoundary      full-mantissa times; p_j values one ulp apart, so
//                     start/end arithmetic lands on rounding boundaries
//   kKnapsackTies     groups of equal-profit equal-volume jobs — knapsack
//                     tie-breaking stress
//   kGammaEdge        p_j at and one ulp around MRIS boundaries 2^k, releases
//                     hugging the same boundaries (Algorithm 1 edge cases)
//   kDominantResource single-dominant-resource mixes (DRF/packing skew)
//   kPatience         the Sec 7.5.4 blocker-plus-swarm shape (Lemma 4.1's
//                     adversarial geometry), via trace::make_patience_instance;
//                     1 machine unless GenConfig::machines is set
//
// Instances are deterministic in (family, config, seed), normalized to
// p_j >= 1 (the theorems' WLOG hypothesis) and always satisfy
// Instance::check_invariants().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace mris::testkit {

enum class Family {
  kMixed,
  kReleaseBurst,
  kNearCapacity,
  kUlpBoundary,
  kKnapsackTies,
  kGammaEdge,
  kDominantResource,
  kPatience,
};

/// Every family, in declaration order (sweep over this for coverage).
const std::vector<Family>& all_families();

/// Stable display/stream name ("mixed", "release-burst", ...).
const char* family_name(Family family);

/// Inverse of family_name; throws std::invalid_argument on unknown names.
Family family_from_name(const std::string& name);

struct GenConfig {
  std::size_t num_jobs = 48;
  int machines = 0;   ///< 0 = draw from the stream (1..4; patience: 1)
  int resources = 0;  ///< 0 = draw from the stream (1..5)
};

/// Builds the `seed`-th instance of a family.  Each family draws from its
/// own label-derived stream (see streams.hpp), so adding a family never
/// changes what an existing (family, seed) pair produces.
Instance make_family_instance(Family family, const GenConfig& config,
                              std::uint64_t seed);

}  // namespace mris::testkit
