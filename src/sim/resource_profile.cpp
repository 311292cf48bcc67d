#include "sim/resource_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/recovery/state_io.hpp"
#include "util/contracts.hpp"

namespace mris {

namespace {

/// Slack applied by capacity/non-negativity contracts: commits pass a
/// fits() check with tolerance 1e-9 first, so anything past this is a
/// genuine double-booking, not floating-point dust.
constexpr double kContractSlack = 1e-6;

/// Tiny negative residues above this threshold (exclusive) are clamped to
/// zero by release — the floating-point-dust rule.
constexpr double kDustThreshold = -1e-12;

}  // namespace

ResourceProfile::ResourceProfile(int num_resources)
    : num_resources_(num_resources),
      width_(static_cast<std::size_t>(num_resources)) {
  times_.push_back(0.0);
  usage_.assign(width_, 0.0);
  headroom_.push_back(1.0);
  scratch_.assign(width_, 0.0);
}

std::size_t ResourceProfile::segment_of(Time t) const {
  // Last index i with times_[i] <= t.  t < 0 maps to segment 0.
  const std::size_t n = times_.size();
  std::size_t i = hint_ < n ? hint_ : n - 1;
  if (times_[i] <= t) {
    // Monotone probes land in the hinted segment or the next one.
    if (i + 1 == n || t < times_[i + 1]) {
      hint_ = i;
      return i;
    }
    if (i + 2 == n || t < times_[i + 2]) {
      hint_ = i + 1;
      return i + 1;
    }
    const auto it = std::upper_bound(times_.begin() +
                                         static_cast<std::ptrdiff_t>(i) + 2,
                                     times_.end(), t);
    hint_ = static_cast<std::size_t>(it - times_.begin()) - 1;
    return hint_;
  }
  const auto it = std::upper_bound(
      times_.begin(), times_.begin() + static_cast<std::ptrdiff_t>(i), t);
  if (it == times_.begin()) {
    hint_ = 0;
    return 0;
  }
  hint_ = static_cast<std::size_t>(it - times_.begin()) - 1;
  return hint_;
}

double ResourceProfile::usage_at(Time t, int resource) const {
  return usage_[segment_of(t) * width_ + static_cast<std::size_t>(resource)];
}

std::vector<double> ResourceProfile::available_at(Time t) const {
  std::vector<double> avail(static_cast<std::size_t>(num_resources_));
  available_at(t, avail);
  return avail;
}

void ResourceProfile::available_at(Time t, std::span<double> out) const {
  available_until(t, out);
}

Time ResourceProfile::available_until(Time t, std::span<double> out) const {
  MRIS_EXPECT(out.size() == static_cast<std::size_t>(num_resources_),
              "available_at: output dimension != machine resource dimension");
  const std::size_t i = segment_of(t);
  const double* row = usage_.data() + i * width_;
  for (std::size_t l = 0; l < out.size(); ++l) {
    out[l] = std::max(0.0, 1.0 - row[l]);
  }
  return i + 1 < times_.size() ? times_[i + 1]
                               : std::numeric_limits<Time>::infinity();
}

bool ResourceProfile::fits(Time start, Time duration,
                           std::span<const double> demand,
                           double tolerance) const {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "fits: demand dimension != machine resource dimension");
  if (duration <= 0.0) return true;
  const Time end = start + duration;
  double dmax = 0.0;
  for (const double d : demand) dmax = std::max(dmax, d);
  const std::size_t n = times_.size();
  const std::size_t R = demand.size();
  for (std::size_t i = segment_of(start); i < n; ++i) {
    if (times_[i] >= end) break;
    // dmax <= headroom bounds every resource within 1: the segment fits
    // without the R-wide check.
    if (dmax <= headroom_[i]) continue;
    const double* row = usage_.data() + i * R;
    for (std::size_t l = 0; l < R; ++l) {
      if (row[l] + demand[l] > 1.0 + tolerance) return false;
    }
  }
  return true;
}

Time ResourceProfile::earliest_fit(Time not_before, Time duration,
                                   std::span<const double> demand,
                                   double tolerance, Time give_up,
                                   FitStaircase* memo) const {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "earliest_fit: demand dimension != machine resource dimension");
  Time s = std::max(not_before, 0.0);
  if (duration <= 0.0) return s;
  ++fit_counters_.queries;
  // Lower-bound memo (header comment).  Below pruned_before_ the flattened
  // past may hold less usage than when an answer was recorded, so such
  // queries bypass it.
  if (s < pruned_before_) memo = nullptr;
  // Steps [0, below) have durations <= `duration`; the last of them holds
  // the best lower bound.
  std::size_t below = 0;
  if (memo != nullptr) {
    auto& steps = memo->steps;
    // Recorded answers bound only queries with not_before >= theirs.
    if (s < memo->floor) steps.clear();
    memo->floor = s;
    // Answers <= s bound nothing any more.
    steps.erase(steps.begin(),
                std::partition_point(steps.begin(), steps.end(),
                                     [s](const auto& st) {
                                       return st.second <= s;
                                     }));
    below = static_cast<std::size_t>(
        std::partition_point(
            steps.begin(), steps.end(),
            [duration](const auto& st) { return st.first <= duration; }) -
        steps.begin());
    if (below > 0) {
      s = steps[below - 1].second;
      ++fit_counters_.bounded;
    }
  }
  if (s >= give_up) {
    ++fit_counters_.abandoned;
    return s;
  }
  double dmax = 0.0;
  for (const double d : demand) dmax = std::max(dmax, d);
  const std::size_t n = times_.size();
  const std::size_t R = demand.size();
  Time end = s + duration;
  // One resumable forward pass: a conflict at segment i pushes the
  // candidate start to times_[i+1], and scanning continues at i+1 — never
  // re-searching the breakpoint list from scratch.  Segments whose
  // headroom covers dmax are skipped with one compare (see fits()).  A
  // candidate at or past give_up ends the scan; it is still a lower bound.
  const std::size_t first = segment_of(s);
  std::size_t i = first;
  for (; i < n; ++i) {
    if (times_[i] >= end) break;
    if (dmax <= headroom_[i]) continue;
    const double* row = usage_.data() + i * R;
    bool violated = false;
    for (std::size_t l = 0; l < R; ++l) {
      if (row[l] + demand[l] > 1.0 + tolerance) {
        violated = true;
        break;
      }
    }
    if (violated) {
      MRIS_INVARIANT(i + 1 < n,
                     "last segment is all-zero, so demand <= 1 always fits "
                     "there");
      s = times_[i + 1];
      end = s + duration;
      if (s >= give_up) {
        ++fit_counters_.abandoned;
        ++i;  // segment i was examined
        break;
      }
    }
  }
  fit_counters_.segments += i - first;
  if (memo != nullptr) {
    // Record (duration, s), a lower bound even when the scan gave up.
    // Step below - 1 bounded this scan, so its answer is <= s; an equal
    // answer already implies the new step.
    auto& steps = memo->steps;
    if (below > 0 && steps[below - 1].second == s) return s;
    if (below > 0 && steps[below - 1].first == duration) {
      steps[below - 1].second = s;
    } else {
      steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(below),
                   {duration, s});
      ++below;
    }
    // Longer durations whose answer is <= s are implied by the new step.
    const auto longer = steps.begin() + static_cast<std::ptrdiff_t>(below);
    steps.erase(longer, std::partition_point(longer, steps.end(),
                                             [s](const auto& st) {
                                               return st.second <= s;
                                             }));
  }
  return s;
}

std::size_t ResourceProfile::ensure_breakpoint(Time t) {
  const std::size_t i = segment_of(t);
  if (times_[i] == t) return i;
  // Split segment i at t; the new segment inherits segment i's usage.
  times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(i) + 1, t);
  // Stage the row in scratch_: inserting a range of usage_ into itself is
  // undefined once the vector reallocates.
  std::copy_n(usage_.begin() + static_cast<std::ptrdiff_t>(i * width_),
              width_, scratch_.begin());
  usage_.insert(
      usage_.begin() + static_cast<std::ptrdiff_t>((i + 1) * width_),
      scratch_.begin(), scratch_.end());
  headroom_.insert(headroom_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   headroom_[i]);
  return i + 1;
}

std::pair<std::size_t, std::size_t> ResourceProfile::add(
    Time start, Time end, std::span<const double> demand) {
  ++version_;
  const std::size_t first = ensure_breakpoint(std::max(start, 0.0));
  const std::size_t last = ensure_breakpoint(end);  // exclusive segment
  // Each mutated row's headroom is recomputed in the same pass.
  for (std::size_t i = first; i < last; ++i) {
    double* row = usage_.data() + i * width_;
    double m = 0.0;
    for (std::size_t l = 0; l < width_; ++l) {
      row[l] += demand[l];
      m = std::max(m, row[l]);
    }
    headroom_[i] = 1.0 - m;
  }
  return {first, last};
}

void ResourceProfile::reserve(Time start, Time duration,
                              std::span<const double> demand) {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "reserve: demand dimension != machine resource dimension");
  if (duration <= 0.0) return;
  const auto [first, last] = add(start, start + duration, demand);
  const std::size_t R = demand.size();
  for (std::size_t i = first; i < last; ++i) {
    const double* row = usage_.data() + i * R;
    for (std::size_t l = 0; l < R; ++l) {
      MRIS_ENSURE(row[l] <= 1.0 + kContractSlack,
                  "reserve: per-resource usage exceeds capacity 1 "
                  "(double-booked reservation; call fits() first)");
    }
  }
}

void ResourceProfile::force_reserve(Time start, Time duration,
                                    std::span<const double> demand) {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "force_reserve: demand dimension != machine resource dimension");
  if (duration <= 0.0) return;
  add(start, start + duration, demand);
}

void ResourceProfile::force_reserve_until(Time start, Time end,
                                          std::span<const double> demand) {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "force_reserve_until: demand dimension != machine resource "
              "dimension");
  if (!(end > start)) return;
  add(start, end, demand);
}

void ResourceProfile::release(Time start, Time duration,
                              std::span<const double> demand) {
  release_until(start, start + duration, demand);
}

void ResourceProfile::release_until(Time start, Time end,
                                    std::span<const double> demand) {
  MRIS_EXPECT(demand.size() == static_cast<std::size_t>(num_resources_),
              "release: demand dimension != machine resource dimension");
  if (!(end > start)) return;
  ++version_;
  const std::size_t first = ensure_breakpoint(std::max(start, 0.0));
  const std::size_t last = ensure_breakpoint(end);
  for (std::size_t i = first; i < last; ++i) {
    double* row = usage_.data() + i * width_;
    bool ok = true;
    double m = 0.0;
    for (std::size_t l = 0; l < width_; ++l) {
      row[l] -= demand[l];
      if (row[l] < -kContractSlack) ok = false;
      // Clamp floating-point dust to +0.0 (rows are compared bitwise by
      // coalesce_range).
      if (row[l] < 0.0 && row[l] > kDustThreshold) row[l] = 0.0;
      m = std::max(m, row[l]);
    }
    headroom_[i] = 1.0 - m;
    MRIS_INVARIANT(ok,
                   "release: usage went negative (released a demand that "
                   "was never reserved)");
    static_cast<void>(ok);
  }
  coalesce_range(first, last + 1);
}

void ResourceProfile::coalesce_range(std::size_t lo, std::size_t hi) {
  // Merge segment i into i-1 wherever their usage rows are bitwise equal;
  // the profile as a function of time is unchanged.  Scan high-to-low so
  // erasures do not shift the indices still to visit.
  lo = std::max<std::size_t>(lo, 1);
  hi = std::min(hi, times_.size() - 1);
  for (std::size_t i = hi; i >= lo; --i) {
    const double* prev = usage_.data() + (i - 1) * width_;
    const double* cur = usage_.data() + i * width_;
    if (!std::equal(cur, cur + width_, prev)) continue;
    times_.erase(times_.begin() + static_cast<std::ptrdiff_t>(i));
    usage_.erase(
        usage_.begin() + static_cast<std::ptrdiff_t>(i * width_),
        usage_.begin() + static_cast<std::ptrdiff_t>((i + 1) * width_));
    headroom_.erase(headroom_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (hint_ >= times_.size()) hint_ = 0;
}

void ResourceProfile::prune_before(Time t) {
  pruned_before_ = std::max(pruned_before_, t);
  const std::size_t i = segment_of(t);
  if (i == 0) return;
  ++version_;
  // Flatten the committed past: the leading segment takes over the usage of
  // the segment containing t, and every breakpoint in (0, times_[i]] goes
  // away.  Queries at or after times_[i] are untouched.
  std::copy_n(usage_.begin() + static_cast<std::ptrdiff_t>(i * width_),
              width_, usage_.begin());
  headroom_[0] = headroom_[i];
  times_.erase(times_.begin() + 1,
               times_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  usage_.erase(
      usage_.begin() + static_cast<std::ptrdiff_t>(width_),
      usage_.begin() + static_cast<std::ptrdiff_t>((i + 1) * width_));
  headroom_.erase(headroom_.begin() + 1,
                  headroom_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  hint_ = 0;
  // The takeover can leave segments 0 and 1 equal (e.g. the pruned span
  // ended exactly at a release boundary).
  coalesce_range(1, 1);
}


void ResourceProfile::save_state(recovery::StateWriter& w) const {
  w.vec_f64(times_);
  w.vec_f64(usage_);
  w.vec_f64(headroom_);
  w.f64(pruned_before_);
}

void ResourceProfile::restore_state(recovery::StateReader& r) {
  times_ = r.vec_f64();
  usage_ = r.vec_f64();
  headroom_ = r.vec_f64();
  pruned_before_ = r.f64();
  hint_ = 0;  // a pure cache: any in-range hint is valid
  ++version_;
  if (times_.empty() || usage_.size() != times_.size() * width_ ||
      headroom_.size() != times_.size()) {
    throw std::runtime_error(
        "recovery: inconsistent ResourceProfile state in snapshot");
  }
}

}  // namespace mris
