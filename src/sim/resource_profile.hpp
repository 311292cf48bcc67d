// Piecewise-constant multi-resource usage timeline for one machine — the
// "reservation calendar" substrate behind both the online simulation and
// MRIS's backfilling (Section 5.3: start times of one iteration may enter
// the periods of previous iterations).
//
// Representation (DESIGN.md §"Timeline data structure"): a flat
// structure-of-arrays.  Sorted breakpoints times_[0..B) with times_[0] ==
// 0; segment i covers [times_[i], times_[i+1]) (the last segment extends to
// +infinity) and its R usage values live contiguously at
// usage_[i * R .. (i + 1) * R).  All reservations are finite, so the final
// segment is always all-zero.
//
// Fast-path machinery layered on that layout:
//  * headroom_[i] caches 1 - max_l usage of segment i, so fits() and
//    earliest_fit() skip a segment with one comparison (max demand <=
//    headroom => the R-wide inner loop cannot fail) — the common case when
//    backfilling probes long stretches of near-empty calendar;
//  * earliest_fit() resumes its scan from the conflicting segment instead
//    of re-running segment_of() per candidate start: one forward pass,
//    O(B) worst case per query instead of O(B log B);
//  * segment_of() remembers the last segment it returned (scan hint), so
//    the monotone probe sequences issued by the PQ list subroutine hit in
//    amortized O(1) — queries are const but update the mutable hint, which
//    makes a profile NOT safe to share across threads (each simulation owns
//    its cluster, so this never happens in-tree);
//  * earliest_fit() keeps a lower-bound memo per demand class (the exact
//    demand row's bytes plus the tolerance): a staircase of (duration,
//    answer) pairs from earlier calls, increasing in both.  A call with the
//    same row, duration p and a not_before no smaller than the recorded
//    ones starts the unchanged scan at max(not_before, answer of the
//    largest recorded duration <= p).  The scan returns the minimum
//    feasible start, which never decreases as not_before or p grows or as
//    usage is added (add/force_reserve), and prune_before leaves
//    [pruned_before(), +inf) unchanged — so a recorded answer is a lower
//    bound on today's and the scan from it returns the same double.
//    release()/release_until() and restore_state() clear the memo; queries
//    below pruned_before() and classes past a fixed per-profile cap
//    (continuous demands) bypass it.  A lookup hashes the row once and
//    probes a small open-addressed table, so a row that never repeats
//    costs one pass over it and a probe or two.  The memo is never
//    serialized, so snapshots and journals do not depend on it;
//  * release() coalesces adjacent equal segments and prune_before()
//    compacts everything before the engine's committed horizon into the
//    leading segment (jobs never start in the past), keeping B proportional
//    to *live* reservations instead of all reservations ever made;
//  * fits() and available_at() are allocation-free (available_at() can
//    write into a caller span), earliest_fit() allocates only when its memo
//    grows, and reserve/release stage the split segment in a reused scratch
//    buffer.
//
// Interval-exact endpoints: reserve/force_reserve/release compute the
// half-open interval's end as start + duration exactly once.  Fault paths
// that cancel a *tail* of an existing reservation must use the *_until
// forms with the originally computed end — recomputing the end as
// new_start + (end - new_start) lands one ulp off the reserved breakpoint
// and releases demand from a sliver segment that never held it (the
// PQ-WSJF "usage went negative" bug, ROADMAP).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/job.hpp"

namespace mris {

namespace recovery {
class StateReader;
class StateWriter;
}  // namespace recovery

/// Deterministic earliest_fit work counters: calls with a positive
/// duration, segments those calls examined, and calls whose scan started
/// from a recorded lower bound (memo hits).  Never serialized, so they
/// count the work of this process only (a resumed run starts from zero).
struct FitCounters {
  std::uint64_t queries = 0;
  std::uint64_t segments = 0;
  std::uint64_t bounded = 0;

  FitCounters& operator+=(const FitCounters& o) noexcept {
    queries += o.queries;
    segments += o.segments;
    bounded += o.bounded;
    return *this;
  }
};

class ResourceProfile {
 public:
  /// Creates an empty profile with `num_resources` unit-capacity resources.
  explicit ResourceProfile(int num_resources);

  int num_resources() const noexcept { return num_resources_; }

  /// Number of breakpoints (for diagnostics and complexity tests).
  std::size_t num_breakpoints() const noexcept { return times_.size(); }

  /// Usage of `resource` at time t (segment containing t).
  double usage_at(Time t, int resource) const;

  /// Remaining capacity per resource at time t (1 - usage, clamped >= 0).
  std::vector<double> available_at(Time t) const;

  /// Allocation-free variant: writes the remaining capacity at time t into
  /// `out` (size must equal num_resources()).
  void available_at(Time t, std::span<double> out) const;

  /// True if adding `demand` over [start, start + duration) keeps every
  /// resource within capacity 1 + tolerance.
  bool fits(Time start, Time duration, std::span<const double> demand,
            double tolerance = 1e-9) const;

  /// Earliest time s >= not_before such that `demand` fits over
  /// [s, s + duration).  Always exists when every demand entry <= 1
  /// (the job fits alone after all reservations end).
  Time earliest_fit(Time not_before, Time duration,
                    std::span<const double> demand,
                    double tolerance = 1e-9) const;

  /// Adds `demand` over [start, start + duration).  Callers must check
  /// fits() first (Cluster enforces this pairing); an MRIS_ENSURE contract
  /// verifies the affected segments stay within capacity 1.
  ///
  /// Precondition of reserve, force_reserve and force_reserve_until: every
  /// demand entry is >= 0 (Job::demand lies in [0, 1]; outage blocks add
  /// 1.0).  Usage then only grows between releases, which the earliest_fit
  /// memo relies on; demand is removed only through release().
  void reserve(Time start, Time duration, std::span<const double> demand);

  /// Adds `demand` over [start, start + duration) with no capacity
  /// contract — outage blocks and straggler overruns may legitimately
  /// push a segment past capacity 1.
  void force_reserve(Time start, Time duration,
                     std::span<const double> demand);

  /// force_reserve with an exact end instead of a duration: extends an
  /// existing reservation to a precomputed endpoint without re-rounding.
  void force_reserve_until(Time start, Time end,
                           std::span<const double> demand);

  /// Subtracts a previously reserved `demand` over [start, start +
  /// duration) — the cancel/requeue path of the fault model.  Tiny negative
  /// residues from floating-point rounding are clamped to zero.  Adjacent
  /// segments left equal by the subtraction are coalesced.
  void release(Time start, Time duration, std::span<const double> demand);

  /// release with an exact end instead of a duration.  Callers cancelling
  /// part of a reservation MUST pass the end breakpoint they reserved with
  /// (see header comment on interval-exact endpoints).
  void release_until(Time start, Time end, std::span<const double> demand);

  /// Compacts every segment strictly before the one containing t into the
  /// leading segment (which keeps that segment's usage).  The profile as a
  /// function of time is preserved on [b, +inf) where b <= t is the start
  /// of t's segment; queries below b return the flattened value and are
  /// only meaningful to callers that never look into the committed past
  /// (the engine's event clock guarantees starts >= now).
  void prune_before(Time t);

  /// Largest t ever passed to prune_before() (0 if never pruned): queries
  /// at or after this bound are exact.
  Time pruned_before() const noexcept { return pruned_before_; }

  /// Latest breakpoint (== end of the last live reservation), 0 when empty.
  Time horizon() const noexcept { return times_.back(); }

  /// earliest_fit work done so far (see FitCounters).
  const FitCounters& fit_counters() const noexcept { return fit_counters_; }

  /// Serializes the timeline (breakpoints, usage rows, headroom, prune
  /// bound) into an engine snapshot; the scan hint and the earliest_fit
  /// memo are pure caches, reset on restore.  See docs/RECOVERY.md.
  void save_state(recovery::StateWriter& w) const;
  void restore_state(recovery::StateReader& r);

 private:
  /// Index of the segment whose interval contains t.  t < 0 maps to
  /// segment 0.  Starts from the scan hint (last segment returned) and
  /// falls back to binary search, so monotone probe sequences are
  /// amortized O(1).
  std::size_t segment_of(Time t) const;

  /// Ensures a breakpoint exactly at t (splitting a segment if needed);
  /// returns its index.
  std::size_t ensure_breakpoint(Time t);

  /// Shared add-demand implementation behind reserve / force_reserve.
  /// Returns the affected segment range [first, last).
  std::pair<std::size_t, std::size_t> add(Time start, Time end,
                                          std::span<const double> demand);

  /// One earliest_fit memo class: the hash of its key, an exact demand row
  /// and tolerance, the largest not_before recorded for it, and its
  /// (duration, answer) staircase, both strictly increasing.
  struct FitClass {
    std::uint64_t key;
    std::vector<double> demand;
    double tolerance;
    Time floor;
    std::vector<std::pair<Time, Time>> steps;
  };

  /// The memo class of (demand, tolerance), created on first use; nullptr
  /// once the profile holds kMaxFitClasses other classes.
  FitClass* fit_class(std::span<const double> demand, double tolerance) const;

  void clear_fit_memo() const {
    fit_memo_.clear();
    fit_slots_.clear();
  }

  /// Erases breakpoint i (merging segment i into segment i-1) whenever the
  /// two usage rows are bitwise equal; scans boundaries in [lo, hi].
  void coalesce_range(std::size_t lo, std::size_t hi);

  int num_resources_;
  /// Usage row width R (== num_resources_).
  std::size_t width_;
  std::vector<Time> times_;
  /// Usage rows: segment i's row is usage_[i * width_ .. (i + 1) * width_).
  std::vector<double> usage_;
  /// Per-segment min headroom: 1 - max_l usage (may be negative after
  /// force_reserve).  A segment with headroom >= max demand always fits.
  std::vector<double> headroom_;
  /// Scratch row reused by ensure_breakpoint (self-insertion into usage_
  /// is UB, and a member buffer keeps splits allocation-free).
  std::vector<double> scratch_;
  Time pruned_before_ = 0.0;
  /// Scan hint: last segment index returned by segment_of().  Purely a
  /// performance cache — any value < times_.size() is valid.
  mutable std::size_t hint_ = 0;
  /// earliest_fit lower-bound memo (see header comment); a pure cache.
  mutable std::vector<FitClass> fit_memo_;
  /// Open-addressed index over fit_memo_ by key hash: each slot is 0
  /// (empty) or a class index + 1.  Allocated by the first lookup.
  mutable std::vector<std::uint8_t> fit_slots_;
  mutable FitCounters fit_counters_;
};

}  // namespace mris
