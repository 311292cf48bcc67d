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
//  * earliest_fit() reads and extends an optional caller-owned lower-bound
//    memo, a FitStaircase: (duration, answer) pairs from earlier calls with
//    one demand row and tolerance, increasing in both.  A call with that
//    row, duration p and a not_before no smaller than the recorded ones
//    starts the unchanged scan at max(not_before, answer of the largest
//    recorded duration <= p).  The scan returns the minimum feasible start,
//    which never decreases as not_before or p grows or as usage is added
//    (add/force_reserve), and prune_before leaves [pruned_before(), +inf)
//    unchanged — so a recorded answer is a lower bound on today's and the
//    scan from it returns the same double.  The profile holds no memo of
//    its own: Cluster keeps one staircase per (machine, demand class),
//    hashes a job's row once per placement instead of once per machine,
//    and clears a machine's staircases when release()/release_until() or
//    restore_state() may have moved its answers earlier.  Queries below
//    pruned_before() ignore the staircase.  Staircases are never
//    serialized, so snapshots and journals do not depend on them;
//  * earliest_fit() takes a `give_up` bound (default +inf): a caller that
//    only wants a start below it — the per-machine argmin, passing the best
//    start found on an earlier machine — gets a value >= give_up as soon
//    as the staircase's lower bound or the scan's candidate start reaches it,
//    and the exact answer whenever that answer is below it.  The scan's
//    candidate never passes the answer, so the candidate it stopped at is
//    still a lower bound and is recorded as a staircase step like a full
//    answer;
//  * release() coalesces adjacent equal segments and prune_before()
//    compacts everything before the engine's committed horizon into the
//    leading segment (jobs never start in the past), keeping B proportional
//    to *live* reservations instead of all reservations ever made;
//  * fits() and available_at() are allocation-free (available_at() can
//    write into a caller span), earliest_fit() allocates only when the
//    caller's staircase grows, and reserve/release stage the split segment
//    in a reused scratch buffer;
//  * version() changes whenever the stored profile does (add, so
//    reserve/force_reserve/force_reserve_until; release/release_until;
//    prune_before when it compacts; restore_state), and never on a query.
//    available_until() writes available_at()'s row and returns the end of
//    t's segment, so a caller may keep that row for every t' in [t, end)
//    while version() is unchanged (the PQ scan's per-machine row cache).
//    The version counts the changes of one object and is never
//    serialized, so two profiles (say, one restored from a snapshot of the
//    other) may show the same version with different contents: a caller
//    keeps its cached rows for one profile object and one run.
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
#include <limits>
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
/// duration, segments those calls examined, calls whose scan started from a
/// recorded lower bound (memo hits), and calls that returned at their
/// give_up bound.  Never serialized, so they count the work of this process
/// only (a resumed run starts from zero).
struct FitCounters {
  std::uint64_t queries = 0;
  std::uint64_t segments = 0;
  std::uint64_t bounded = 0;
  std::uint64_t abandoned = 0;

  FitCounters& operator+=(const FitCounters& o) noexcept {
    queries += o.queries;
    segments += o.segments;
    bounded += o.bounded;
    abandoned += o.abandoned;
    return *this;
  }
};

/// One earliest_fit lower-bound memo (see the header comment): the largest
/// not_before recorded and a (duration, answer) staircase, both strictly
/// increasing.  Valid for one profile and one (demand row, tolerance)
/// while that profile only gains usage; its owner clears it when the
/// profile releases usage or is restored.
struct FitStaircase {
  Time floor = 0.0;
  std::vector<std::pair<Time, Time>> steps;

  void clear() noexcept {
    floor = 0.0;
    steps.clear();
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

  /// available_at(t, out), returning the end of t's segment (+inf for the
  /// last): `out` equals available_at(t') for every t' in [t, end) until
  /// version() changes.
  Time available_until(Time t, std::span<double> out) const;

  /// Bumped by every change to the stored profile, never by a query (see
  /// the header comment).  Not serialized.
  std::uint64_t version() const noexcept { return version_; }

  /// True if adding `demand` over [start, start + duration) keeps every
  /// resource within capacity 1 + tolerance.
  bool fits(Time start, Time duration, std::span<const double> demand,
            double tolerance = 1e-9) const;

  /// Earliest time s >= not_before such that `demand` fits over
  /// [s, s + duration).  Always exists when every demand entry <= 1
  /// (the job fits alone after all reservations end).  When that time is
  /// >= give_up, returns some value >= give_up instead, possibly early.
  /// `memo`, if given, is this profile's staircase for (demand, tolerance):
  /// it bounds the scan from below and records the answer.
  Time earliest_fit(Time not_before, Time duration,
                    std::span<const double> demand, double tolerance = 1e-9,
                    Time give_up = std::numeric_limits<Time>::infinity(),
                    FitStaircase* memo = nullptr) const;

  /// Adds `demand` over [start, start + duration).  Callers must check
  /// fits() first (Cluster enforces this pairing); an MRIS_ENSURE contract
  /// verifies the affected segments stay within capacity 1.
  ///
  /// Precondition of reserve, force_reserve and force_reserve_until: every
  /// demand entry is >= 0 (Job::demand lies in [0, 1]; outage blocks add
  /// 1.0).  Usage then only grows between releases, which the earliest_fit
  /// staircases rely on; demand is removed only through release().
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
  /// bound) into an engine snapshot; the scan hint is a pure cache, reset
  /// on restore.  See docs/RECOVERY.md.
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
  mutable FitCounters fit_counters_;
  std::uint64_t version_ = 0;
};

}  // namespace mris
