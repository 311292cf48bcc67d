// Pass 2: nondeterminism taint.
//
// Tracks values whose *order or identity* is implementation-defined as
// they flow through a translation unit, and flags both the sources
// themselves and any flow into an ordering-sensitive sink.
//
// Sources
//   taint-unordered    iteration over an unordered_* container: range-for,
//                      begin()/cbegin()/rbegin() iterators, std::for_each.
//                      The container is a variable declared with an
//                      unordered type in the file or, in a range-for or
//                      for_each range, any `unordered_*` identifier (a
//                      temporary, or a member declared elsewhere);
//   taint-pointer-key  ordered containers keyed by pointers (std::map<T*,..>,
//                      std::set<T*>) — iteration order is address order,
//                      which ASLR re-rolls every run — and std::hash<T*>;
//
// Flow (rule `taint-flow`)
//   * a variable initialized or assigned from a tainted expression is
//     tainted (per function body; compound assignments count);
//   * the loop variable of a range-for over a tainted container is
//     tainted, as is an iterator obtained from its begin()-family;
//   * thread_local variables are tainted at flow level only (their
//     *content* is often deterministic — e.g. a scratch pool — so mere
//     existence is not a finding, but letting one reach a sink is);
//   * a function returning a tainted value marks its callers' assignment
//     targets tainted (intra-file, one fixpoint round);
//   * a tainted value appearing in the argument list of an
//     ordering-sensitive sink — schedule commits (commit/try_commit),
//     event-queue operations (push/schedule_wakeup/record), or CSV/JSON
//     writers (write_csv/write_row/write_json/add_row/append/log_event) —
//     is a finding at the call line.
//
// The analysis is intra-file and lexical by design (see frontend.hpp);
// false positives are silenced with `// mris-analyze: allow(<rule>)`.
#pragma once

#include <vector>

#include "tools/mris_analyze/frontend.hpp"

namespace mris::analyze {

std::vector<Finding> analyze_taint(const SourceFile& file,
                                   const Options& options);

}  // namespace mris::analyze
