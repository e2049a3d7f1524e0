#ifndef XVU_VIEWUPDATE_MINIMAL_DELETE_H_
#define XVU_VIEWUPDATE_MINIMAL_DELETE_H_

#include <vector>

#include "src/common/deadline.h"
#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/view_store.h"

namespace xvu {

struct MinimalDeleteOptions {
  /// Instances with at most this many distinct candidate source tuples
  /// are refined by exact branch-and-bound after the greedy pass.
  size_t exact_threshold = 24;
  /// Wall-clock budget. Already-expired on entry => kDeadlineExceeded;
  /// expiry during the branch-and-bound degrades the anytime search to
  /// its incumbent (never worse than the greedy seed) instead of
  /// failing. Default infinite: identical behaviour to no deadline.
  Deadline deadline;
};

/// The minimal view deletion problem (Section 4.2): among all valid ∆R's
/// for a group deletion ∆V, find one with the fewest tuple deletions.
/// NP-complete even under key preservation (Theorem 3, by reduction from
/// minimum set cover), so every instance first runs the lazy-greedy
/// set-cover heuristic (ln(n)-approximate; max-heap with stale-gain
/// re-check, O(total_covers x log candidates)), and instances with at
/// most `exact_threshold` distinct candidate source tuples are then
/// solved exactly by branch-and-bound — elements visited
/// fewest-candidates-first, greedy cardinality as the initial upper
/// bound, an anytime node budget bounding the worst case (on
/// exhaustion the best cover found so far is returned, never worse
/// than the greedy seed).
///
/// Semantics match TranslateGroupDeletion: every ∆V row must lose at least
/// one side-effect-free source tuple; returns Rejected when impossible.
Result<RelationalUpdate> TranslateMinimalDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions,
    const MinimalDeleteOptions& options = {});

/// TranslateMinimalDeletion with the pinned test supplied by the caller
/// (tests substitute a whole-view oracle for PinnedProbe).
Result<RelationalUpdate> TranslateMinimalDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions,
    const MinimalDeleteOptions& options, const PinnedFn& pinned);

}  // namespace xvu

#endif  // XVU_VIEWUPDATE_MINIMAL_DELETE_H_
