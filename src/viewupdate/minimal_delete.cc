#include "src/viewupdate/minimal_delete.h"

#include <algorithm>
#include <map>
#include <queue>

namespace xvu {

namespace {

/// Greedy set cover, lazy-evaluated: a max-heap of (cached gain,
/// candidate) where a popped entry's gain is re-checked against the
/// current covered set and re-pushed when stale. Gains only ever shrink
/// as elements get covered, so the first entry whose cached gain is still
/// accurate is the true maximum — the classic lazy-greedy argument. This
/// replaces the O(rounds x candidates x covers) full rescan with
/// O(total_covers x log candidates), which is what lets the cover keep up
/// with 100k-row bases. Ties break to the smallest candidate index, same
/// as the old rescan loop, so results are unchanged.
std::vector<size_t> LazyGreedyCover(
    const std::vector<std::vector<size_t>>& covers, size_t num_elements) {
  struct Entry {
    size_t gain;
    size_t cand;
    bool operator<(const Entry& o) const {
      return gain != o.gain ? gain < o.gain : cand > o.cand;
    }
  };
  std::priority_queue<Entry> heap;
  for (size_t c = 0; c < covers.size(); ++c) {
    if (!covers[c].empty()) heap.push(Entry{covers[c].size(), c});
  }
  std::vector<uint8_t> covered(num_elements, 0);
  std::vector<size_t> picked;
  size_t remaining = num_elements;
  while (remaining > 0 && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    size_t gain = 0;
    for (size_t e : covers[top.cand]) gain += covered[e] == 0 ? 1 : 0;
    if (gain == 0) continue;
    if (gain != top.gain) {
      heap.push(Entry{gain, top.cand});  // stale: re-rank and retry
      continue;
    }
    picked.push_back(top.cand);
    for (size_t e : covers[top.cand]) {
      if (!covered[e]) {
        covered[e] = 1;
        --remaining;
      }
    }
  }
  return picked;
}

/// Exact minimum set cover by depth-first branch and bound over elements
/// (∆V rows), visited fewest-candidates-first so forced choices surface
/// early, and seeded with the greedy solution as the initial upper bound
/// so the size prune engages from the first branch.
struct ExactCover {
  // candidate_of[e] = candidate indices usable for element e.
  std::vector<std::vector<size_t>> candidate_of;
  // covers[c] = elements covered by candidate c.
  std::vector<std::vector<size_t>> covers;
  size_t num_elements = 0;

  std::vector<size_t> order;  // elements, fewest candidates first
  std::vector<uint8_t> chosen;
  std::vector<size_t> cover_count;  // per element
  std::vector<size_t> best;
  size_t chosen_count = 0;

  /// Anytime budget: the search is exact when it completes, but worst
  /// case exponential; after this many Dfs nodes it unwinds and returns
  /// the best cover found so far — never worse than the greedy seed it
  /// starts from.
  static constexpr size_t kNodeBudget = size_t{1} << 22;
  size_t nodes = 0;
  Deadline deadline;

  void Dfs(size_t pos, std::vector<size_t>* current) {
    if (++nodes > kNodeBudget) return;
    // Deadline expiry exhausts the node budget: the search unwinds
    // through the same anytime path and returns its incumbent. Polled
    // every ~1k nodes — a steady_clock read costs tens of ns.
    if ((nodes & 1023) == 0 && deadline.expired()) {
      nodes = kNodeBudget + 1;
      return;
    }
    while (pos < num_elements && cover_count[order[pos]] > 0) ++pos;
    if (pos == num_elements) {
      if (best.empty() || current->size() < best.size()) best = *current;
      return;
    }
    if (!best.empty() && current->size() + 1 >= best.size()) return;
    for (size_t c : candidate_of[order[pos]]) {
      if (chosen[c]) continue;
      chosen[c] = 1;
      current->push_back(c);
      for (size_t e : covers[c]) ++cover_count[e];
      Dfs(pos + 1, current);
      for (size_t e : covers[c]) --cover_count[e];
      current->pop_back();
      chosen[c] = 0;
    }
  }

  std::vector<size_t> Solve(const std::vector<size_t>& greedy_seed) {
    chosen.assign(covers.size(), 0);
    cover_count.assign(num_elements, 0);
    order.resize(num_elements);
    for (size_t e = 0; e < num_elements; ++e) order[e] = e;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return candidate_of[a].size() < candidate_of[b].size();
    });
    best = greedy_seed;
    std::vector<size_t> current;
    Dfs(0, &current);
    return best;
  }
};

}  // namespace

Result<RelationalUpdate> TranslateMinimalDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions,
    const MinimalDeleteOptions& options) {
  PinnedProbe probe(store, deletions);
  return TranslateMinimalDeletion(
      store, base, deletions, options,
      [&probe](const SourceRef& s) { return probe.Pinned(s); });
}

Result<RelationalUpdate> TranslateMinimalDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions,
    const MinimalDeleteOptions& options, const PinnedFn& pinned) {
  XVU_RETURN_NOT_OK(
      CheckDeadline(options.deadline, "minimal-deletion translation"));
  for (const ViewRowOp& op : deletions) {
    if (store.GetEdgeView(op.view_name) == nullptr) {
      return Status::NotFound("edge view " + op.view_name);
    }
  }

  // Build the cover instance: elements = ∆V rows; candidates = distinct
  // unpinned source tuples.
  std::map<SourceRef, size_t> candidate_index;
  std::vector<SourceRef> candidates;
  ExactCover cover;
  cover.num_elements = deletions.size();
  cover.candidate_of.resize(deletions.size());
  for (size_t e = 0; e < deletions.size(); ++e) {
    const ViewRowOp& op = deletions[e];
    const EdgeViewInfo* info = store.GetEdgeView(op.view_name);
    bool any = false;
    for (SourceRef& s : DeletableSource(*info, op.row)) {
      if (pinned(s)) continue;
      any = true;
      auto [it, fresh] = candidate_index.emplace(s, candidates.size());
      if (fresh) {
        candidates.push_back(s);
        cover.covers.emplace_back();
      }
      cover.candidate_of[e].push_back(it->second);
      cover.covers[it->second].push_back(e);
    }
    if (!any) {
      return Status::Rejected(
          "view deletion of " + TupleToString(op.row) + " from " +
          op.view_name + " is untranslatable (no side-effect-free source)");
    }
  }

  // Greedy first (near-linear); exact branch-and-bound refines it on
  // small-enough instances, using the greedy cardinality as its initial
  // upper bound.
  std::vector<size_t> picked =
      LazyGreedyCover(cover.covers, deletions.size());
  if (candidates.size() <= options.exact_threshold) {
    cover.deadline = options.deadline;
    picked = cover.Solve(picked);
  }

  RelationalUpdate dr;
  for (size_t c : picked) {
    const SourceRef& s = candidates[c];
    const Table* t = base.GetTable(s.table);
    if (t == nullptr) return Status::NotFound("table " + s.table);
    const Tuple* full = t->FindByKey(s.key);
    if (full == nullptr) {
      return Status::Internal("source tuple " + s.ToString() + " vanished");
    }
    dr.ops.push_back(TableOp{TableOp::Kind::kDelete, s.table, *full});
  }
  return dr;
}

}  // namespace xvu
