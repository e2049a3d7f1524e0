#ifndef XVU_VIEWUPDATE_DELETE_H_
#define XVU_VIEWUPDATE_DELETE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/viewupdate/view_store.h"

namespace xvu {

/// One element of a group view update ∆V: a full (extended) edge-view row.
struct ViewRowOp {
  std::string view_name;
  Tuple row;  ///< (parent_id, child_id, rule outputs...)
};

/// A (table, primary key) reference to a base tuple — an element of the
/// deletable source Sr(Q, t) of Section 4.2.
struct SourceRef {
  std::string table;
  Tuple key;

  bool operator==(const SourceRef& o) const {
    return table == o.table && key == o.key;
  }
  bool operator<(const SourceRef& o) const {
    return table != o.table ? table < o.table : key < o.key;
  }
  std::string ToString() const { return table + TupleToString(key); }
};

/// Computes the deletable source Sr(Q, t) of a view row: for every FROM
/// occurrence of the view's rule, the unique base tuple identified by the
/// key columns embedded in `t` (key preservation makes these present and
/// unique).
std::vector<SourceRef> DeletableSource(const EdgeViewInfo& info,
                                       const Tuple& row);

/// Fig.9 lines 4-5, demand-driven: answers whether a base tuple is in the
/// deletable source of some view row that *remains* after ∆V ("pinned"),
/// one candidate at a time, instead of materializing the pinned set over
/// every row of every edge view. A probe for (S, k) looks, in each edge
/// view with a FROM occurrence of S, for rows carrying k at that
/// occurrence's key positions — found through the view table's lazy
/// column index on the first key position — and ignores rows in ∆V.
///
/// The constructor builds the column indexes it probes
/// (Table::EnsureColumnIndex is not thread-safe): construct on the
/// committing thread, before any parallel phase reads those tables. The
/// store must not change while the probe is in use.
class PinnedProbe {
 public:
  PinnedProbe(const ViewStore& store, const std::vector<ViewRowOp>& deletions);
  PinnedProbe(const PinnedProbe&) = delete;
  PinnedProbe& operator=(const PinnedProbe&) = delete;

  bool Pinned(const SourceRef& s) const;

 private:
  /// One FROM occurrence of a base table in an edge view's rule.
  struct Site {
    const Table* view = nullptr;
    const std::vector<size_t>* key_positions = nullptr;
    /// The view's ∆V rows, or nullptr when ∆V deletes none of them.
    const std::unordered_set<Tuple, TupleHash>* deleted = nullptr;
  };

  std::unordered_map<std::string, std::unordered_set<Tuple, TupleHash>>
      deleted_;  ///< ∆V rows per view name
  std::unordered_map<std::string, std::vector<Site>> sites_;  ///< per table
  std::unordered_set<std::string> keyless_pinned_;
};

/// The pinned test both deletion translators are parameterized over.
using PinnedFn = std::function<bool(const SourceRef&)>;

/// Algorithm delete (Fig.9): translates a group view deletion ∆V into a
/// group of base-table deletions ∆R, in PTIME (Theorem 1).
///
/// A base tuple (Sj, tj) may be deleted iff it is not in the deletable
/// source of any view row that remains after ∆V; each ∆V row needs at
/// least one such tuple, otherwise the whole group is Rejected.
///
/// The returned ∆R is deduplicated (deleting one source tuple may serve
/// several ∆V rows).
Result<RelationalUpdate> TranslateGroupDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions);

/// TranslateGroupDeletion with the pinned test supplied by the caller
/// (tests substitute a whole-view oracle for PinnedProbe).
Result<RelationalUpdate> TranslateGroupDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions, const PinnedFn& pinned);

}  // namespace xvu

#endif  // XVU_VIEWUPDATE_DELETE_H_
