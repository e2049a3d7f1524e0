// Update statements of the paper's three classes over the synthetic view,
// each with the verdict the benchmark predicts for it from the base
// tables alone.
//
// Leaf inserts, leaf-edge deletes and buddy inserts go to disjoint sets
// of parents, so no op can remove a row another op relies on:
//   - a leaf insert `insert C(x, x mod 100) into ...C[cid=p]/sub` under a
//     parent p whose C-F filter holds is accepted;
//   - a leaf-edge delete `delete ...C[cid=p]/sub/C[cid=c]`, where C(c)
//     publishes no sub children, is accepted (each edge is deleted once,
//     one edge per parent);
//   - a buddy insert `insert B(g) into ...C[cid=q]/buddies` under a parent
//     with a K row is accepted; under a K-less parent (the Example 8 SAT
//     gadget) it is accepted iff the group's G tags are uniform, and once
//     one is accepted the parent has a K row.
#ifndef XVU_E2EBENCH_STREAM_H_
#define XVU_E2EBENCH_STREAM_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "e2ebench/oracle.h"

namespace xvubench {

enum class OpKind { kLeafInsert, kBuddyInsert, kLeafDelete };

/// W1: `//` with value filters; W2: `/` with value filters; W3: `/` with
/// structural and value filters (Section 5).
enum class PathClass { kW1, kW2, kW3 };

struct Op {
  OpKind kind = OpKind::kLeafInsert;
  PathClass cls = PathClass::kW1;
  int64_t parent = 0;
  /// The fresh C id (leaf insert), fresh g1 (buddy insert), or the child
  /// whose edge is deleted.
  int64_t child = 0;
  bool accept = true;  ///< predicted verdict
  std::string stmt;
};

class OpStream {
 public:
  OpStream(const BaseModel& base, uint64_t seed);

  /// Per-op stream: leaf inserts under a warm set of 64 parents, buddy
  /// inserts each under a new K-less parent (mixed-tag groups are the
  /// predicted rejections).
  Op Next(OpKind kind, PathClass cls);
  /// Batch stream: leaf inserts cycling through 8 hot parents, three in a
  /// row under each; buddy inserts cycling through 8 hot parents whose
  /// inserts are all predicted to be accepted. Cycling gives every cached
  /// path the same journal window.
  Op NextHot(OpKind kind, PathClass cls);
  /// Folds a committed op into the verdict model.
  void Commit(const Op& op);

  /// The read-path pool: paths over the parents the writes touch (so
  /// answers change across epochs) plus grandchild reads. `hot` selects
  /// the batch stream's parent sets.
  std::vector<ReadPath> ReadPool(bool hot);

 private:
  Op Make(OpKind kind, PathClass cls, int64_t parent);
  int64_t Pick(const std::vector<int64_t>& from);

  const BaseModel& base_;
  std::mt19937_64 rng_;
  std::vector<std::pair<int64_t, int64_t>> delete_edges_;  ///< in use order
  size_t next_delete_ = 0;
  std::vector<int64_t> warm_insert_;  ///< per-op leaf-insert parents
  std::vector<int64_t> hot_insert_;   ///< batch leaf-insert parents
  size_t next_hot_insert_ = 0;
  std::vector<int64_t> buddy_;        ///< per-op buddy parents, use order
  size_t next_buddy_ = 0;
  std::vector<int64_t> hot_buddy_;
  size_t next_hot_buddy_ = 0;
  std::vector<int64_t> grand_;        ///< grandchild-read parents
  std::unordered_set<int64_t> has_k_;
  int64_t fresh_c_ = 0;
  int64_t fresh_g_ = 0;
};

/// One query whose parent_edges decide the postcondition of every op in
/// `ops` of the given shape (leaf inserts and deletes, or buddy inserts):
/// `C[cid=p]/sub/C[cid=c]` or `C[cid=q]/buddies/B` for a single op,
/// `C/sub/C` or `C/buddies/B` (every edge of that shape, one evaluation
/// instead of one per op) for several. Empty when `ops` has none.
std::string CheckXPath(const std::vector<Op>& ops, bool buddies);

}  // namespace xvubench

#endif  // XVU_E2EBENCH_STREAM_H_
