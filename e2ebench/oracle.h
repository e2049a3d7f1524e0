// The benchmark's own account of what the program must answer: a model
// of the synthetic base tables, the view computed from them by a join
// written here (not the program's publisher or evaluator), and the
// checkers that compare the program's outputs against it. Every checker
// returns "" when the two sides agree and a description of the first
// difference otherwise; e2ebench/selftest.cc feeds each one a corrupted
// input to prove it can fail.
#ifndef XVU_E2EBENCH_ORACLE_H_
#define XVU_E2EBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/evaluator.h"
#include "src/dag/dag_view.h"
#include "src/relational/database.h"

namespace xvubench {

/// The synthetic relations C, F, H, CU, K, G as plain maps (see
/// src/workload/synthetic.h for their meaning).
struct BaseModel {
  struct CRow {
    std::array<bool, 3> b{};
    int64_t payload = 0;
  };
  std::unordered_map<int64_t, CRow> c;
  std::unordered_map<int64_t, std::array<bool, 3>> f;
  std::unordered_map<int64_t, std::vector<int64_t>> h;  ///< h1 -> sorted h2s
  std::unordered_map<int64_t, int64_t> cu;              ///< u1 -> u5
  std::unordered_map<int64_t, bool> k;                  ///< k1 -> tag
  /// grp -> (g1, tag) of every G row in the group.
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, bool>>> g;
  int64_t max_cu = 0;
  int64_t max_g = 0;

  static BaseModel Scan(const xvu::Database& db);

  /// C(id) and F(id) exist and agree on the three Boolean columns: the
  /// `sub` rule of C(id) yields children.
  bool Passing(int64_t id) const;
  /// Ids of the C children under C(id)/sub: σ over C×F×H×CU.
  std::vector<int64_t> SubChildren(int64_t id) const;
  /// g1 of every B under C(id)/buddies: σ over K×G.
  std::vector<int64_t> Buddies(int64_t id) const;
  /// Every G row of group `grp` carries the same tag.
  bool GroupUniform(int64_t grp) const;
};

/// The read shapes of the benchmark's read-path pool.
enum class ReadKind { kChildren, kChildrenDesc, kGrandchildren, kBuddies };

struct ReadPath {
  ReadKind kind = ReadKind::kChildren;
  int64_t id = 0;
  std::string xpath;
};

ReadPath MakeReadPath(ReadKind kind, int64_t id);

/// An id as an XPath string literal: "12" with its quotes.
std::string Quote(int64_t id);

/// A read answer as sorted node keys, "C(12,12)" or "B(40001)": the
/// element type and its semantic attribute, formatted identically from
/// the program's DAG and from the model.
using Answer = std::vector<std::string>;

Answer ExpectedAnswer(const BaseModel& base, const ReadPath& path);
Answer AnswerOf(const xvu::DagView& dag, const xvu::EvalResult& result);

/// (owner id, child id) for every (parent, selected) pair of a result
/// whose parents are `sub` or `buddies` nodes: the owner is the C the
/// parent node belongs to, the child the first attribute of the
/// selected C or B node.
using EdgePairs = std::set<std::pair<int64_t, int64_t>>;
EdgePairs EdgePairsOf(const xvu::DagView& dag, const xvu::EvalResult& result);

/// Canonical (parent, child) node-key pairs of a DAG, as
/// DagView::CanonicalEdges returns them.
using EdgeSet = std::set<std::pair<std::string, std::string>>;

/// Strict ancestor pairs (a, d), d reachable from a by one or more
/// edges, counted by a depth-first search from every live node.
size_t CountAncestorPairs(const xvu::DagView& dag);

std::string CheckAnswer(const Answer& got, const Answer& want);
std::string CheckEdges(const EdgeSet& maintained, const EdgeSet& republished);
/// A predicted acceptance must return OK, a predicted rejection
/// kRejected; anything else is a failure.
std::string CheckVerdict(bool predicted_accept, const xvu::Status& st);
std::string CheckPairCount(size_t reported, size_t counted);
/// `got` must hold every pair of `must_have` and none of `must_lack`.
std::string CheckPostcondition(
    const EdgePairs& got,
    const std::vector<std::pair<int64_t, int64_t>>& must_have,
    const std::vector<std::pair<int64_t, int64_t>>& must_lack);

}  // namespace xvubench

#endif  // XVU_E2EBENCH_ORACLE_H_
