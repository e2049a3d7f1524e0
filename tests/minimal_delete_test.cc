#include "src/viewupdate/minimal_delete.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/system.h"
#include "src/viewupdate/delete.h"
#include "src/workload/registrar.h"
#include "src/workload/synthetic.h"

namespace xvu {
namespace {

MinimalDeleteOptions Threshold(size_t exact_threshold) {
  MinimalDeleteOptions o;
  o.exact_threshold = exact_threshold;
  return o;
}

/// Fuzz harness over the synthetic dataset: random parent subsets of the
/// "sub" edge view become group deletions, then both solver paths (greedy
/// only via exact_threshold = 0, and branch-and-bound via a huge
/// threshold) are validated against the paper's two correctness
/// obligations — every ∆V row loses a source, no remaining view row does —
/// and the exact cardinality must never exceed the greedy one.
class MinimalDeleteFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_c = 120;
    spec.seed = 11;
    auto db = MakeSyntheticDatabase(spec);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto atg = MakeSyntheticAtg(*db);
    ASSERT_TRUE(atg.ok()) << atg.status().ToString();
    auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    sys_ = std::move(*sys);

    // Group the sub edge view's rows by parent id (row[0]).
    const std::string vn = ViewStore::EdgeViewName("sub", "C");
    const Table* vt = sys_->store().db().GetTable(vn);
    ASSERT_NE(vt, nullptr);
    vt->ForEach([&](const Tuple& row) {
      by_parent_[row[0]].push_back(ViewRowOp{vn, row});
    });
    ASSERT_GT(by_parent_.size(), 10u);
  }

  /// The ∆R as a set of (table, full row) pairs.
  static std::set<std::pair<std::string, Tuple>> OpSet(
      const RelationalUpdate& dr) {
    std::set<std::pair<std::string, Tuple>> out;
    for (const TableOp& op : dr.ops) {
      EXPECT_EQ(op.kind, TableOp::Kind::kDelete);
      out.emplace(op.table, op.row);
    }
    return out;
  }

  /// True when some deletable source of `row` is deleted by `dr`.
  bool LosesSource(const ViewRowOp& op,
                   const std::set<std::pair<std::string, Tuple>>& dr) const {
    const EdgeViewInfo* info = sys_->store().GetEdgeView(op.view_name);
    EXPECT_NE(info, nullptr);
    for (const SourceRef& s : DeletableSource(*info, op.row)) {
      const Table* t = sys_->database().GetTable(s.table);
      EXPECT_NE(t, nullptr);
      const Tuple* full = t->FindByKey(s.key);
      EXPECT_NE(full, nullptr);
      if (dr.count({s.table, *full}) > 0) return true;
    }
    return false;
  }

  /// Asserts the translation is valid: every ∆V row loses at least one
  /// source, and no view row outside ∆V loses any.
  void ValidateTranslation(const std::vector<ViewRowOp>& dv,
                           const RelationalUpdate& dr) {
    auto dr_set = OpSet(dr);
    std::set<std::pair<std::string, Tuple>> dv_set;
    for (const ViewRowOp& op : dv) dv_set.emplace(op.view_name, op.row);
    for (const ViewRowOp& op : dv) {
      EXPECT_TRUE(LosesSource(op, dr_set))
          << "uncovered ∆V row " << TupleToString(op.row);
    }
    for (const std::string& name : sys_->store().EdgeViewNames()) {
      const Table* vt = sys_->store().db().GetTable(name);
      if (vt == nullptr) continue;
      vt->ForEach([&](const Tuple& row) {
        if (dv_set.count({name, row}) > 0) return;
        EXPECT_FALSE(LosesSource(ViewRowOp{name, row}, dr_set))
            << "side effect on remaining row " << TupleToString(row)
            << " of " << name;
      });
    }
  }

  std::unique_ptr<UpdateSystem> sys_;
  std::map<Value, std::vector<ViewRowOp>> by_parent_;
};

TEST_F(MinimalDeleteFuzzTest, ExactNeverWorseThanGreedyAndBothValid) {
  std::vector<Value> parents;
  for (const auto& [pid, rows] : by_parent_) parents.push_back(pid);
  Rng rng(2024);
  int translatable = 0;
  for (int round = 0; round < 30; ++round) {
    // 1..4 distinct random parents; delete every sub row under each.
    size_t take = 1 + rng.Below(4);
    std::set<size_t> picked_idx;
    while (picked_idx.size() < take) {
      picked_idx.insert(static_cast<size_t>(rng.Below(parents.size())));
    }
    std::vector<ViewRowOp> dv;
    for (size_t i : picked_idx) {
      const auto& rows = by_parent_[parents[i]];
      dv.insert(dv.end(), rows.begin(), rows.end());
    }
    auto greedy = TranslateMinimalDeletion(sys_->store(), sys_->database(),
                                           dv, Threshold(0));
    auto exact = TranslateMinimalDeletion(sys_->store(), sys_->database(),
                                          dv, Threshold(1u << 20));
    // Feasibility is decided before either solver runs: both paths must
    // agree on it.
    ASSERT_EQ(greedy.ok(), exact.ok()) << "round " << round;
    if (!greedy.ok()) {
      EXPECT_TRUE(greedy.status().IsRejected()) << greedy.status().ToString();
      continue;
    }
    ++translatable;
    EXPECT_LE(exact->ops.size(), greedy->ops.size()) << "round " << round;
    EXPECT_GE(exact->ops.size(), 1u);
    ValidateTranslation(dv, *greedy);
    ValidateTranslation(dv, *exact);
  }
  // The fuzz is vacuous if everything gets rejected.
  EXPECT_GE(translatable, 10);
}

TEST_F(MinimalDeleteFuzzTest, SharedChildrenBenefitFromExactCover) {
  // Deleting ALL sub rows of many parents at once maximizes candidate
  // sharing (CU children hit by several H edges): the exact solution must
  // stay within the greedy bound and both remain valid.
  std::vector<ViewRowOp> dv;
  size_t taken = 0;
  for (const auto& [pid, rows] : by_parent_) {
    dv.insert(dv.end(), rows.begin(), rows.end());
    if (++taken == 8) break;
  }
  auto greedy = TranslateMinimalDeletion(sys_->store(), sys_->database(), dv,
                                         Threshold(0));
  auto exact = TranslateMinimalDeletion(sys_->store(), sys_->database(), dv,
                                        Threshold(1u << 20));
  ASSERT_EQ(greedy.ok(), exact.ok());
  if (!greedy.ok()) GTEST_SKIP() << "instance untranslatable: "
                                 << greedy.status().ToString();
  EXPECT_LE(exact->ops.size(), greedy->ops.size());
  ValidateTranslation(dv, *greedy);
  ValidateTranslation(dv, *exact);
}

/// Test-only oracle for Fig.9 lines 4-5: the whole-view pinned set the
/// translators materialized before PinnedProbe — the deletable sources of
/// every edge-view row that ∆V does not delete.
std::set<SourceRef> FullScanPinned(const ViewStore& store,
                                   const std::vector<ViewRowOp>& dv) {
  std::map<std::string, std::set<Tuple>> deleted;
  for (const ViewRowOp& op : dv) deleted[op.view_name].insert(op.row);
  std::set<SourceRef> pinned;
  for (const std::string& name : store.EdgeViewNames()) {
    const EdgeViewInfo* info = store.GetEdgeView(name);
    const Table* vt = store.db().GetTable(name);
    if (vt == nullptr) continue;
    vt->ForEach([&](const Tuple& row) {
      if (deleted[name].count(row) > 0) return;
      for (SourceRef& s : DeletableSource(*info, row)) {
        pinned.insert(std::move(s));
      }
    });
  }
  return pinned;
}

void ExpectSameTranslation(const Result<RelationalUpdate>& got,
                           const Result<RelationalUpdate>& want,
                           const std::string& ctx) {
  ASSERT_EQ(got.ok(), want.ok()) << ctx;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << ctx;
    EXPECT_EQ(got.status().message(), want.status().message()) << ctx;
    return;
  }
  ASSERT_EQ(got->ops.size(), want->ops.size()) << ctx;
  for (size_t i = 0; i < got->ops.size(); ++i) {
    EXPECT_EQ(got->ops[i].kind, want->ops[i].kind) << ctx;
    EXPECT_EQ(got->ops[i].table, want->ops[i].table) << ctx;
    EXPECT_EQ(got->ops[i].row, want->ops[i].row) << ctx;
  }
}

/// Random group deletions over every edge view of `sys` — whole parent
/// groups (usually translatable) mixed with single witness rows whose
/// sources other rows share (often rejected) — translated by both
/// translators with PinnedProbe and with the full-scan oracle. Returns
/// the number of translatable and rejected rounds.
std::pair<int, int> DiffDeletionTranslators(const UpdateSystem& sys,
                                            uint64_t seed, int rounds) {
  const ViewStore& store = sys.store();
  std::vector<std::vector<ViewRowOp>> groups;  // one per (view, parent)
  std::vector<ViewRowOp> rows;
  for (const std::string& name : store.EdgeViewNames()) {
    std::map<Value, size_t> group_of;
    store.db().GetTable(name)->ForEach([&](const Tuple& row) {
      auto [it, fresh] = group_of.emplace(row[0], groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(ViewRowOp{name, row});
      rows.push_back(ViewRowOp{name, row});
    });
  }
  Rng rng(seed);
  int ok = 0, rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<ViewRowOp> dv;
    size_t parts = 1 + rng.Below(4);
    for (size_t k = 0; k < parts; ++k) {
      if (rng.Chance(0.5)) {
        const auto& g = groups[rng.Below(groups.size())];
        dv.insert(dv.end(), g.begin(), g.end());
      } else {
        dv.push_back(rows[rng.Below(rows.size())]);
      }
    }
    const std::string ctx =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    std::set<SourceRef> oracle = FullScanPinned(store, dv);
    PinnedFn oracle_fn = [&](const SourceRef& s) {
      return oracle.count(s) > 0;
    };
    PinnedProbe probe(store, dv);
    for (const ViewRowOp& op : dv) {
      for (const SourceRef& s :
           DeletableSource(*store.GetEdgeView(op.view_name), op.row)) {
        EXPECT_EQ(probe.Pinned(s), oracle.count(s) > 0)
            << ctx << " source " << s.ToString();
      }
    }
    auto group = TranslateGroupDeletion(store, sys.database(), dv);
    ExpectSameTranslation(
        group, TranslateGroupDeletion(store, sys.database(), dv, oracle_fn),
        ctx + " group");
    for (size_t threshold : {size_t{0}, size_t{1} << 20}) {
      ExpectSameTranslation(
          TranslateMinimalDeletion(store, sys.database(), dv,
                                   Threshold(threshold)),
          TranslateMinimalDeletion(store, sys.database(), dv,
                                   Threshold(threshold), oracle_fn),
          ctx + " minimal, threshold " + std::to_string(threshold));
    }
    if (group.ok()) {
      ++ok;
    } else if (group.status().IsRejected()) {
      ++rejected;
    }
  }
  return {ok, rejected};
}

TEST_F(MinimalDeleteFuzzTest, PinnedProbeMatchesFullScanOnSynthetic) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto [ok, rejected] = DiffDeletionTranslators(*sys_, seed, 40);
    // Both outcomes must occur, or the comparison proves little.
    EXPECT_GT(ok, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

TEST(PinnedProbe, MatchesFullScanOnRegistrar) {
  auto db = MakeRegistrarDatabase();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  int ok = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto [o, r] = DiffDeletionTranslators(**sys, seed, 40);
    ok += o;
    rejected += r;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace xvu
