#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "src/atg/publisher.h"
#include "src/common/rng.h"
#include "src/core/evaluator.h"
#include "src/workload/registrar.h"
#include "src/xpath/parser.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

Path P(const std::string& s) {
  auto p = ParseXPath(s);
  EXPECT_TRUE(p.ok()) << s << ": " << p.status().ToString();
  return p.ok() ? *p : Path{};
}

/// Independent oracle: direct recursive evaluation (no topological DP, no
/// reachability matrix). Because the paper's filters only look downward,
/// a filter's value at a tree occurrence equals its value at the DAG node,
/// so the oracle can work on DAG node sets directly.
class NaiveEval {
 public:
  explicit NaiveEval(const DagView* dag) : dag_(dag) {}

  std::set<NodeId> Eval(const Path& p) {
    std::set<NodeId> cur = {dag_->root()};
    for (const NormalStep& s : Normalize(p).steps) {
      std::set<NodeId> next;
      switch (s.kind) {
        case NormalStep::Kind::kFilter:
          for (NodeId v : cur) {
            if (Filter(*s.filter, v)) next.insert(v);
          }
          break;
        case NormalStep::Kind::kLabel:
          for (NodeId v : cur) {
            for (NodeId c : dag_->children(v)) {
              if (dag_->node(c).type == s.label) next.insert(c);
            }
          }
          break;
        case NormalStep::Kind::kWildcard:
          for (NodeId v : cur) {
            for (NodeId c : dag_->children(v)) next.insert(c);
          }
          break;
        case NormalStep::Kind::kDescOrSelf:
          for (NodeId v : cur) DescOrSelf(v, &next);
          break;
      }
      cur = std::move(next);
    }
    return cur;
  }

 private:
  void DescOrSelf(NodeId v, std::set<NodeId>* out) {
    if (!out->insert(v).second) return;
    for (NodeId c : dag_->children(v)) DescOrSelf(c, out);
  }

  bool Filter(const FilterExpr& q, NodeId v) {
    switch (q.kind()) {
      case FilterExpr::Kind::kLabelEq:
        return dag_->node(v).type == q.label();
      case FilterExpr::Kind::kAnd:
        return Filter(*q.lhs(), v) && Filter(*q.rhs(), v);
      case FilterExpr::Kind::kOr:
        return Filter(*q.lhs(), v) || Filter(*q.rhs(), v);
      case FilterExpr::Kind::kNot:
        return !Filter(*q.lhs(), v);
      case FilterExpr::Kind::kPath:
        return !RelEval(q.path(), v).empty();
      case FilterExpr::Kind::kPathEq: {
        for (NodeId u : RelEval(q.path(), v)) {
          if (dag_->TextOf(u) == q.value()) return true;
        }
        return false;
      }
    }
    return false;
  }

  std::set<NodeId> RelEval(const Path& p, NodeId from) {
    std::set<NodeId> cur = {from};
    for (const NormalStep& s : Normalize(p).steps) {
      std::set<NodeId> next;
      switch (s.kind) {
        case NormalStep::Kind::kFilter:
          for (NodeId v : cur) {
            if (Filter(*s.filter, v)) next.insert(v);
          }
          break;
        case NormalStep::Kind::kLabel:
          for (NodeId v : cur) {
            for (NodeId c : dag_->children(v)) {
              if (dag_->node(c).type == s.label) next.insert(c);
            }
          }
          break;
        case NormalStep::Kind::kWildcard:
          for (NodeId v : cur) {
            for (NodeId c : dag_->children(v)) next.insert(c);
          }
          break;
        case NormalStep::Kind::kDescOrSelf:
          for (NodeId v : cur) DescOrSelf(v, &next);
          break;
      }
      cur = std::move(next);
    }
    return cur;
  }

  const DagView* dag_;
};

/// Test-only oracle: the whole-view bitmap filter pass the evaluator used
/// before filters became demand-driven. val(q, v) is computed for every
/// live node bottom-up over the topological order L (child steps read the
/// children's values, // steps the dynamic program desc(q, v)), and the
/// forward pass intersects the frontier with the bitmap.
class BitmapOracle {
 public:
  BitmapOracle(const DagView* dag, const TopoOrder* order,
               const Reachability* reach)
      : dag_(dag), order_(order), reach_(reach) {}

  std::vector<uint8_t> EvalFilter(const FilterExpr& q) const {
    size_t cap = dag_->capacity();
    std::vector<uint8_t> val(cap, 0);
    switch (q.kind()) {
      case FilterExpr::Kind::kLabelEq:
        for (NodeId v : order_->order()) {
          val[v] = dag_->node(v).type == q.label() ? 1 : 0;
        }
        return val;
      case FilterExpr::Kind::kAnd: {
        std::vector<uint8_t> a = EvalFilter(*q.lhs());
        std::vector<uint8_t> b = EvalFilter(*q.rhs());
        for (size_t i = 0; i < cap; ++i) val[i] = a[i] && b[i];
        return val;
      }
      case FilterExpr::Kind::kOr: {
        std::vector<uint8_t> a = EvalFilter(*q.lhs());
        std::vector<uint8_t> b = EvalFilter(*q.rhs());
        for (size_t i = 0; i < cap; ++i) val[i] = a[i] || b[i];
        return val;
      }
      case FilterExpr::Kind::kNot: {
        std::vector<uint8_t> a = EvalFilter(*q.lhs());
        for (NodeId v : order_->order()) val[v] = !a[v];
        return val;
      }
      case FilterExpr::Kind::kPath:
        return EvalPathExists(Normalize(q.path()), nullptr);
      case FilterExpr::Kind::kPathEq:
        return EvalPathExists(Normalize(q.path()), &q.value());
    }
    return val;
  }

  /// The forward trace reached[0..n], every level materialized.
  std::vector<DenseNodeSet> Forward(const NormalPath& np) const {
    size_t cap = dag_->capacity();
    std::vector<DenseNodeSet> reached;
    reached.emplace_back(cap);
    if (dag_->root() != kInvalidNode) reached[0].Add(dag_->root());
    for (const NormalStep& s : np.steps) {
      const DenseNodeSet& cur = reached.back();
      DenseNodeSet next(cap);
      switch (s.kind) {
        case NormalStep::Kind::kFilter:
          if (!cur.items.empty()) {
            std::vector<uint8_t> fv = EvalFilter(*s.filter);
            for (NodeId v : cur.items) {
              if (fv[v]) next.Add(v);
            }
          }
          break;
        case NormalStep::Kind::kLabel:
        case NormalStep::Kind::kWildcard:
          for (NodeId v : cur.items) {
            for (NodeId c : dag_->children(v)) {
              if (s.kind == NormalStep::Kind::kLabel &&
                  dag_->node(c).type != s.label) {
                continue;
              }
              next.Add(c);
            }
          }
          break;
        case NormalStep::Kind::kDescOrSelf:
          for (NodeId v : cur.items) {
            next.Add(v);
            for (NodeId d : reach_->Descendants(v)) next.Add(d);
          }
          break;
      }
      reached.push_back(std::move(next));
    }
    return reached;
  }

 private:
  std::vector<uint8_t> EvalPathExists(const NormalPath& np,
                                      const std::string* text_eq) const {
    size_t cap = dag_->capacity();
    std::vector<uint8_t> next(cap, 0);
    for (NodeId v : order_->order()) {
      next[v] = text_eq == nullptr || dag_->TextOf(v) == *text_eq ? 1 : 0;
    }
    for (size_t i = np.steps.size(); i > 0; --i) {
      const NormalStep& s = np.steps[i - 1];
      std::vector<uint8_t> cur(cap, 0);
      switch (s.kind) {
        case NormalStep::Kind::kFilter: {
          std::vector<uint8_t> fv = EvalFilter(*s.filter);
          for (NodeId v : order_->order()) cur[v] = fv[v] && next[v];
          break;
        }
        case NormalStep::Kind::kLabel:
        case NormalStep::Kind::kWildcard:
          for (NodeId v : order_->order()) {
            for (NodeId c : dag_->children(v)) {
              if (next[c] && (s.kind == NormalStep::Kind::kWildcard ||
                              dag_->node(c).type == s.label)) {
                cur[v] = 1;
                break;
              }
            }
          }
          break;
        case NormalStep::Kind::kDescOrSelf:
          // desc(q, v) = next(v) or some child's desc(q, c); L lists
          // descendants first, so every child is final before its parents.
          for (NodeId v : order_->order()) {
            if (next[v]) {
              cur[v] = 1;
              continue;
            }
            for (NodeId c : dag_->children(v)) {
              if (cur[c]) {
                cur[v] = 1;
                break;
              }
            }
          }
          break;
      }
      next = std::move(cur);
    }
    return next;
  }

  const DagView* dag_;
  const TopoOrder* order_;
  const Reachability* reach_;
};

struct EvalFixture {
  DagView dag;
  TopoOrder topo;
  Reachability reach;

  explicit EvalFixture(DagView d) : dag(std::move(d)) {
    auto t = TopoOrder::Compute(dag);
    EXPECT_TRUE(t.ok());
    topo = std::move(*t);
    reach = Reachability::Compute(dag, topo);
  }

  std::set<NodeId> Selected(const Path& p) {
    XPathEvaluator ev(&dag, &reach);
    auto r = ev.Evaluate(p);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::set<NodeId>(r->selected.begin(), r->selected.end());
  }
};

DagView RegistrarDag() {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  Publisher pub(&*atg, &*db);
  auto dag = pub.PublishAll(nullptr);
  EXPECT_TRUE(dag.ok()) << dag.status().ToString();
  return std::move(*dag);
}

TEST(Evaluator, PaperP0SelectsPrereqBelowCS650) {
  EvalFixture f(RegistrarDag());
  auto sel =
      f.Selected(P("course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq"));
  ASSERT_EQ(sel.size(), 1u);
  NodeId prereq320 = f.dag.FindNode("prereq", {Value::Str("CS320")});
  EXPECT_EQ(*sel.begin(), prereq320);
}

TEST(Evaluator, RecursiveDescentFindsAllStudents) {
  EvalFixture f(RegistrarDag());
  auto sel = f.Selected(P("//student"));
  EXPECT_EQ(sel.size(), 3u);
  auto s02 = f.Selected(P("//student[ssn=\"S02\"]"));
  EXPECT_EQ(s02.size(), 1u);
}

TEST(Evaluator, Example4DeleteTarget) {
  // //course[cno=CS320]//student[ssn=S02]
  EvalFixture f(RegistrarDag());
  auto sel =
      f.Selected(P("//course[cno=\"CS320\"]//student[ssn=\"S02\"]"));
  ASSERT_EQ(sel.size(), 1u);
  NodeId s02 = f.dag.FindNode(
      "student", {Value::Str("S02"), Value::Str("Bob")});
  EXPECT_EQ(*sel.begin(), s02);
}

TEST(Evaluator, Example5ParentEdges) {
  // delete //student[ssn=S02]: S02 is enrolled in CS320 and CS240, so
  // Ep(r) holds both takenBy parents (∆V2 of Example 5).
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  auto r = ev.Evaluate(P("//student[ssn=\"S02\"]"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  EXPECT_EQ(r->parent_edges.size(), 2u);
  for (const auto& [u, v] : r->parent_edges) {
    EXPECT_EQ(f.dag.node(u).type, "takenBy");
    EXPECT_EQ(v, r->selected[0]);
  }
}

TEST(Evaluator, ParentEdgesAfterChildStep) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // CS140 under the prereq of CS320 only (not the CS240 occurrence).
  auto r = ev.Evaluate(
      P("course[cno=\"CS320\"]/prereq/course[cno=\"CS140\"]"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  ASSERT_EQ(r->parent_edges.size(), 1u);
  NodeId parent = r->parent_edges[0].first;
  EXPECT_EQ(f.dag.node(parent).type, "prereq");
  EXPECT_EQ(f.dag.node(parent).attr[0], Value::Str("CS320"));
}

TEST(Evaluator, SideEffectsDetectedForSharedSubtrees) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // CS140 below CS320 also hangs under CS240's prereq and the root:
  // updating it through this path has side effects.
  auto r = ev.Evaluate(
      P("course[cno=\"CS320\"]/prereq/course[cno=\"CS140\"]"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_side_effects());
  // The off-path parents show up in S.
  bool found_other_prereq = false;
  for (NodeId s : r->side_effect_nodes) {
    if (f.dag.node(s).type == "prereq" &&
        f.dag.node(s).attr[0] == Value::Str("CS240")) {
      found_other_prereq = true;
    }
  }
  EXPECT_TRUE(found_other_prereq);
}

TEST(Evaluator, NoFalseSideEffectsOnUnsharedPath) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // The takenBy node of CS650 is unique to CS650.
  auto r = ev.Evaluate(P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  EXPECT_FALSE(r->has_side_effects());
}

TEST(Evaluator, WildcardAndLabelFilters) {
  EvalFixture f(RegistrarDag());
  auto all_children = f.Selected(P("course[cno=\"CS650\"]/*"));
  EXPECT_EQ(all_children.size(), 4u);
  auto only_prereq =
      f.Selected(P("course[cno=\"CS650\"]/*[label()=prereq]"));
  EXPECT_EQ(only_prereq.size(), 1u);
}

TEST(Evaluator, BooleanFilterCombinations) {
  EvalFixture f(RegistrarDag());
  auto both = f.Selected(
      P("//course[prereq/course and takenBy/student[ssn=\"S02\"]]"));
  // CS320 (has prereq CS140, taken by S02) and CS240 (prereq CS140,
  // taken by S02).
  EXPECT_EQ(both.size(), 2u);
  auto neg = f.Selected(P("//course[not(prereq/course)]"));
  // CS140 has no prerequisites.
  ASSERT_EQ(neg.size(), 1u);
  EXPECT_EQ(f.dag.node(*neg.begin()).attr[0], Value::Str("CS140"));
}

TEST(Evaluator, EmptySelectionOnNoMatch) {
  EvalFixture f(RegistrarDag());
  EXPECT_TRUE(f.Selected(P("//course[cno=\"CS777\"]")).empty());
  EXPECT_TRUE(f.Selected(P("student/course")).empty());
}

TEST(Evaluator, SelfPathSelectsRoot) {
  EvalFixture f(RegistrarDag());
  auto sel = f.Selected(P("."));
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(*sel.begin(), f.dag.root());
}

TEST(Evaluator, MatchesNaiveOracleOnRegistrar) {
  EvalFixture f(RegistrarDag());
  NaiveEval naive(&f.dag);
  for (const char* q : {
           "//course", "//student", "course/prereq/course",
           "//course[cno=\"CS320\"]//student",
           "course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq",
           "//*[label()=takenBy]", "//course[not(takenBy/student)]",
           "course[prereq/course[prereq/course]]",
           "//student[ssn=\"S02\" or ssn=\"S03\"]", "*/*", "//*",
           "course//course", "//takenBy/student[name=\"Alice\"]",
       }) {
    Path p = P(q);
    auto expected = naive.Eval(p);
    auto got = f.Selected(p);
    EXPECT_EQ(got, expected) << q;
  }
}

TEST(Evaluator, MatchesNaiveOracleOnRandomDags) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EvalFixture f(RandomDag(60, 0.4, seed));
    NaiveEval naive(&f.dag);
    for (const char* q : {
             "//a", "//b", "a/b", "//a/b", "//a//b", "*",
             "//a[b]", "//b[not(a)]", "//*[label()=a]",
             "//a[.=\"7\"]", "//b[a or b]", "a//b//a",
         }) {
      Path p = P(q);
      EXPECT_EQ(f.Selected(p), naive.Eval(p))
          << q << " seed " << seed;
    }
  }
}

/// Random paths with nested and/or/not filters, // inside filters, and
/// .="v" comparisons drawn from the DAG's own text values (multi-field
/// attributes included).
class RandomPathGen {
 public:
  RandomPathGen(const DagView& dag, uint64_t seed) : rng_(seed) {
    std::set<std::string> labels;
    for (NodeId v : dag.LiveNodes()) {
      labels.insert(dag.node(v).type);
      if (rng_.Chance(0.2)) values_.push_back(dag.TextOf(v));
    }
    labels_.assign(labels.begin(), labels.end());
    values_.push_back("no such value");
  }

  Path TopLevel() { return RandPath(/*depth=*/2, /*relative=*/false); }

 private:
  Path RandPath(int depth, bool relative) {
    Path p;
    size_t n = 1 + rng_.Below(3);
    for (size_t i = 0; i < n; ++i) {
      PathStep st;
      switch (rng_.Below(relative && i == 0 ? 5 : 4)) {
        case 0:
        case 1:
          st.axis = PathStep::Axis::kChild;
          st.label = Label();
          break;
        case 2:
          st.axis = PathStep::Axis::kChild;
          st.wildcard = true;
          break;
        case 3:
          st.axis = PathStep::Axis::kDescOrSelf;
          break;
        default:
          st.axis = PathStep::Axis::kSelf;
          break;
      }
      while (depth > 0 && rng_.Chance(0.35)) {
        st.filters.push_back(RandFilter(depth - 1));
      }
      p.steps.push_back(std::move(st));
    }
    return p;
  }

  FilterPtr RandFilter(int depth) {
    switch (rng_.Below(depth > 0 ? 7 : 4)) {
      case 0:
        return FilterExpr::MakePath(RandPath(depth, /*relative=*/true));
      case 1: {
        Path p;
        if (rng_.Chance(0.5)) {
          PathStep self;  // .="v"
          p.steps.push_back(std::move(self));
        } else {
          p = RandPath(depth, /*relative=*/true);
        }
        return FilterExpr::MakePathEq(std::move(p), Value());
      }
      case 2:
        return FilterExpr::MakeLabelEq(Label());
      case 3: {
        Path p;  // //label: a descendant-axis filter
        PathStep d;
        d.axis = PathStep::Axis::kDescOrSelf;
        p.steps.push_back(std::move(d));
        PathStep c;
        c.axis = PathStep::Axis::kChild;
        c.label = Label();
        p.steps.push_back(std::move(c));
        return FilterExpr::MakePath(std::move(p));
      }
      case 4:
        return FilterExpr::MakeAnd(RandFilter(depth - 1),
                                   RandFilter(depth - 1));
      case 5:
        return FilterExpr::MakeOr(RandFilter(depth - 1),
                                  RandFilter(depth - 1));
      default:
        return FilterExpr::MakeNot(RandFilter(depth - 1));
    }
  }

  std::string Label() { return labels_[rng_.Below(labels_.size())]; }
  std::string Value() { return values_[rng_.Below(values_.size())]; }

  Rng rng_;
  std::vector<std::string> labels_;
  std::vector<std::string> values_;
};

void ExpectMatchesOracles(EvalFixture* f, uint64_t seed, size_t paths) {
  XPathEvaluator ev(&f->dag, &f->reach);
  BitmapOracle bitmap(&f->dag, &f->topo, &f->reach);
  NaiveEval naive(&f->dag);
  RandomPathGen gen(f->dag, seed);
  size_t nonempty = 0;
  for (size_t k = 0; k < paths; ++k) {
    Path p = gen.TopLevel();
    const std::string ctx = p.ToString() + " seed " + std::to_string(seed);
    auto traced = ev.EvaluateTraced(p);
    ASSERT_TRUE(traced.ok()) << ctx;
    std::vector<DenseNodeSet> expected = bitmap.Forward(traced->np);
    ASSERT_EQ(traced->reached.size(), expected.size()) << ctx;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(traced->reached[i].items, expected[i].items)
          << ctx << " level " << i;
    }
    EvalResult want = ev.FinishFromTrace(traced->np, expected);
    EXPECT_EQ(traced->result.selected, want.selected) << ctx;
    EXPECT_EQ(traced->result.parent_edges, want.parent_edges) << ctx;
    EXPECT_EQ(traced->result.side_effect_nodes, want.side_effect_nodes)
        << ctx;
    auto plain = ev.Evaluate(p);
    ASSERT_TRUE(plain.ok()) << ctx;
    EXPECT_EQ(plain->selected, want.selected) << ctx;
    EXPECT_EQ(plain->parent_edges, want.parent_edges) << ctx;
    EXPECT_EQ(plain->side_effect_nodes, want.side_effect_nodes) << ctx;
    EXPECT_EQ(std::set<NodeId>(want.selected.begin(), want.selected.end()),
              naive.Eval(p))
        << ctx;
    if (!want.selected.empty()) ++nonempty;
  }
  // Guard against a generator that only produces empty selections.
  EXPECT_GT(nonempty, paths / 5) << "seed " << seed;
}

TEST(Evaluator, DemandDrivenFiltersMatchBitmapOracleOnRandomDags) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EvalFixture f(RandomDag(80, 0.4, seed));
    ExpectMatchesOracles(&f, seed, 150);
  }
}

TEST(Evaluator, DemandDrivenFiltersMatchBitmapOracleOnRegistrar) {
  EvalFixture f(RegistrarDag());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectMatchesOracles(&f, seed, 150);
  }
}

TEST(Evaluator, TextEqualityOnPcdata) {
  EvalFixture f(RegistrarDag());
  // cno nodes carry their text as the single attribute field.
  auto sel = f.Selected(P("//cno[.=\"CS320\"]"));
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(f.dag.TextOf(*sel.begin()), "CS320");
}

}  // namespace
}  // namespace xvu
