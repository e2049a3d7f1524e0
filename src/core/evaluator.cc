#include "src/core/evaluator.h"

namespace xvu {

bool NodeFilterEval::Eval(const FilterExpr& q, NodeId v) {
  switch (q.kind()) {
    case FilterExpr::Kind::kLabelEq:
      return dag_.node(v).type == q.label();
    case FilterExpr::Kind::kAnd:
      return Eval(*q.lhs(), v) && Eval(*q.rhs(), v);
    case FilterExpr::Kind::kOr:
      return Eval(*q.lhs(), v) || Eval(*q.rhs(), v);
    case FilterExpr::Kind::kNot:
      return !Eval(*q.lhs(), v);
    case FilterExpr::Kind::kPath:
    case FilterExpr::Kind::kPathEq: {
      PerFilter& pf = Cached(q);
      const std::string* text =
          q.kind() == FilterExpr::Kind::kPathEq ? &q.value() : nullptr;
      return Match(&pf, 0, v, text);
    }
  }
  return false;
}

NodeFilterEval::PerFilter& NodeFilterEval::Cached(const FilterExpr& q) {
  auto it = filters_.find(&q);
  if (it == filters_.end()) {
    it = filters_.emplace(&q, PerFilter{Normalize(q.path()), {}}).first;
  }
  return it->second;
}

bool NodeFilterEval::Match(PerFilter* pf, size_t i, NodeId v,
                           const std::string* text_eq) {
  if (i == pf->np.steps.size()) {
    return text_eq == nullptr || dag_.TextOf(v) == *text_eq;
  }
  uint64_t key = static_cast<uint64_t>(i) * dag_.capacity() + v;
  auto mit = pf->memo.find(key);
  if (mit != pf->memo.end()) return mit->second;
  const NormalStep& s = pf->np.steps[i];
  bool r = false;
  switch (s.kind) {
    case NormalStep::Kind::kFilter:
      r = Eval(*s.filter, v) && Match(pf, i + 1, v, text_eq);
      break;
    case NormalStep::Kind::kLabel:
      for (NodeId c : dag_.children(v)) {
        if (dag_.node(c).type == s.label && Match(pf, i + 1, c, text_eq)) {
          r = true;
          break;
        }
      }
      break;
    case NormalStep::Kind::kWildcard:
      for (NodeId c : dag_.children(v)) {
        if (Match(pf, i + 1, c, text_eq)) {
          r = true;
          break;
        }
      }
      break;
    case NormalStep::Kind::kDescOrSelf:
      // desc(q, v): a match at v or at some proper descendant (from M).
      if (Match(pf, i + 1, v, text_eq)) {
        r = true;
      } else {
        for (NodeId d : reach_.Descendants(v)) {
          if (Match(pf, i + 1, d, text_eq)) {
            r = true;
            break;
          }
        }
      }
      break;
  }
  pf->memo.emplace(key, r);
  return r;
}

std::vector<DenseNodeSet> XPathEvaluator::ForwardPass(
    const NormalPath& np, bool full_trace) const {
  size_t cap = dag_->capacity();
  size_t n = np.steps.size();
  // reached[i] = node set after step i (reached[0] = {root}). For a full
  // trace all n+1 sets are materialized even when the frontier dies out
  // early — the trace is replayed by the delta-patcher, which may revive
  // a dead frontier when new structure arrives.
  std::vector<DenseNodeSet> reached;
  reached.reserve(n + 1);
  NodeFilterEval filter_eval(*dag_, *reach_);
  reached.emplace_back(cap);
  if (dag_->root() != kInvalidNode) reached[0].Add(dag_->root());
  for (size_t i = 0; i < n; ++i) {
    const NormalStep& s = np.steps[i];
    const DenseNodeSet& cur = reached[i];
    DenseNodeSet next(cap);
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        // Only the frontier is ever asked: nodes off it cannot reach
        // the selection, so their filter values are never computed.
        for (NodeId v : cur.items) {
          if (filter_eval.Eval(*s.filter, v)) next.Add(v);
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
    if (!full_trace && reached.back().items.empty()) {
      break;  // r[[p]] = ∅ and no trace wanted: skip the dead suffix
    }
  }
  return reached;
}

Result<EvalResult> XPathEvaluator::Evaluate(const Path& p) const {
  NormalPath np = Normalize(p);
  std::vector<DenseNodeSet> reached = ForwardPass(np, /*full_trace=*/false);
  return FinishFromTrace(np, reached);
}

Result<CachedEval> XPathEvaluator::EvaluateTraced(const Path& p) const {
  CachedEval out;
  out.np = Normalize(p);
  out.reached = ForwardPass(out.np, /*full_trace=*/true);
  out.result = FinishFromTrace(out.np, out.reached);
  return out;
}

EvalResult XPathEvaluator::FinishFromTrace(
    const NormalPath& np, const std::vector<DenseNodeSet>& reached) const {
  size_t cap = dag_->capacity();
  size_t n = np.steps.size();
  EvalResult out;
  if (reached.size() <= n || reached[n].items.empty()) {
    return out;  // r[[p]] = ∅: no selection, no side effects
  }

  // Backward pruning: sel[i] ⊆ reached[i] keeps only nodes that lie on a
  // derivation of some finally selected node. Computing side effects on
  // the pruned sets avoids false positives from branches a later filter
  // discards.
  std::vector<DenseNodeSet> sel;
  sel.reserve(n + 1);
  for (size_t i = 0; i <= n; ++i) sel.emplace_back(cap);
  for (NodeId v : reached[n].items) sel[n].Add(v);
  for (size_t i = n; i > 0; --i) {
    const NormalStep& s = np.steps[i - 1];
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        for (NodeId v : sel[i].items) sel[i - 1].Add(v);
        break;
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : sel[i].items) {
          for (NodeId u : dag_->parents(v)) {
            if (reached[i - 1].Contains(u)) sel[i - 1].Add(u);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf:
        for (NodeId v : sel[i].items) {
          if (reached[i - 1].Contains(v)) sel[i - 1].Add(v);
          for (NodeId a : reach_->Ancestors(v)) {
            if (reached[i - 1].Contains(a)) sel[i - 1].Add(a);
          }
        }
        break;
    }
  }

  // Side effects: an edge into an on-path node that no selected
  // derivation uses witnesses a tree occurrence of the modified subtree
  // that p does not select (Section 3.2); its source goes into S.
  DenseNodeSet s_set(cap);
  for (size_t i = 1; i <= n; ++i) {
    const NormalStep& s = np.steps[i - 1];
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        break;  // no movement, no new incoming edges
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : sel[i].items) {
          for (NodeId u : dag_->parents(v)) {
            if (!sel[i - 1].Contains(u)) s_set.Add(u);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf: {
        // Cone = desc-or-self(sel[i-1]); every edge inside the cone is a
        // valid derivation (// accepts any descent). Nodes strictly below
        // the cone top with a parent outside the cone witness unselected
        // occurrences. The cone tops' own incoming edges belong to the
        // previous step.
        DenseNodeSet cone(cap);
        for (NodeId u : sel[i - 1].items) {
          cone.Add(u);
          for (NodeId d : reach_->Descendants(u)) cone.Add(d);
        }
        // anc-or-self(sel[i]): the nodes actually on a descent path.
        DenseNodeSet between(cap);
        for (NodeId v : sel[i].items) {
          between.Add(v);
          for (NodeId a : reach_->Ancestors(v)) between.Add(a);
        }
        for (NodeId w : cone.items) {
          if (sel[i - 1].Contains(w)) continue;  // cone top: previous step
          if (!between.Contains(w)) continue;
          for (NodeId u : dag_->parents(w)) {
            if (!cone.Contains(u)) s_set.Add(u);
          }
        }
        break;
      }
    }
  }
  out.side_effect_nodes = std::move(s_set.items);
  out.selected = sel[n].items;

  // Ep(r): the parents through which p reaches each selected node. With a
  // trailing child step these are the pruned derivation edges; after a
  // trailing // (or the empty path) every incoming edge reaches the node
  // (cf. Example 5's ∆V2 containing both takenBy parents).
  size_t last_move = n;
  while (last_move > 0 &&
         np.steps[last_move - 1].kind == NormalStep::Kind::kFilter) {
    --last_move;
  }
  if (last_move == 0 ||
      np.steps[last_move - 1].kind == NormalStep::Kind::kDescOrSelf) {
    for (NodeId v : sel[n].items) {
      for (NodeId u : dag_->parents(v)) out.parent_edges.emplace_back(u, v);
    }
  } else {
    for (NodeId v : sel[n].items) {
      for (NodeId u : dag_->parents(v)) {
        if (sel[last_move - 1].Contains(u)) {
          out.parent_edges.emplace_back(u, v);
        }
      }
    }
  }
  return out;
}

}  // namespace xvu
