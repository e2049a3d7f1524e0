#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "src/core/evaluator.h"
#include "src/dag/reachability.h"
#include "src/xpath/parser.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

double TimeSeconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Growth-ratio checks are inherently noisy; the assertions below use very
// loose factors and only guard against an accidental quadratic (or worse)
// blow-up of the advertised near-linear algorithms.

TEST(Complexity, ReachScalesNearLinearlyInEdgesTimesNodes) {
  // Sparse random DAGs: |V| ~ n, so Reach is ~ n^2 at worst but its work
  // is bounded by sum over nodes of |anc| — compare against the naive
  // closure, which does strictly more work.
  for (uint64_t seed : {1ull, 2ull}) {
    DagView small = RandomDag(400, 0.1, seed);
    DagView big = RandomDag(1600, 0.1, seed);
    auto ts = TopoOrder::Compute(small);
    auto tb = TopoOrder::Compute(big);
    ASSERT_TRUE(ts.ok());
    ASSERT_TRUE(tb.ok());
    double fast_small = TimeSeconds(
        [&] { Reachability::Compute(small, *ts); });
    double fast_big = TimeSeconds([&] { Reachability::Compute(big, *tb); });
    // 4x nodes: allow up to ~40x (quadratic-in-M is expected; this
    // guards against something catastrophically worse).
    EXPECT_LT(fast_big, std::max(fast_small, 1e-4) * 64)
        << "Reach grew unreasonably; seed " << seed;
  }
}

TEST(Complexity, TwoPassEvalLinearInDagSize) {
  Path p = *ParseXPath("//a[b]//b");
  double t_small, t_big;
  {
    DagView dag = RandomDag(2000, 0.2, 5);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    Reachability m = Reachability::Compute(dag, *topo);
    XPathEvaluator ev(&dag, &m);
    t_small = TimeSeconds([&] { (void)ev.Evaluate(p); });
  }
  {
    DagView dag = RandomDag(8000, 0.2, 5);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    Reachability m = Reachability::Compute(dag, *topo);
    XPathEvaluator ev(&dag, &m);
    t_big = TimeSeconds([&] { (void)ev.Evaluate(p); });
  }
  // 4x nodes: the // closure makes the result sets bigger, allow 32x.
  EXPECT_LT(t_big, std::max(t_small, 1e-4) * 32);
}

TEST(Complexity, EvalCostGrowsWithQuerySizeLinearly) {
  DagView dag = RandomDag(3000, 0.2, 9);
  auto topo = TopoOrder::Compute(dag);
  ASSERT_TRUE(topo.ok());
  Reachability m = Reachability::Compute(dag, *topo);
  XPathEvaluator ev(&dag, &m);
  Path p1 = *ParseXPath("//a[b]");
  Path p4 = *ParseXPath("//a[b]/b[a]/a[b]/b[a]");
  double t1 = TimeSeconds([&] { (void)ev.Evaluate(p1); });
  double t4 = TimeSeconds([&] { (void)ev.Evaluate(p4); });
  // ~4x the steps: allow 16x.
  EXPECT_LT(t4, std::max(t1, 1e-4) * 16);
}

}  // namespace
}  // namespace xvu
