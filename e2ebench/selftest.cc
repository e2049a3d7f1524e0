// Checker self-test: each checker of e2ebench/oracle.h must accept the
// genuine output of a small synthetic system and report a failure for one
// deliberately corrupted copy of it. Exits non-zero if any checker lets a
// corruption through or rejects a genuine input.
//
//   xvu_e2e_selftest     (or: python3 e2ebench/run.py --selftest)
#include <cstdio>
#include <string>

#include "e2ebench/oracle.h"
#include "e2ebench/stream.h"
#include "src/core/system.h"
#include "src/workload/synthetic.h"

namespace {

int failures = 0;

/// `genuine` must pass (""), `corrupted` must fail (non-empty).
void Expect(const char* what, const std::string& genuine,
            const std::string& corrupted) {
  const bool ok = genuine.empty() && !corrupted.empty();
  std::printf("  [%s] %s: genuine %s; corrupted -> %s\n", ok ? "ok" : "FAIL",
              what, genuine.empty() ? "passes" : genuine.c_str(),
              corrupted.empty() ? "NOT DETECTED" : corrupted.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace xvubench;
  xvu::SyntheticSpec spec;
  spec.num_c = 1500;
  spec.seed = 3;
  auto db = xvu::MakeSyntheticDatabase(spec);
  auto atg = xvu::MakeSyntheticAtg(*db);
  auto made = xvu::UpdateSystem::Create(std::move(*atg), std::move(*db));
  if (!made.ok()) {
    std::printf("set-up failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  xvu::UpdateSystem& sys = **made;
  BaseModel base = BaseModel::Scan(sys.database());
  OpStream stream(base, spec.seed);

  // Commit one op of each kind so the inputs come from a maintained state.
  Op verdict_op;
  xvu::Status verdict_st;
  for (OpKind kind : {OpKind::kLeafInsert, OpKind::kLeafDelete,
                      OpKind::kBuddyInsert}) {
    Op op = stream.Next(kind, PathClass::kW2);
    xvu::Status st = sys.ApplyStatement(op.stmt);
    if (st.ok()) stream.Commit(op);
    verdict_op = op;
    verdict_st = st;
  }
  base = BaseModel::Scan(sys.database());

  // 1. A node dropped from a read answer.
  ReadPath widest;
  Answer got, want;
  for (const ReadPath& rp : stream.ReadPool(false)) {
    auto r = sys.Query(rp.xpath);
    if (!r.ok()) continue;
    Answer a = AnswerOf(sys.dag(), *r);
    if (a.size() > got.size()) {
      widest = rp;
      got = a;
      want = ExpectedAnswer(base, rp);
    }
  }
  Answer dropped = got;
  if (!dropped.empty()) dropped.pop_back();
  Expect(("read answer of " + widest.xpath).c_str(), CheckAnswer(got, want),
         CheckAnswer(dropped, want));

  // 2. An extra DAG edge.
  auto rep = sys.Republish();
  EdgeSet maintained = sys.dag().CanonicalEdges();
  EdgeSet extra = maintained;
  extra.emplace("C(1,1)", "B(999999)");
  Expect("DAG edges vs Republish", CheckEdges(maintained, rep->CanonicalEdges()),
         CheckEdges(extra, rep->CanonicalEdges()));

  // 3. A flipped verdict.
  Expect(("verdict of " + verdict_op.stmt).c_str(),
         CheckVerdict(verdict_op.accept, verdict_st),
         CheckVerdict(!verdict_op.accept, verdict_st));

  // 4. An off-by-one pair count.
  const size_t counted = CountAncestorPairs(sys.dag());
  Expect("|M| vs ancestor-pair count",
         CheckPairCount(sys.reachability().size(), counted),
         CheckPairCount(sys.reachability().size() + 1, counted));

  std::printf("%s\n", failures == 0 ? "selftest: all checkers detect their "
                                      "corrupted input"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
