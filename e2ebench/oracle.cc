#include "e2ebench/oracle.h"

#include <algorithm>
#include <iterator>

namespace xvubench {

namespace {

std::string CKey(int64_t id, int64_t payload) {
  return "C(" + std::to_string(id) + "," + std::to_string(payload) + ")";
}

std::string BKey(int64_t g1) { return "B(" + std::to_string(g1) + ")"; }

std::string NodeKey(const xvu::DagView& dag, xvu::NodeId id) {
  const xvu::DagView::Node& n = dag.node(id);
  std::string key = n.type + "(";
  for (size_t i = 0; i < n.attr.size(); ++i) {
    if (i > 0) key += ",";
    const xvu::Value& v = n.attr[i];
    key += v.type() == xvu::ValueType::kInt ? std::to_string(v.as_int())
                                            : "?" + v.ToString();
  }
  return key + ")";
}

int64_t FirstInt(const xvu::DagView& dag, xvu::NodeId id) {
  const xvu::Tuple& attr = dag.node(id).attr;
  if (attr.empty() || attr[0].type() != xvu::ValueType::kInt) return -1;
  return attr[0].as_int();
}

}  // namespace

std::string Quote(int64_t id) { return "\"" + std::to_string(id) + "\""; }

BaseModel BaseModel::Scan(const xvu::Database& db) {
  BaseModel m;
  db.GetTable("C")->ForEach([&](const xvu::Tuple& r) {
    m.c[r[0].as_int()] = CRow{{r[1].as_bool(), r[2].as_bool(), r[3].as_bool()},
                              r[4].as_int()};
  });
  db.GetTable("F")->ForEach([&](const xvu::Tuple& r) {
    m.f[r[0].as_int()] = {r[1].as_bool(), r[2].as_bool(), r[3].as_bool()};
  });
  db.GetTable("H")->ForEach([&](const xvu::Tuple& r) {
    m.h[r[0].as_int()].push_back(r[1].as_int());
  });
  for (auto& [h1, kids] : m.h) std::sort(kids.begin(), kids.end());
  db.GetTable("CU")->ForEach([&](const xvu::Tuple& r) {
    m.cu[r[0].as_int()] = r[4].as_int();
    m.max_cu = std::max(m.max_cu, r[0].as_int());
  });
  db.GetTable("K")->ForEach(
      [&](const xvu::Tuple& r) { m.k[r[0].as_int()] = r[1].as_bool(); });
  db.GetTable("G")->ForEach([&](const xvu::Tuple& r) {
    m.g[r[1].as_int()].emplace_back(r[0].as_int(), r[2].as_bool());
    m.max_g = std::max(m.max_g, r[0].as_int());
  });
  return m;
}

bool BaseModel::Passing(int64_t id) const {
  auto ci = c.find(id);
  auto fi = f.find(id);
  return ci != c.end() && fi != f.end() && ci->second.b == fi->second;
}

std::vector<int64_t> BaseModel::SubChildren(int64_t id) const {
  std::vector<int64_t> out;
  auto hi = h.find(id);
  if (hi == h.end() || !Passing(id)) return out;
  for (int64_t child : hi->second) {
    if (cu.count(child) > 0) out.push_back(child);
  }
  return out;
}

std::vector<int64_t> BaseModel::Buddies(int64_t id) const {
  std::vector<int64_t> out;
  auto ki = k.find(id);
  auto gi = g.find(id);
  if (ki == k.end() || gi == g.end()) return out;
  for (const auto& [g1, tag] : gi->second) {
    if (tag == ki->second) out.push_back(g1);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool BaseModel::GroupUniform(int64_t grp) const {
  auto gi = g.find(grp);
  if (gi == g.end()) return true;
  for (const auto& row : gi->second) {
    if (row.second != gi->second.front().second) return false;
  }
  return true;
}

ReadPath MakeReadPath(ReadKind kind, int64_t id) {
  ReadPath p{kind, id, ""};
  const std::string c = "C[cid=" + Quote(id) + "]";
  switch (kind) {
    case ReadKind::kChildren: p.xpath = c + "/sub/C"; break;
    case ReadKind::kChildrenDesc: p.xpath = "//" + c + "/sub/C"; break;
    case ReadKind::kGrandchildren: p.xpath = c + "/sub/C/sub/C"; break;
    case ReadKind::kBuddies: p.xpath = c + "/buddies/B"; break;
  }
  return p;
}

Answer ExpectedAnswer(const BaseModel& base, const ReadPath& path) {
  std::set<std::string> keys;
  // Every path starts at the top-level C(id), which needs a C row.
  if (base.c.count(path.id) > 0) {
    switch (path.kind) {
      case ReadKind::kChildren:
      case ReadKind::kChildrenDesc:
        for (int64_t child : base.SubChildren(path.id)) {
          keys.insert(CKey(child, base.cu.at(child)));
        }
        break;
      case ReadKind::kGrandchildren:
        for (int64_t child : base.SubChildren(path.id)) {
          for (int64_t grand : base.SubChildren(child)) {
            keys.insert(CKey(grand, base.cu.at(grand)));
          }
        }
        break;
      case ReadKind::kBuddies:
        for (int64_t g1 : base.Buddies(path.id)) keys.insert(BKey(g1));
        break;
    }
  }
  return Answer(keys.begin(), keys.end());
}

Answer AnswerOf(const xvu::DagView& dag, const xvu::EvalResult& result) {
  Answer out;
  out.reserve(result.selected.size());
  for (xvu::NodeId id : result.selected) out.push_back(NodeKey(dag, id));
  std::sort(out.begin(), out.end());
  return out;
}

EdgePairs EdgePairsOf(const xvu::DagView& dag, const xvu::EvalResult& result) {
  EdgePairs out;
  for (const auto& [parent, child] : result.parent_edges) {
    out.emplace(FirstInt(dag, parent), FirstInt(dag, child));
  }
  return out;
}

size_t CountAncestorPairs(const xvu::DagView& dag) {
  std::vector<uint32_t> seen(dag.capacity(), 0);
  std::vector<xvu::NodeId> stack;
  uint32_t stamp = 0;
  size_t pairs = 0;
  for (xvu::NodeId a = 0; a < dag.capacity(); ++a) {
    if (!dag.alive(a)) continue;
    ++stamp;
    stack.assign(dag.children(a).begin(), dag.children(a).end());
    while (!stack.empty()) {
      xvu::NodeId v = stack.back();
      stack.pop_back();
      if (seen[v] == stamp) continue;
      seen[v] = stamp;
      ++pairs;
      stack.insert(stack.end(), dag.children(v).begin(), dag.children(v).end());
    }
  }
  return pairs;
}

std::string CheckAnswer(const Answer& got, const Answer& want) {
  if (got == want) return "";
  Answer missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::string out = "answer has " + std::to_string(got.size()) +
                    " nodes, expected " + std::to_string(want.size());
  if (!missing.empty()) out += "; missing " + missing.front();
  if (!extra.empty()) out += "; extra " + extra.front();
  return out;
}

std::string CheckEdges(const EdgeSet& maintained, const EdgeSet& republished) {
  if (maintained == republished) return "";
  EdgeSet missing, extra;
  std::set_difference(republished.begin(), republished.end(),
                      maintained.begin(), maintained.end(),
                      std::inserter(missing, missing.end()));
  std::set_difference(maintained.begin(), maintained.end(),
                      republished.begin(), republished.end(),
                      std::inserter(extra, extra.end()));
  std::string out = "maintained DAG has " + std::to_string(maintained.size()) +
                    " edges, republished " + std::to_string(republished.size());
  if (!missing.empty()) {
    out += "; missing " + missing.begin()->first + "->" +
           missing.begin()->second;
  }
  if (!extra.empty()) {
    out += "; extra " + extra.begin()->first + "->" + extra.begin()->second;
  }
  return out;
}

std::string CheckVerdict(bool predicted_accept, const xvu::Status& st) {
  if (predicted_accept && st.ok()) return "";
  if (!predicted_accept && st.IsRejected()) return "";
  return std::string("predicted ") + (predicted_accept ? "accept" : "reject") +
         ", got " + (st.ok() ? std::string("OK") : st.ToString());
}

std::string CheckPairCount(size_t reported, size_t counted) {
  if (reported == counted) return "";
  return "M holds " + std::to_string(reported) + " pairs, traversal counts " +
         std::to_string(counted);
}

std::string CheckPostcondition(
    const EdgePairs& got,
    const std::vector<std::pair<int64_t, int64_t>>& must_have,
    const std::vector<std::pair<int64_t, int64_t>>& must_lack) {
  for (const auto& p : must_have) {
    if (got.count(p) == 0) {
      return "edge " + std::to_string(p.first) + "->" +
             std::to_string(p.second) + " missing after insert";
    }
  }
  for (const auto& p : must_lack) {
    if (got.count(p) > 0) {
      return "edge " + std::to_string(p.first) + "->" +
             std::to_string(p.second) + " still present after delete";
    }
  }
  return "";
}

}  // namespace xvubench
