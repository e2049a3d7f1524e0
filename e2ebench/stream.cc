#include "e2ebench/stream.h"

#include <algorithm>
#include <stdexcept>

namespace xvubench {

namespace {

constexpr size_t kWarmInsert = 64;
constexpr size_t kHotInsert = 8;
constexpr size_t kInsertsPerHotParent = 3;
constexpr size_t kHotBuddy = 8;
constexpr size_t kMaxDeletes = 4000;

std::string Target(PathClass cls, int64_t parent, const char* tail) {
  const std::string p = Quote(parent);
  switch (cls) {
    case PathClass::kW1: return "//C[cid=" + p + "]/" + tail;
    case PathClass::kW2: return "C[cid=" + p + "]/" + tail;
    case PathClass::kW3: return "C[cid=" + p + " and payload]/" + tail;
  }
  return "";
}

std::string DeleteStmt(PathClass cls, int64_t parent, int64_t child) {
  const std::string p = Quote(parent);
  const std::string tail = "]/sub/C[cid=" + Quote(child) + "]";
  switch (cls) {
    case PathClass::kW1: return "delete //C[cid=" + p + tail;
    case PathClass::kW2: return "delete C[cid=" + p + tail;
    case PathClass::kW3: return "delete C[cid=" + p + " and sub/C" + tail;
  }
  return "";
}

}  // namespace

OpStream::OpStream(const BaseModel& base, uint64_t seed)
    : base_(base), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  std::vector<int64_t> c_ids;
  for (const auto& [id, row] : base.c) c_ids.push_back(id);
  std::sort(c_ids.begin(), c_ids.end());
  for (const auto& [id, tag] : base.k) has_k_.insert(id);

  // Leaf edges (p, c): p publishes children, C(c) publishes none. One
  // edge per parent, in a seeded order.
  std::vector<std::pair<int64_t, int64_t>> leaf;
  for (int64_t p : c_ids) {
    for (int64_t c : base.SubChildren(p)) {
      if (base.SubChildren(c).empty()) leaf.emplace_back(p, c);
    }
  }
  std::shuffle(leaf.begin(), leaf.end(), rng_);
  std::unordered_set<int64_t> delete_parent, delete_child;
  for (const auto& [p, c] : leaf) {
    if (delete_edges_.size() == kMaxDeletes) break;
    if (delete_parent.count(p) > 0 || delete_child.count(p) > 0 ||
        delete_parent.count(c) > 0) {
      continue;
    }
    delete_edges_.emplace_back(p, c);
    delete_parent.insert(p);
    delete_child.insert(c);
  }
  auto free_id = [&](int64_t id) {
    return delete_parent.count(id) == 0 && delete_child.count(id) == 0;
  };

  std::vector<int64_t> insert, k_less, uniform_k_less, with_k;
  for (int64_t id : c_ids) {
    if (!free_id(id)) continue;
    if (base.Passing(id)) insert.push_back(id);
    if (has_k_.count(id) > 0) {
      with_k.push_back(id);
    } else {
      k_less.push_back(id);
      if (base.GroupUniform(id)) uniform_k_less.push_back(id);
    }
  }
  for (auto* v : {&insert, &k_less, &uniform_k_less, &with_k}) {
    std::shuffle(v->begin(), v->end(), rng_);
  }
  if (insert.size() < kWarmInsert + kHotInsert + 4 ||
      uniform_k_less.size() < kHotBuddy || with_k.size() < kHotBuddy ||
      delete_edges_.size() < 100) {
    throw std::runtime_error("synthetic dataset too small for the op stream");
  }
  warm_insert_.assign(insert.begin(), insert.begin() + kWarmInsert);
  hot_insert_.assign(insert.begin() + kWarmInsert,
                     insert.begin() + kWarmInsert + kHotInsert);
  grand_.assign(insert.begin() + kWarmInsert + kHotInsert,
                insert.begin() + kWarmInsert + kHotInsert + 4);
  hot_buddy_.assign(uniform_k_less.begin(),
                    uniform_k_less.begin() + kHotBuddy / 2);
  hot_buddy_.insert(hot_buddy_.end(), with_k.begin(),
                    with_k.begin() + kHotBuddy / 2);
  std::unordered_set<int64_t> hot(hot_buddy_.begin(), hot_buddy_.end());
  for (int64_t id : k_less) {
    if (hot.count(id) == 0) buddy_.push_back(id);
  }
  fresh_c_ = base.max_cu;
  fresh_g_ = base.max_g;
}

int64_t OpStream::Pick(const std::vector<int64_t>& from) {
  return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(rng_)];
}

Op OpStream::Make(OpKind kind, PathClass cls, int64_t parent) {
  Op op;
  op.kind = kind;
  op.cls = cls;
  op.parent = parent;
  switch (kind) {
    case OpKind::kLeafInsert:
      op.child = ++fresh_c_;
      op.stmt = "insert C(" + std::to_string(op.child) + ", " +
                std::to_string(op.child % 100) + ") into " +
                Target(cls, parent, "sub");
      break;
    case OpKind::kBuddyInsert:
      op.child = ++fresh_g_;
      op.accept = has_k_.count(parent) > 0 || base_.GroupUniform(parent);
      op.stmt = "insert B(" + std::to_string(op.child) + ") into " +
                Target(cls, parent, "buddies");
      break;
    case OpKind::kLeafDelete:
      break;
  }
  return op;
}

Op OpStream::Next(OpKind kind, PathClass cls) {
  switch (kind) {
    case OpKind::kLeafInsert:
      return Make(kind, cls, Pick(warm_insert_));
    case OpKind::kBuddyInsert:
      if (next_buddy_ == buddy_.size()) {
        throw std::runtime_error("buddy parents exhausted");
      }
      return Make(kind, cls, buddy_[next_buddy_++]);
    case OpKind::kLeafDelete:
      break;
  }
  if (next_delete_ == delete_edges_.size()) {
    throw std::runtime_error("leaf edges exhausted");
  }
  const auto [p, c] = delete_edges_[next_delete_++];
  Op op;
  op.kind = kind;
  op.cls = cls;
  op.parent = p;
  op.child = c;
  op.stmt = DeleteStmt(cls, p, c);
  return op;
}

Op OpStream::NextHot(OpKind kind, PathClass cls) {
  switch (kind) {
    case OpKind::kLeafInsert:
      return Make(kind, cls,
                  hot_insert_[next_hot_insert_++ / kInsertsPerHotParent %
                              kHotInsert]);
    case OpKind::kBuddyInsert:
      return Make(kind, cls, hot_buddy_[next_hot_buddy_++ % kHotBuddy]);
    case OpKind::kLeafDelete: break;
  }
  return Next(kind, cls);
}

void OpStream::Commit(const Op& op) {
  if (op.kind == OpKind::kBuddyInsert) has_k_.insert(op.parent);
}

std::vector<ReadPath> OpStream::ReadPool(bool hot) {
  std::vector<ReadPath> pool;
  const std::vector<int64_t>& inserts = hot ? hot_insert_ : warm_insert_;
  for (size_t i = 0; i < 12; ++i) {
    pool.push_back(MakeReadPath(
        i % 3 == 2 ? ReadKind::kChildrenDesc : ReadKind::kChildren,
        inserts[i % inserts.size()]));
  }
  // The parents of the first deletes and buddy inserts the stream makes.
  for (size_t i = 0; i < 8; ++i) {
    pool.push_back(
        MakeReadPath(ReadKind::kChildren, delete_edges_[i].first));
  }
  for (size_t i = 0; i < 8; ++i) {
    pool.push_back(MakeReadPath(ReadKind::kBuddies,
                                hot ? hot_buddy_[i] : buddy_[i]));
  }
  for (int64_t id : grand_) {
    pool.push_back(MakeReadPath(ReadKind::kGrandchildren, id));
  }
  return pool;
}

std::string CheckXPath(const std::vector<Op>& ops, bool buddies) {
  const Op* only = nullptr;
  size_t n = 0;
  for (const Op& op : ops) {
    if ((op.kind == OpKind::kBuddyInsert) != buddies) continue;
    only = &op;
    ++n;
  }
  if (n == 0) return "";
  if (n > 1) return buddies ? "C/buddies/B" : "C/sub/C";
  const std::string parent = "C[cid=" + Quote(only->parent) + "]";
  return buddies ? parent + "/buddies/B"
                 : parent + "/sub/C[cid=" + Quote(only->child) + "]";
}

}  // namespace xvubench
