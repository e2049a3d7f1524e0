#include "src/viewupdate/delete.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

namespace xvu {

std::vector<SourceRef> DeletableSource(const EdgeViewInfo& info,
                                       const Tuple& row) {
  std::vector<SourceRef> out;
  out.reserve(info.key_positions.size());
  for (size_t i = 0; i < info.key_positions.size(); ++i) {
    SourceRef ref;
    ref.table = info.rule.tables()[i].table;
    ref.key.reserve(info.key_positions[i].size());
    for (size_t pos : info.key_positions[i]) {
      // Rule outputs start at offset 2 of the extended view row
      // (parent_id, child_id, o0...).
      ref.key.push_back(row[2 + pos]);
    }
    out.push_back(std::move(ref));
  }
  return out;
}

PinnedProbe::PinnedProbe(const ViewStore& store,
                         const std::vector<ViewRowOp>& deletions) {
  for (const ViewRowOp& op : deletions) deleted_[op.view_name].insert(op.row);
  for (const std::string& name : store.EdgeViewNames()) {
    const EdgeViewInfo* info = store.GetEdgeView(name);
    const Table* vt = store.db().GetTable(name);
    if (vt == nullptr) continue;
    auto dit = deleted_.find(name);
    const auto* deleted = dit == deleted_.end() ? nullptr : &dit->second;
    for (size_t i = 0; i < info->key_positions.size(); ++i) {
      const std::vector<size_t>& kp = info->key_positions[i];
      const std::string& table = info->rule.tables()[i].table;
      if (kp.empty()) {
        // A keyless table's only key is the empty tuple, carried by every
        // row: any remaining row pins it.
        vt->ForEach([&](const Tuple& row) {
          if (deleted == nullptr || deleted->count(row) == 0) {
            keyless_pinned_.insert(table);
          }
        });
        continue;
      }
      // Rule outputs start at offset 2 of the extended view row.
      vt->EnsureColumnIndex(2 + kp[0]);
      sites_[table].push_back(Site{vt, &kp, deleted});
    }
  }
}

bool PinnedProbe::Pinned(const SourceRef& s) const {
  if (keyless_pinned_.count(s.table) > 0) return true;
  auto it = sites_.find(s.table);
  if (it == sites_.end()) return false;
  for (const Site& site : it->second) {
    const std::vector<size_t>& kp = *site.key_positions;
    if (s.key.size() != kp.size()) continue;
    const std::vector<size_t>* slots = site.view->EqSlots(2 + kp[0], s.key[0]);
    if (slots == nullptr) continue;
    for (size_t slot : *slots) {
      const Tuple& row = site.view->RowAt(slot);
      bool match = true;
      for (size_t j = 1; j < kp.size() && match; ++j) {
        match = row[2 + kp[j]] == s.key[j];
      }
      if (!match) continue;
      if (site.deleted != nullptr && site.deleted->count(row) > 0) continue;
      return true;  // a remaining view row depends on s
    }
  }
  return false;
}

Result<RelationalUpdate> TranslateGroupDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions) {
  PinnedProbe probe(store, deletions);
  return TranslateGroupDeletion(
      store, base, deletions,
      [&probe](const SourceRef& s) { return probe.Pinned(s); });
}

Result<RelationalUpdate> TranslateGroupDeletion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& deletions, const PinnedFn& pinned) {
  for (const ViewRowOp& op : deletions) {
    if (store.GetEdgeView(op.view_name) == nullptr) {
      return Status::NotFound("edge view " + op.view_name);
    }
  }

  // Fig.9 lines 6-9: pick, for every ∆V row, a source tuple that no
  // remaining view row depends on.
  RelationalUpdate dr;
  std::set<SourceRef> chosen;
  for (const ViewRowOp& op : deletions) {
    const EdgeViewInfo* info = store.GetEdgeView(op.view_name);
    std::vector<SourceRef> sources = DeletableSource(*info, op.row);
    // Covered for free when a source is already scheduled for deletion by
    // an earlier ∆V row.
    bool covered = false;
    for (const SourceRef& s : sources) {
      if (chosen.count(s) > 0) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    const SourceRef* pick = nullptr;
    for (const SourceRef& s : sources) {
      if (!pinned(s)) {
        pick = &s;
        break;
      }
    }
    if (pick == nullptr) {
      return Status::Rejected(
          "view deletion of " + TupleToString(op.row) + " from " +
          op.view_name +
          " is untranslatable: every source tuple is shared with a "
          "remaining view row (side effects)");
    }
    const Table* t = base.GetTable(pick->table);
    if (t == nullptr) return Status::NotFound("table " + pick->table);
    const Tuple* full = t->FindByKey(pick->key);
    if (full == nullptr) {
      return Status::Internal("source tuple " + pick->ToString() +
                              " vanished from base table");
    }
    dr.ops.push_back(TableOp{TableOp::Kind::kDelete, pick->table, *full});
    chosen.insert(*pick);
  }
  return dr;
}

}  // namespace xvu
