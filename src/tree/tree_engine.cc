#include "tree/tree_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "obs/stage_timer.h"

namespace cepjoin {

namespace {

/// Exposes a tree instance's bound events by pattern position.
class TreeBound : public BoundAccessor {
 public:
  TreeBound(const CompiledPattern& cp, const std::vector<EventPtr>& by_slot,
            const std::vector<EventPtr>& kleene_extra, int kleene_pos)
      : cp_(cp),
        by_slot_(by_slot),
        kleene_extra_(kleene_extra),
        kleene_pos_(kleene_pos) {}

  void ForEach(int pos,
               const std::function<void(const Event&)>& fn) const override {
    int slot = cp_.pos_to_slot(pos);
    if (slot >= 0 && by_slot_[slot] != nullptr) fn(*by_slot_[slot]);
    if (pos == kleene_pos_) {
      for (const EventPtr& e : kleene_extra_) fn(*e);
    }
  }

 private:
  const CompiledPattern& cp_;
  const std::vector<EventPtr>& by_slot_;
  const std::vector<EventPtr>& kleene_extra_;
  int kleene_pos_;
};

class MatchBound : public BoundAccessor {
 public:
  explicit MatchBound(const Match& match) : match_(match) {}
  void ForEach(int pos,
               const std::function<void(const Event&)>& fn) const override {
    if (pos < 0 || pos >= static_cast<int>(match_.slots.size())) return;
    for (const EventPtr& e : match_.slots[pos]) fn(*e);
  }

 private:
  const Match& match_;
};

}  // namespace

TreeEngine::TreeEngine(const SimplePattern& pattern, const TreePlan& plan,
                       MatchSink* sink)
    : cp_(pattern), plan_(plan), sink_(sink) {
  CEPJOIN_CHECK(sink_ != nullptr);
  int m = cp_.num_slots();
  CEPJOIN_CHECK_EQ(plan_.num_leaves(), m)
      << "tree plan must cover exactly the positive slots";
  if (cp_.kleene_slot() >= 0) {
    kleene_pos_ = cp_.slot_to_pos(cp_.kleene_slot());
    CEPJOIN_CHECK_GE(m, 2)
        << "a Kleene leaf cannot be the tree root: subsets are buffered at "
           "the leaf and only combined at internal nodes";
  }
  for (int slot = 0; slot < m; ++slot) {
    leaves_of_type_[cp_.pos_type(cp_.slot_to_pos(slot))].push_back(
        plan_.LeafOf(slot));
  }
  node_buffers_.resize(plan_.num_nodes());
  neg_buffers_.resize(cp_.num_positions());
  checks_at_node_.resize(plan_.num_nodes());
  // Negation buffers are only ever iterated row-wise.
  for (auto& buffer : neg_buffers_) buffer.DisableColumns();
  next_match_ = cp_.strategy() == SelectionStrategy::kSkipTillNext;
  track_deltas_ = cp_.delta_input();
  CEPJOIN_CHECK(!track_deltas_ ||
                cp_.strategy() == SelectionStrategy::kSkipTillAny)
      << "delta input requires skip-till-any: retraction semantics under "
         "skip-till-next/contiguity pruning are undefined";
  use_columnar_ = ColumnarKernelsEnabled() && !next_match_;
  // Non-Kleene leaves mirror their instance anchors attr-major; a Kleene
  // leaf buffers subsets (anchor + members), which are not single rows.
  // Mirrors exist only when the columnar combine can actually run.
  leaf_columns_.resize(plan_.num_nodes());
  leaf_mirrored_.assign(plan_.num_nodes(), 0);
  if (use_columnar_) {
    for (int slot = 0; slot < m; ++slot) {
      if (cp_.slot_to_pos(slot) != kleene_pos_) {
        leaf_mirrored_[plan_.LeafOf(slot)] = 1;
      }
    }
  }

  // Precompute, per internal node, the pattern-position pairs that carry
  // conditions across the node's left/right split.
  cross_pairs_.resize(plan_.num_nodes());
  for (int id : plan_.internal_postorder()) {
    const TreePlan::Node& node = plan_.node(id);
    uint64_t lmask = plan_.node(node.left).mask;
    uint64_t rmask = plan_.node(node.right).mask;
    for (int a = 0; a < m; ++a) {
      if (!(lmask >> a & 1)) continue;
      int pa = cp_.slot_to_pos(a);
      for (int b = 0; b < m; ++b) {
        if (!(rmask >> b & 1)) continue;
        int pb = cp_.slot_to_pos(b);
        if (!cp_.conditions().Between(pa, pb).empty()) {
          cross_pairs_[id].emplace_back(pa, pb);
        }
      }
    }
  }

  // Instance stores: mirror each eligible internal node's instances
  // attr-major so a fresh sibling instance can probe them run-at-a-time.
  // Eligibility mirrors the leaf rule: columnar path on, and no parent
  // cross pair reads the Kleene position on the stored side (its subset
  // members live in kleene_extra, which a single anchor column cannot
  // represent). The root is never probed — it has no sibling.
  instance_stores_.resize(plan_.num_nodes());
  instance_mirrored_.assign(plan_.num_nodes(), 0);
  if (use_columnar_) {
    for (int id : plan_.internal_postorder()) {
      if (id == plan_.root()) continue;
      int parent = plan_.node(id).parent;
      bool is_left = plan_.node(parent).left == id;
      std::vector<InstanceStoreColumn> columns;
      bool eligible = true;
      for (const auto& [pa, pb] : cross_pairs_[parent]) {
        int store_pos = is_left ? pa : pb;
        if (store_pos == kleene_pos_) {
          eligible = false;
          break;
        }
        bool seen = false;
        for (const InstanceStoreColumn& col : columns) {
          if (col.key == store_pos) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          columns.push_back({store_pos, cp_.pos_to_slot(store_pos)});
        }
      }
      if (!eligible) continue;
      instance_mirrored_[id] = 1;
      instance_stores_[id].Configure(std::move(columns));
    }
  }

  // Attach negation checks to the lowest node covering all dependencies.
  for (const NegationSpec& neg : cp_.negations()) {
    if (neg.trailing) {
      trailing_checks_.push_back(&neg);
      completion_checks_.push_back(&neg);
      continue;
    }
    if (neg.leading_bounded) {
      completion_checks_.push_back(&neg);
      continue;
    }
    uint64_t need = 0;
    for (int dep : neg.dep_positions) {
      int slot = cp_.pos_to_slot(dep);
      CEPJOIN_CHECK_GE(slot, 0);
      need |= uint64_t{1} << slot;
    }
    int node = plan_.LeafOf(__builtin_ctzll(need));
    while ((plan_.node(node).mask & need) != need) {
      node = plan_.node(node).parent;
      CEPJOIN_CHECK_GE(node, 0);
    }
    checks_at_node_[node].push_back(&neg);
  }
}

void TreeEngine::OnEvent(const EventPtr& e) {
  arrival_start_ = std::chrono::steady_clock::now();
  ProcessEvent(e);
}

void TreeEngine::OnBatch(const EventPtr* events, size_t n) {
  if (n == 0) return;
  // One latency anchor per batch instead of one clock read per event;
  // everything else is byte-identical to the per-event path, so matches
  // and counters are too.
  arrival_start_ = std::chrono::steady_clock::now();
  CEPJOIN_STAGE_TIMER("tree_on_batch");
  for (size_t i = 0; i < n; ++i) ProcessEvent(events[i]);
}

void TreeEngine::ProcessEvent(const EventPtr& e) {
  CEPJOIN_CHECK(e != nullptr);
  ++counters_.events_processed;
  now_ = e->ts;
  current_serial_ = e->serial;
  if (++events_since_sweep_ >= kSweepEvery) Sweep();
  if (e->IsRetraction()) {
    // A retraction advances time (matches whose trailing window closed
    // before it are now final and revocable), but it is a command, not
    // an occurrence: it never buffers, combines, or negates.
    ProcessPendingDeadlines(*e);
    ProcessRetraction(*e);
    return;
  }
  ProcessPending(*e);
  BufferNegated(e);
  auto it = leaves_of_type_.find(e->type);
  if (it != leaves_of_type_.end()) {
    for (int leaf : it->second) ArriveAtLeaf(leaf, e);
  }
}

void TreeEngine::Finish() {
  for (PendingMatch& p : pending_) {
    EmitMatch(std::move(p.match), p.max_ts);
  }
  pending_.clear();
}

void TreeEngine::ProcessPendingDeadlines(const Event& e) {
  if (pending_.empty()) return;
  size_t keep = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].deadline < e.ts) {
      EmitMatch(std::move(pending_[i].match), pending_[i].max_ts);
    } else {
      if (keep != i) pending_[keep] = std::move(pending_[i]);
      ++keep;
    }
  }
  pending_.resize(keep);
}

void TreeEngine::ProcessPending(const Event& e) {
  if (pending_.empty()) return;
  ProcessPendingDeadlines(e);
  for (const NegationSpec* neg : trailing_checks_) {
    if (cp_.pos_type(neg->neg_pos) != e.type) continue;
    if (!cp_.program().EvalUnary(neg->neg_pos, e,
                                 &counters_.predicate_evals)) {
      continue;
    }
    size_t kept = 0;
    for (size_t i = 0; i < pending_.size(); ++i) {
      MatchBound bound(pending_[i].match);
      if (!cp_.NegationViolates(*neg, e, bound, pending_[i].min_ts,
                                pending_[i].max_ts,
                                &counters_.predicate_evals)) {
        if (kept != i) pending_[kept] = std::move(pending_[i]);
        ++kept;
      }
    }
    pending_.resize(kept);
  }
}

void TreeEngine::RemoveFromBuffer(ColumnBuffer* buffer, EventSerial serial) {
  const size_t n = buffer->size();
  size_t hit = n;
  for (size_t i = 0; i < n; ++i) {
    if ((*buffer)[i]->serial == serial) {
      hit = i;
      break;  // serials are unique
    }
  }
  if (hit == n) return;
  counters_.RemoveBuffered(BufferedEventBytes(*buffer, *(*buffer)[hit]));
  std::vector<uint8_t> keep(n, 1);
  keep[hit] = 0;
  buffer->Filter(keep);
}

void TreeEngine::ProcessRetraction(const Event& r) {
  CEPJOIN_CHECK(track_deltas_)
      << "retraction fed to an engine whose pattern lacks WithDeltaInput()";
  ++counters_.retractions_processed;
  const EventSerial target = r.target_serial;
  // Negation buffers: the retracted event is buffered at every negated
  // position of its type that its unary predicate admitted — the same
  // set BufferNegated appended to. Exact byte refund.
  for (int pos : cp_.positions_of_type(r.type)) {
    if (cp_.pos_to_slot(pos) >= 0) continue;
    RemoveFromBuffer(&neg_buffers_[pos], target);
  }
  // Node buffers: every instance bound to the retracted event is
  // deleted NOW, rows and columnar mirrors compacted in lockstep — the
  // vectorized combine kernels require lane k of a mirror to be live
  // partner k, so (unlike the NFA) husks cannot wait for the next
  // Sweep.
  std::vector<uint8_t> keep_rows;
  for (size_t node = 0; node < node_buffers_.size(); ++node) {
    std::vector<Instance>& list = node_buffers_[node];
    if (list.empty()) continue;
    const bool leaf_mirror = leaf_mirrored_[node] != 0;
    const bool store_mirror = instance_mirrored_[node] != 0;
    const bool mirrored = leaf_mirror || store_mirror;
    if (mirrored) keep_rows.assign(list.size(), 0);
    size_t keep = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      Instance& inst = list[i];
      bool contains = false;
      for (const EventPtr& used : inst.by_slot) {
        if (used != nullptr && used->serial == target) {
          contains = true;
          break;
        }
      }
      if (!contains) {
        for (const EventPtr& used : inst.kleene_extra) {
          if (used->serial == target) {
            contains = true;
            break;
          }
        }
      }
      if (contains) {
        if (!inst.dead) counters_.RemoveInstance(inst.tracked_bytes);
        if (store_mirror) counters_.RemoveStoreBytes(inst.store_bytes);
        continue;
      }
      if (mirrored) keep_rows[i] = 1;
      if (keep != i) list[keep] = std::move(list[i]);
      ++keep;
    }
    if (keep == list.size()) continue;  // no hit: mirrors untouched
    list.resize(keep);
    if (leaf_mirror) leaf_columns_[node].Filter(keep_rows);
    if (store_mirror) instance_stores_[node].Filter(keep_rows);
  }
  // Pending (trailing-negation) matches containing the event were never
  // emitted: discard silently, nothing to revoke. The deadline pass just
  // before left only entries with min_ts + window >= r.ts, all inside
  // the window.
  size_t keep = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!MatchContainsSerial(pending_[i].match, target)) {
      if (keep != i) pending_[keep] = std::move(pending_[i]);
      ++keep;
    }
  }
  pending_.resize(keep);
  // Previously emitted matches revoke in their original emission order,
  // if still inside the window: Sweep forgets a logged match once its
  // max_ts falls behind now - window, so a match behind that edge is
  // final whether or not a sweep has run yet (the log is only scanned
  // once it holds emitted_scan_threshold_ entries).
  const Timestamp horizon = r.ts - cp_.window();
  keep = 0;
  for (size_t i = 0; i < emitted_.size(); ++i) {
    if (emitted_[i].max_ts >= horizon &&
        MatchContainsSerial(emitted_[i].match, target)) {
      EmitRevocation(std::move(emitted_[i].match));
    } else {
      if (keep != i) emitted_[keep] = std::move(emitted_[i]);
      ++keep;
    }
  }
  emitted_.resize(keep);
}

void TreeEngine::BufferNegated(const EventPtr& e) {
  for (int pos : cp_.positions_of_type(e->type)) {
    if (cp_.pos_to_slot(pos) >= 0) continue;  // only negated positions
    if (!cp_.program().EvalUnary(pos, *e, &counters_.predicate_evals)) {
      continue;
    }
    counters_.AddBuffered(BufferedEventBytes(neg_buffers_[pos], *e));
    neg_buffers_[pos].Append(e);
  }
}

void TreeEngine::ArriveAtLeaf(int leaf_node, const EventPtr& e) {
  int slot = plan_.node(leaf_node).leaf_item;
  int pos = cp_.slot_to_pos(slot);
  if (!cp_.program().EvalUnary(pos, *e, &counters_.predicate_evals)) return;
  int m = cp_.num_slots();
  bool kleene_leaf = pos == kleene_pos_;

  // Kleene leaf: extend existing (pre-arrival) subsets in canonical order.
  size_t pre_size = node_buffers_[leaf_node].size();

  Instance singleton;
  singleton.by_slot.assign(m, nullptr);
  singleton.by_slot[slot] = e;
  singleton.min_ts = e->ts;
  singleton.max_ts = e->ts;
  singleton.max_serial = e->serial;
  NewInstance(leaf_node, std::move(singleton));

  if (!kleene_leaf || next_match_) return;
  for (size_t idx = 0; idx < pre_size; ++idx) {
    const Instance& base = node_buffers_[leaf_node][idx];
    if (base.dead) continue;
    if (e->serial <= base.max_serial) continue;
    if (std::max(base.max_ts, e->ts) - std::min(base.min_ts, e->ts) >
        cp_.window()) {
      continue;
    }
    Instance extended = base;
    extended.kleene_extra.push_back(e);
    extended.min_ts = std::min(base.min_ts, e->ts);
    extended.max_ts = std::max(base.max_ts, e->ts);
    extended.max_serial = e->serial;
    NewInstance(leaf_node, std::move(extended));
  }
}

bool TreeEngine::TryCombine(int parent, const Instance& a, const Instance& b,
                            Instance* out) {
  Timestamp min_ts = std::min(a.min_ts, b.min_ts);
  Timestamp max_ts = std::max(a.max_ts, b.max_ts);
  if (max_ts - min_ts > cp_.window()) return false;
  // `a` is the left child's instance, `b` the right child's; masks are
  // disjoint so slot-wise union is well-defined.
  for (const auto& [pa, pb] : cross_pairs_[parent]) {
    const Instance& left_holder =
        a.by_slot[cp_.pos_to_slot(pa)] != nullptr ? a : b;
    const Instance& right_holder = &left_holder == &a ? b : a;
    bool ok = true;
    TreeBound lbound(cp_, left_holder.by_slot, left_holder.kleene_extra,
                     kleene_pos_);
    TreeBound rbound(cp_, right_holder.by_slot, right_holder.kleene_extra,
                     kleene_pos_);
    lbound.ForEach(pa, [&](const Event& ea) {
      if (!ok) return;
      rbound.ForEach(pb, [&](const Event& eb) {
        if (!ok) return;
        if (!cp_.program().EvalPair(pa, pb, ea, eb,
                                    &counters_.predicate_evals)) {
          ok = false;
        }
      });
    });
    if (!ok) return false;
  }
  FillCombined(a, b, out);
  return true;
}

void TreeEngine::FillCombined(const Instance& a, const Instance& b,
                              Instance* out) {
  *out = a;
  int m = cp_.num_slots();
  for (int s = 0; s < m; ++s) {
    if (b.by_slot[s] != nullptr) out->by_slot[s] = b.by_slot[s];
  }
  out->kleene_extra.insert(out->kleene_extra.end(), b.kleene_extra.begin(),
                           b.kleene_extra.end());
  out->min_ts = std::min(a.min_ts, b.min_ts);
  out->max_ts = std::max(a.max_ts, b.max_ts);
  out->max_serial = std::max(a.max_serial, b.max_serial);
  out->dead = false;
}

bool TreeEngine::NodeNegationChecks(int node, const Instance& inst) {
  if (checks_at_node_[node].empty()) return true;
  TreeBound bound(cp_, inst.by_slot, inst.kleene_extra, kleene_pos_);
  for (const NegationSpec* neg : checks_at_node_[node]) {
    const ColumnBuffer& buffer = neg_buffers_[neg->neg_pos];
    for (size_t bi = 0; bi < buffer.size(); ++bi) {
      if (cp_.NegationViolates(*neg, *buffer[bi], bound, inst.min_ts,
                               inst.max_ts, &counters_.predicate_evals)) {
        return false;
      }
    }
  }
  return true;
}

void TreeEngine::NewInstance(int node, Instance&& inst) {
  if (!NodeNegationChecks(node, inst)) return;
  if (node == plan_.root()) {
    Complete(inst);
    return;
  }
  inst.tracked_bytes = inst.ApproxBytes();
  counters_.AddInstance(inst.tracked_bytes);
  node_buffers_[node].push_back(std::move(inst));
  if (leaf_mirrored_[node]) {
    // Lockstep columnar mirror of the leaf's anchors.
    leaf_columns_[node].Append(
        node_buffers_[node].back().by_slot[plan_.node(node).leaf_item]);
  } else if (instance_mirrored_[node]) {
    // Lockstep columnar mirror of the internal node's instances: window
    // extents + the anchor columns the parent's cross pairs probe.
    Instance& stored = node_buffers_[node].back();
    stored.store_bytes =
        instance_stores_[node].RowMirrorBytes(stored.by_slot);
    counters_.AddStoreBytes(stored.store_bytes);
    instance_stores_[node].Append(stored.min_ts, stored.max_ts,
                                  stored.by_slot);
  }
  // Stable copy: recursion never appends to this node's buffer, but a
  // reallocation elsewhere must not invalidate what we iterate with.
  Instance local = node_buffers_[node].back();

  int sib = plan_.Sibling(node);
  int parent = plan_.node(node).parent;
  bool node_is_left = plan_.node(parent).left == node;
  // Both join shapes run through the columnar kernels: a fresh partial
  // probing a leaf's window buffer (event columns) and probing an
  // internal sibling's instance store (partial-match columns). Kleene
  // leaves, Kleene-anchored stores, and skip-till-next (left-side
  // first-success early exit) stay on the scalar partner loop, which is
  // also the correctness oracle.
  if (leaf_mirrored_[sib]) {  // implies use_columnar_ && !next_match_
    CombineWithLeafRun(local, sib, parent, node_is_left);
    return;
  }
  if (instance_mirrored_[sib]) {  // implies use_columnar_ && !next_match_
    CombineWithInstanceRun(local, sib, parent, node_is_left);
    return;
  }
  std::vector<Instance>& partners = node_buffers_[sib];
  size_t partner_count = partners.size();
  for (size_t idx = 0; idx < partner_count; ++idx) {
    if (partners[idx].dead) continue;
    Instance combined;
    bool ok = node_is_left
                  ? TryCombine(parent, local, partners[idx], &combined)
                  : TryCombine(parent, partners[idx], local, &combined);
    if (!ok) continue;
    if (next_match_) {
      // Skip-till-next mirrors the NFA: the left (partial-match) side of
      // a join is consumed by its first successful extension, while the
      // right side acts like the arriving event and may serve several
      // waiting partials.
      if (node_is_left) {
        Instance& stored = node_buffers_[node].back();
        if (!stored.dead) {
          stored.dead = true;
          counters_.RemoveInstance(stored.tracked_bytes);
        }
        NewInstance(parent, std::move(combined));
        return;
      }
      partners[idx].dead = true;
      counters_.RemoveInstance(partners[idx].tracked_bytes);
      NewInstance(parent, std::move(combined));
      continue;
    }
    NewInstance(parent, std::move(combined));
  }
}

void TreeEngine::CombineWithLeafRun(const Instance& local, int sib,
                                    int parent, bool node_is_left) {
  CEPJOIN_STAGE_TIMER("tree_combine_leaf_run");
  const ColumnBuffer& mirror = leaf_columns_[sib];
  const std::vector<Instance>& partners = node_buffers_[sib];
  CEPJOIN_CHECK_EQ(mirror.size(), partners.size());
  const size_t n = partners.size();
  if (n == 0) return;
  const ColumnRun run = mirror.Run();
  LaneMask mask(n);
  uint64_t* alive = mask.words();
  const PredicateProgram& program = cp_.program();
  // TryCombine's gate order: window feasibility first (uncounted), then
  // the parent's cross pairs in order, each lane stopping at its first
  // failing span — survivors and predicate_evals identical to the scalar
  // partner loop. Leaf instances are singletons (min_ts == max_ts ==
  // anchor ts), so the column timestamps are the instance extents; dead
  // partners cannot exist outside skip-till-next, which this path
  // excludes.
  WindowMaskLanes(local.min_ts, local.max_ts, cp_.window(), run, alive);
  const int leaf_pos = cp_.slot_to_pos(plan_.node(sib).leaf_item);
  for (const auto& [pa, pb] : cross_pairs_[parent]) {
    // One endpoint of every cross pair lies in the leaf's single-slot
    // mask; `local` holds the other.
    const int fixed_pos = node_is_left ? pa : pb;
    const EventPtr& anchor = local.by_slot[cp_.pos_to_slot(fixed_pos)];
    program.EvalPairRun(fixed_pos, leaf_pos, *anchor, run, alive,
                        &counters_.predicate_evals);
    if (fixed_pos == kleene_pos_) {
      for (const EventPtr& member : local.kleene_extra) {
        program.EvalPairRun(fixed_pos, leaf_pos, *member, run, alive,
                            &counters_.predicate_evals);
      }
    }
  }
  // Survivors combine in buffer order, exactly like the scalar loop. The
  // mask lives on this frame; recursion appends only at `parent` and
  // above, never to the leaf, so the run view stays valid.
  mask.ForEachAlive([&](size_t k) {
    Instance combined;
    if (node_is_left) {
      FillCombined(local, partners[k], &combined);
    } else {
      FillCombined(partners[k], local, &combined);
    }
    NewInstance(parent, std::move(combined));
  });
}

void TreeEngine::CombineWithInstanceRun(const Instance& local, int sib,
                                        int parent, bool node_is_left) {
  CEPJOIN_STAGE_TIMER("tree_combine_instance_run");
  const InstanceStore& store = instance_stores_[sib];
  const std::vector<Instance>& partners = node_buffers_[sib];
  CEPJOIN_CHECK_EQ(store.size(), partners.size());
  const size_t n = partners.size();
  if (n == 0) return;
  counters_.instance_kernel_lanes += n;
  counters_.instance_kernel_blocks += (n + 63) / 64;
  LaneMask mask(n);
  uint64_t* alive = mask.words();
  const PredicateProgram& program = cp_.program();
  // TryCombine's gate order, lane-parallel: joint window feasibility
  // first (uncounted), then the parent's cross pairs in order, each lane
  // stopping at its first failing span — survivors and predicate_evals
  // identical to the scalar partner loop. Unlike a leaf mirror, the lane
  // extents are the stored instances' (min_ts, max_ts) columns; dead
  // partners cannot exist outside skip-till-next, which this path
  // excludes.
  WindowMaskInstanceLanes(local.min_ts, local.max_ts, cp_.window(),
                          store.min_ts(), store.max_ts(), n, alive);
  for (const auto& [pa, pb] : cross_pairs_[parent]) {
    // `local` holds one endpoint of every cross pair; the sibling's
    // store mirrors the other endpoint's anchors as a column.
    const int fixed_pos = node_is_left ? pa : pb;
    const int run_pos = node_is_left ? pb : pa;
    const ColumnRun run = store.RunFor(run_pos);
    const EventPtr& anchor = local.by_slot[cp_.pos_to_slot(fixed_pos)];
    program.EvalInstanceRun(fixed_pos, run_pos, *anchor, run, alive,
                            &counters_.predicate_evals);
    if (fixed_pos == kleene_pos_) {
      for (const EventPtr& member : local.kleene_extra) {
        program.EvalInstanceRun(fixed_pos, run_pos, *member, run, alive,
                                &counters_.predicate_evals);
      }
    }
  }
  // Survivors combine in buffer order, exactly like the scalar loop. The
  // mask lives on this frame; recursion appends only at `parent` and
  // above, never to the sibling, so the store's runs stay valid.
  mask.ForEachAlive([&](size_t k) {
    Instance combined;
    if (node_is_left) {
      FillCombined(local, partners[k], &combined);
    } else {
      FillCombined(partners[k], local, &combined);
    }
    NewInstance(parent, std::move(combined));
  });
}

void TreeEngine::Complete(const Instance& inst) {
  Match match;
  match.slots.resize(cp_.num_positions());
  int m = cp_.num_slots();
  for (int s = 0; s < m; ++s) {
    CEPJOIN_CHECK(inst.by_slot[s] != nullptr);
    match.slots[cp_.slot_to_pos(s)].push_back(inst.by_slot[s]);
  }
  for (const EventPtr& e : inst.kleene_extra) {
    match.slots[kleene_pos_].push_back(e);
  }
  const Event* last = nullptr;
  for (const auto& slot : match.slots) {
    for (const EventPtr& e : slot) {
      if (last == nullptr || e->ts > last->ts ||
          (e->ts == last->ts && e->serial > last->serial)) {
        last = e.get();
      }
    }
  }
  match.last_ts = last->ts;
  match.last_event_serial = last->serial;
  match.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    arrival_start_)
          .count();

  if (!completion_checks_.empty()) {
    MatchBound bound(match);
    for (const NegationSpec* neg : completion_checks_) {
      const ColumnBuffer& buffer = neg_buffers_[neg->neg_pos];
      for (size_t bi = 0; bi < buffer.size(); ++bi) {
        if (cp_.NegationViolates(*neg, *buffer[bi], bound, inst.min_ts,
                                 inst.max_ts, &counters_.predicate_evals)) {
          return;
        }
      }
    }
  }
  if (!trailing_checks_.empty()) {
    PendingMatch pending;
    pending.match = std::move(match);
    pending.min_ts = inst.min_ts;
    pending.max_ts = inst.max_ts;
    pending.deadline = inst.min_ts + cp_.window();
    pending_.push_back(std::move(pending));
    return;
  }
  EmitMatch(std::move(match), inst.max_ts);
}

void TreeEngine::EmitMatch(Match match, Timestamp max_ts) {
  match.emit_serial = current_serial_;
  ++counters_.matches_emitted;
  // The sink reads the match while it is hot, then the match moves into
  // the revocation log (the engine is single-threaded, so a retraction
  // can only arrive after OnMatch returns — log-after-emit is safe).
  // No per-match allocations in delta mode beyond the log append.
  sink_->OnMatch(match);
  if (track_deltas_) emitted_.push_back(EmittedMatch{std::move(match), max_ts});
}

void TreeEngine::EmitRevocation(Match match) {
  match.polarity = -1;
  // The revocation's emit position is the retraction being processed;
  // it is strictly greater than the original match's emit_serial, which
  // is what lets the concurrent sink's (emit_serial, partition) sort
  // drain revocations after their matches at any thread count.
  match.emit_serial = current_serial_;
  match.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    arrival_start_)
          .count();
  ++counters_.matches_revoked;
  sink_->OnMatch(match);
}

void TreeEngine::Sweep() {
  CEPJOIN_STAGE_TIMER("tree_sweep");
  events_since_sweep_ = 0;
  Timestamp horizon = now_ - cp_.window();
  for (auto& buffer : neg_buffers_) {
    while (!buffer.empty() && buffer.front()->ts < horizon) {
      counters_.RemoveBuffered(BufferedEventBytes(buffer, *buffer.front()));
      buffer.PopFront();
    }
  }
  std::vector<uint8_t> keep_rows;
  for (size_t node = 0; node < node_buffers_.size(); ++node) {
    std::vector<Instance>& list = node_buffers_[node];
    const bool leaf_mirror = leaf_mirrored_[node] != 0;
    const bool store_mirror = instance_mirrored_[node] != 0;
    const bool mirrored = leaf_mirror || store_mirror;
    if (mirrored) keep_rows.assign(list.size(), 0);
    size_t keep = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      Instance& inst = list[i];
      bool expired = inst.min_ts < horizon;
      if (inst.dead || expired) {
        if (!inst.dead) counters_.RemoveInstance(inst.tracked_bytes);
        if (store_mirror) counters_.RemoveStoreBytes(inst.store_bytes);
        continue;
      }
      if (mirrored) keep_rows[i] = 1;
      if (keep != i) list[keep] = std::move(list[i]);
      ++keep;
    }
    list.resize(keep);
    // Mirrors compact in lockstep so lane k stays partner k.
    if (leaf_mirror) leaf_columns_[node].Filter(keep_rows);
    if (store_mirror) instance_stores_[node].Filter(keep_rows);
  }
  if (track_deltas_ && emitted_.size() >= emitted_scan_threshold_) {
    // Every event of a logged match has ts <= max_ts, so once max_ts
    // leaves the window no in-window retraction can target the match:
    // safe to forget. (Retracting an out-of-window event is a no-op by
    // contract.) Scanning only after the log doubles keeps eviction
    // amortized O(1) per match instead of O(log size) per sweep.
    size_t keep = 0;
    for (size_t i = 0; i < emitted_.size(); ++i) {
      if (emitted_[i].max_ts >= horizon) {
        if (keep != i) emitted_[keep] = std::move(emitted_[i]);
        ++keep;
      }
    }
    emitted_.resize(keep);
    emitted_scan_threshold_ = std::max<size_t>(64, emitted_.size() * 2);
  }
  counters_.UpdatePeakBytes();
}

// --- snapshots --------------------------------------------------------------

Status TreeEngine::SaveState(EngineStateWriter* w) const {
  SnapshotWriter& p = w->payload();
  // Configuration echo: LoadState verifies the restored engine was
  // rebuilt with the same strategy/columnar mode before trusting the
  // payload to line up with its topology.
  p.U8(use_columnar_ ? 1 : 0);
  p.U8(track_deltas_ ? 1 : 0);
  p.U8(next_match_ ? 1 : 0);
  p.U32(static_cast<uint32_t>(node_buffers_.size()));
  p.U32(static_cast<uint32_t>(neg_buffers_.size()));
  for (const ColumnBuffer& buffer : neg_buffers_) {
    p.U64(buffer.size());
    for (size_t i = 0; i < buffer.size(); ++i) w->EventRef(buffer[i]);
  }
  for (const std::vector<Instance>& list : node_buffers_) {
    uint64_t live = 0;
    for (const Instance& inst : list) live += inst.dead ? 0 : 1;
    p.U64(live);
    for (const Instance& inst : list) {
      // Dead husks exist only under skip-till-next (mirrors off there),
      // are invisible to matching, and were refunded when marked: safe
      // to drop, and dropping keeps mirrors congruent at restore.
      if (inst.dead) continue;
      w->EventList(inst.by_slot);
      w->EventList(inst.kleene_extra);
      p.F64(inst.min_ts);
      p.F64(inst.max_ts);
      p.U64(inst.max_serial);
      p.U64(inst.tracked_bytes);
      p.U64(inst.store_bytes);
    }
  }
  p.U64(pending_.size());
  for (const PendingMatch& pm : pending_) {
    w->WriteMatch(pm.match);
    p.F64(pm.min_ts);
    p.F64(pm.max_ts);
    p.F64(pm.deadline);
  }
  p.U64(emitted_.size());
  for (const EmittedMatch& em : emitted_) {
    w->WriteMatch(em.match);
    p.F64(em.max_ts);
  }
  p.U64(emitted_scan_threshold_);
  p.F64(now_);
  p.U64(current_serial_);
  p.U64(events_since_sweep_);
  w->WriteCounters(counters_);
  return Status::Ok();
}

Status TreeEngine::LoadState(EngineStateReader* r) {
  if (counters_.events_processed != 0 || current_serial_ != 0) {
    return Status::FailedPrecondition(
        "LoadState requires a freshly constructed engine");
  }
  SnapshotReader& p = r->payload();
  bool use_columnar = p.U8() != 0;
  bool track_deltas = p.U8() != 0;
  bool next_match = p.U8() != 0;
  uint32_t num_nodes = p.U32();
  uint32_t num_positions = p.U32();
  if (!p.ok()) return p.status();
  if (use_columnar != use_columnar_ || track_deltas != track_deltas_ ||
      next_match != next_match_ || num_nodes != node_buffers_.size() ||
      num_positions != neg_buffers_.size()) {
    return Status::FailedPrecondition(
        "snapshot was written by a tree engine with a different "
        "configuration (plan shape, columnar mode, or selection strategy)");
  }
  for (ColumnBuffer& buffer : neg_buffers_) {
    uint64_t n = p.U64();
    for (uint64_t i = 0; i < n && p.ok(); ++i) {
      EventPtr e = r->EventRef();
      if (e != nullptr) buffer.Append(e);
    }
  }
  for (int node = 0; node < static_cast<int>(node_buffers_.size()); ++node) {
    uint64_t n = p.U64();
    for (uint64_t i = 0; i < n && p.ok(); ++i) {
      Instance inst;
      inst.by_slot = r->EventList();
      inst.kleene_extra = r->EventList();
      inst.min_ts = p.F64();
      inst.max_ts = p.F64();
      inst.max_serial = p.U64();
      inst.tracked_bytes = static_cast<size_t>(p.U64());
      inst.store_bytes = static_cast<size_t>(p.U64());
      if (!p.ok()) break;
      // Replay the NewInstance append path so the columnar mirrors stay
      // in lockstep with the instance list (lane k == instance k); byte
      // accounting comes back with counters_ below.
      node_buffers_[node].push_back(std::move(inst));
      const Instance& stored = node_buffers_[node].back();
      if (leaf_mirrored_[node]) {
        int leaf_item = plan_.node(node).leaf_item;
        if (leaf_item < 0 ||
            leaf_item >= static_cast<int>(stored.by_slot.size()) ||
            stored.by_slot[leaf_item] == nullptr) {
          p.Fail("leaf instance missing its anchor event at node " +
                 std::to_string(node));
          break;
        }
        leaf_columns_[node].Append(stored.by_slot[leaf_item]);
      } else if (instance_mirrored_[node]) {
        instance_stores_[node].Append(stored.min_ts, stored.max_ts,
                                      stored.by_slot);
      }
    }
  }
  uint64_t num_pending = p.U64();
  for (uint64_t i = 0; i < num_pending && p.ok(); ++i) {
    PendingMatch pm;
    pm.match = r->ReadMatch();
    pm.min_ts = p.F64();
    pm.max_ts = p.F64();
    pm.deadline = p.F64();
    if (p.ok()) pending_.push_back(std::move(pm));
  }
  uint64_t num_emitted = p.U64();
  for (uint64_t i = 0; i < num_emitted && p.ok(); ++i) {
    EmittedMatch em;
    em.match = r->ReadMatch();
    em.max_ts = p.F64();
    if (p.ok()) emitted_.push_back(std::move(em));
  }
  emitted_scan_threshold_ = static_cast<size_t>(p.U64());
  now_ = p.F64();
  current_serial_ = p.U64();
  events_since_sweep_ = p.U64();
  EngineCounters restored;
  r->ReadCounters(&restored);
  if (!p.ok()) return p.status();
  counters_ = restored;
  return Status::Ok();
}

}  // namespace cepjoin
