#include "nfa/nfa_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "obs/stage_timer.h"

namespace cepjoin {

// --- construction -----------------------------------------------------------

NfaEngine::NfaEngine(const SimplePattern& pattern, const OrderPlan& plan,
                     MatchSink* sink)
    : cp_(pattern), plan_(plan), sink_(sink) {
  CEPJOIN_CHECK(sink_ != nullptr);
  int m = cp_.num_slots();
  CEPJOIN_CHECK_EQ(plan_.size(), m)
      << "order plan must cover exactly the positive slots";
  step_pos_.resize(m);
  for (int s = 0; s < m; ++s) {
    int slot = plan_.At(s);
    step_pos_[s] = cp_.slot_to_pos(slot);
    if (slot == cp_.kleene_slot()) kleene_step_ = s;
    steps_of_type_[cp_.pos_type(step_pos_[s])].push_back(s);
  }
  buffers_.resize(cp_.num_positions());
  by_state_.resize(m + 1);
  checks_at_state_.resize(m + 1);
  for (const NegationSpec& neg : cp_.negations()) {
    if (neg.trailing) {
      trailing_checks_.push_back(&neg);
      // Trailing checks also validate already-arrived candidates at
      // completion time.
      completion_checks_.push_back(&neg);
      continue;
    }
    if (neg.leading_bounded) {
      // The window-edge lower bound needs the final max_ts.
      completion_checks_.push_back(&neg);
      continue;
    }
    int ready = 0;
    for (int dep : neg.dep_positions) {
      int slot = cp_.pos_to_slot(dep);
      CEPJOIN_CHECK_GE(slot, 0);
      ready = std::max(ready, plan_.StepOf(slot) + 1);
    }
    checks_at_state_[ready].push_back(&neg);
  }
  next_match_ = cp_.strategy() == SelectionStrategy::kSkipTillNext;
  track_deltas_ = cp_.delta_input();
  CEPJOIN_CHECK(!track_deltas_ ||
                cp_.strategy() == SelectionStrategy::kSkipTillAny)
      << "delta input requires skip-till-any: retraction semantics under "
         "skip-till-next/contiguity pruning are undefined";
  use_columnar_ = ColumnarKernelsEnabled() && !next_match_;
  // Column mirrors cost an append per field; keep them only where the
  // run kernels will read them — positive positions' creation scans.
  // Negated positions are iterated row-wise by the negation checks.
  for (int pos = 0; pos < cp_.num_positions(); ++pos) {
    if (!use_columnar_ || cp_.pos_to_slot(pos) < 0) {
      buffers_[pos].DisableColumns();
    }
  }
}

// --- bound accessor over an instance ---------------------------------------

namespace {

class NfaBound : public BoundAccessor {
 public:
  NfaBound(const std::vector<int>& step_pos,
           const std::vector<EventPtr>& events,
           const std::vector<EventPtr>& kleene_extra, int kleene_pos)
      : step_pos_(step_pos),
        events_(events),
        kleene_extra_(kleene_extra),
        kleene_pos_(kleene_pos) {}

  void ForEach(int pos,
               const std::function<void(const Event&)>& fn) const override {
    for (size_t s = 0; s < events_.size(); ++s) {
      if (step_pos_[s] == pos) fn(*events_[s]);
    }
    if (pos == kleene_pos_) {
      for (const EventPtr& e : kleene_extra_) fn(*e);
    }
  }

 private:
  const std::vector<int>& step_pos_;
  const std::vector<EventPtr>& events_;
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

// --- event flow --------------------------------------------------------------

void NfaEngine::OnEvent(const EventPtr& e) {
  arrival_start_ = std::chrono::steady_clock::now();
  ProcessEvent(e);
}

void NfaEngine::OnBatch(const EventPtr* events, size_t n) {
  if (n == 0) return;
  // One latency anchor per batch instead of one clock read per event;
  // everything else (sweep cadence, pending processing, extension order)
  // is byte-identical to the per-event path, so matches and counters are
  // too.
  arrival_start_ = std::chrono::steady_clock::now();
  CEPJOIN_STAGE_TIMER("nfa_on_batch");
  for (size_t i = 0; i < n; ++i) ProcessEvent(events[i]);
}

void NfaEngine::ProcessEvent(const EventPtr& e) {
  CEPJOIN_CHECK(e != nullptr);
  ++counters_.events_processed;
  now_ = e->ts;
  current_serial_ = e->serial;
  if (++events_since_sweep_ >= kSweepEvery) Sweep();
  if (e->IsRetraction()) {
    // A retraction advances time (matches whose trailing window closed
    // before it are now final and revocable), but it is a command, not
    // an occurrence: it never buffers, extends, or negates.
    ProcessPendingDeadlines(*e);
    ProcessRetraction(*e);
    return;
  }
  ProcessPending(*e);
  BufferEvent(e);
  ExtendWithArrival(e);
}

void NfaEngine::Finish() {
  for (PendingMatch& p : pending_) {
    EmitMatch(std::move(p.match), p.max_ts);
  }
  pending_.clear();
}

void NfaEngine::ProcessPendingDeadlines(const Event& e) {
  if (pending_.empty()) return;
  // Emit matches whose trailing window closed strictly before `e`.
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

void NfaEngine::ProcessPending(const Event& e) {
  if (pending_.empty()) return;
  ProcessPendingDeadlines(e);
  // Kill survivors that `e` invalidates.
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

void NfaEngine::RemoveFromBuffer(ColumnBuffer* buffer, EventSerial serial) {
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

void NfaEngine::ProcessRetraction(const Event& r) {
  CEPJOIN_CHECK(track_deltas_)
      << "retraction fed to an engine whose pattern lacks WithDeltaInput()";
  ++counters_.retractions_processed;
  const EventSerial target = r.target_serial;
  // Window/negation buffers: the retracted event is buffered at every
  // position of its type that its unary predicate admitted — the same
  // set BufferEvent appended to. Exact byte refund, mirrors in lockstep.
  for (int pos : cp_.positions_of_type(r.type)) {
    RemoveFromBuffer(&buffers_[pos], target);
  }
  // Partial matches bound to the retracted event die. Husks stay for the
  // next Sweep, exactly like skip-till-next's MarkDead — the NFA scans
  // buffers, not instance lists, on its columnar path, so dead entries
  // are safe to leave behind.
  for (size_t s = 0; s < by_state_.size(); ++s) {
    std::vector<Instance>& list = by_state_[s];
    for (size_t i = 0; i < list.size(); ++i) {
      const Instance& inst = list[i];
      if (inst.dead) continue;
      bool contains = false;
      for (const EventPtr& used : inst.events) {
        if (used->serial == target) {
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
      if (contains) MarkDead(static_cast<int>(s), i);
    }
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

void NfaEngine::BufferEvent(const EventPtr& e) {
  for (int pos : cp_.positions_of_type(e->type)) {
    if (!cp_.program().EvalUnary(pos, *e, &counters_.predicate_evals)) {
      continue;
    }
    counters_.AddBuffered(BufferedEventBytes(buffers_[pos], *e));
    buffers_[pos].Append(e);
  }
}

void NfaEngine::ExtendWithArrival(const EventPtr& e) {
  // Snapshot list sizes: instances created during this arrival's cascades
  // consume `e` (if at all) via their creation scans, never here.
  std::vector<size_t> pre_size(by_state_.size());
  for (size_t s = 0; s < by_state_.size(); ++s) pre_size[s] = by_state_[s].size();

  auto it = steps_of_type_.find(e->type);
  if (it != steps_of_type_.end()) {
    for (int s : it->second) {
      if (s == 0) {
        Instance root;
        if (TryExtend(root, 0, e, &root)) {
          Cascade(std::move(root), 1);
        }
        continue;
      }
      for (size_t idx = 0; idx < pre_size[s]; ++idx) {
        // Note: by_state_[s] may grow (Kleene absorption at this state),
        // so re-index every iteration.
        if (by_state_[s][idx].dead) continue;
        Instance child;
        if (TryExtend(by_state_[s][idx], s, e, &child)) {
          if (next_match_) MarkDead(s, idx);
          Cascade(std::move(child), s + 1);
        }
      }
    }
  }
  // Kleene absorption by arrival: instances whose Kleene slot is filled
  // and whose next step is not (state == kleene_step_ + 1) may branch.
  if (kleene_step_ >= 0 &&
      cp_.pos_type(step_pos_[kleene_step_]) == e->type && !next_match_) {
    int ks = kleene_step_ + 1;
    for (size_t idx = 0; idx < pre_size[ks]; ++idx) {
      if (by_state_[ks][idx].dead) continue;
      Instance child;
      if (TryAbsorb(by_state_[ks][idx], e, &child)) {
        Cascade(std::move(child), ks);
      }
    }
  }
}

bool NfaEngine::TryExtend(const Instance& parent, int state, const EventPtr& e,
                          Instance* child) {
  int pos = step_pos_[state];
  if (!cp_.program().EvalUnary(pos, *e, &counters_.predicate_evals)) {
    return false;
  }
  // Window feasibility.
  Timestamp min_ts = state == 0 ? e->ts : std::min(parent.min_ts, e->ts);
  Timestamp max_ts = state == 0 ? e->ts : std::max(parent.max_ts, e->ts);
  if (max_ts - min_ts > cp_.window()) return false;
  // No event fills two slots of one match.
  for (const EventPtr& used : parent.events) {
    if (used.get() == e.get()) return false;
  }
  for (const EventPtr& used : parent.kleene_extra) {
    if (used.get() == e.get()) return false;
  }
  // Pairwise conditions against every bound slot (Kleene members too).
  for (int j = 0; j < state; ++j) {
    if (!cp_.program().EvalPair(step_pos_[j], pos, *parent.events[j], *e,
                                &counters_.predicate_evals)) {
      return false;
    }
  }
  if (kleene_step_ >= 0 && kleene_step_ < state) {
    int kpos = step_pos_[kleene_step_];
    for (const EventPtr& member : parent.kleene_extra) {
      if (!cp_.program().EvalPair(kpos, pos, *member, *e,
                                  &counters_.predicate_evals)) {
        return false;
      }
    }
  }
  *child = parent;
  child->events.push_back(e);
  child->min_ts = min_ts;
  child->max_ts = max_ts;
  child->creation_serial = current_serial_;
  child->dead = false;
  if (state == kleene_step_) child->max_kleene_serial = e->serial;
  return true;
}

bool NfaEngine::TryAbsorb(const Instance& parent, const EventPtr& e,
                          Instance* child) {
  // Canonical subset enumeration: members join in increasing serial order.
  if (e->serial <= parent.max_kleene_serial) return false;
  int kpos = step_pos_[kleene_step_];
  if (!cp_.program().EvalUnary(kpos, *e, &counters_.predicate_evals)) {
    return false;
  }
  Timestamp min_ts = std::min(parent.min_ts, e->ts);
  Timestamp max_ts = std::max(parent.max_ts, e->ts);
  if (max_ts - min_ts > cp_.window()) return false;
  for (const EventPtr& used : parent.events) {
    if (used.get() == e.get()) return false;
  }
  for (const EventPtr& used : parent.kleene_extra) {
    if (used.get() == e.get()) return false;
  }
  for (size_t j = 0; j < parent.events.size(); ++j) {
    if (static_cast<int>(j) == kleene_step_) continue;
    if (!cp_.program().EvalPair(step_pos_[j], kpos, *parent.events[j], *e,
                                &counters_.predicate_evals)) {
      return false;
    }
  }
  *child = parent;
  child->kleene_extra.push_back(e);
  child->min_ts = min_ts;
  child->max_ts = max_ts;
  child->creation_serial = current_serial_;
  child->max_kleene_serial = e->serial;
  child->dead = false;
  return true;
}

bool NfaEngine::RunNegationChecks(const Instance& inst, int state) {
  if (checks_at_state_[state].empty()) return true;
  NfaBound bound(step_pos_, inst.events, inst.kleene_extra,
                 kleene_step_ >= 0 ? step_pos_[kleene_step_] : -1);
  for (const NegationSpec* neg : checks_at_state_[state]) {
    const ColumnBuffer& buffer = buffers_[neg->neg_pos];
    for (size_t bi = 0; bi < buffer.size(); ++bi) {
      if (cp_.NegationViolates(*neg, *buffer[bi], bound, inst.min_ts,
                               inst.max_ts, &counters_.predicate_evals)) {
        return false;
      }
    }
  }
  return true;
}

void NfaEngine::Cascade(Instance&& inst, int state) {
  if (!RunNegationChecks(inst, state)) return;
  int m = NumSteps();
  bool kleene_last = kleene_step_ == m - 1;
  if (state == m) {
    Complete(inst);
    if (!kleene_last || next_match_) return;
    // Keep completed instances so later Kleene members can still extend
    // the final slot's set.
  }
  size_t idx = StoreInstance(state, std::move(inst));
  // Work from a stable copy: cascades below may reallocate by_state_[state].
  Instance local = by_state_[state][idx];

  if (state < m) {
    // Creation scan: consume buffered events for this step. The columnar
    // path evaluates the whole run through the vectorized kernels; the
    // scalar per-candidate loop remains the oracle and the
    // skip-till-next path (its first-success early exit stops evaluating
    // mid-run, which run-at-a-time counting cannot reproduce).
    if (use_columnar_) {
      CreationScanColumnar(local, state);
    } else {
      const ColumnBuffer& buffer = buffers_[step_pos_[state]];
      for (size_t bi = 0; bi < buffer.size(); ++bi) {
        Instance child;
        if (TryExtend(local, state, buffer[bi], &child)) {
          if (next_match_) {
            MarkDead(state, idx);
            Cascade(std::move(child), state + 1);
            return;
          }
          Cascade(std::move(child), state + 1);
        }
      }
    }
  }
  // Kleene creation-absorption: grow the member set from buffered events
  // newer than the current maximum member.
  if (kleene_step_ >= 0 && state == kleene_step_ + 1 && !next_match_) {
    const ColumnBuffer& buffer = buffers_[step_pos_[kleene_step_]];
    for (size_t bi = 0; bi < buffer.size(); ++bi) {
      Instance child;
      if (TryAbsorb(local, buffer[bi], &child)) {
        Cascade(std::move(child), state);
      }
    }
  }
}

void NfaEngine::CreationScanColumnar(const Instance& parent, int state) {
  CEPJOIN_STAGE_TIMER("nfa_creation_scan");
  const ColumnBuffer& buffer = buffers_[step_pos_[state]];
  const size_t n = buffer.size();
  if (n == 0) return;
  const int pos = step_pos_[state];
  const ColumnRun run = buffer.Run();
  LaneMask mask(n);
  uint64_t* alive = mask.words();
  const PredicateProgram& program = cp_.program();
  // Gate order mirrors TryExtend exactly — unary filter, window
  // feasibility, no-reuse, pairwise spans, Kleene-member spans — so the
  // survivor set, the cascade order, and predicate_evals are all
  // bit-identical to the scalar scan.
  program.EvalUnaryRun(pos, run, alive, &counters_.predicate_evals);
  WindowMaskLanes(parent.min_ts, parent.max_ts, cp_.window(), run, alive);
  for (const EventPtr& used : parent.events) {
    ClearLanesOf(run, used.get(), alive);
  }
  for (const EventPtr& used : parent.kleene_extra) {
    ClearLanesOf(run, used.get(), alive);
  }
  for (int j = 0; j < state; ++j) {
    program.EvalPairRun(step_pos_[j], pos, *parent.events[j], run, alive,
                        &counters_.predicate_evals);
  }
  if (kleene_step_ >= 0 && kleene_step_ < state) {
    const int kpos = step_pos_[kleene_step_];
    for (const EventPtr& member : parent.kleene_extra) {
      program.EvalPairRun(kpos, pos, *member, run, alive,
                          &counters_.predicate_evals);
    }
  }
  // Survivors extend `parent` in buffer order, exactly like the scalar
  // scan. The mask lives on this frame and the buffer cannot change
  // during the cascades (BufferEvent/Sweep only run between arrivals),
  // so iterating while recursing is safe.
  mask.ForEachAlive([&](size_t k) {
    const EventPtr& b = buffer[k];
    Instance child = parent;
    child.events.push_back(b);
    child.min_ts = std::min(parent.min_ts, b->ts);
    child.max_ts = std::max(parent.max_ts, b->ts);
    child.creation_serial = current_serial_;
    child.dead = false;
    if (state == kleene_step_) child.max_kleene_serial = b->serial;
    Cascade(std::move(child), state + 1);
  });
}

void NfaEngine::Complete(const Instance& inst) {
  Match match;
  match.slots.resize(cp_.num_positions());
  for (size_t s = 0; s < inst.events.size(); ++s) {
    match.slots[step_pos_[s]].push_back(inst.events[s]);
  }
  if (kleene_step_ >= 0) {
    for (const EventPtr& e : inst.kleene_extra) {
      match.slots[step_pos_[kleene_step_]].push_back(e);
    }
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

  // Completion-time negation checks (leading / window-bounded).
  if (!completion_checks_.empty()) {
    MatchBound bound(match);
    for (const NegationSpec* neg : completion_checks_) {
      const ColumnBuffer& buffer = buffers_[neg->neg_pos];
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

void NfaEngine::EmitMatch(Match match, Timestamp max_ts) {
  match.emit_serial = current_serial_;
  ++counters_.matches_emitted;
  // The sink reads the match while it is hot, then the match moves into
  // the revocation log (the engine is single-threaded, so a retraction
  // can only arrive after OnMatch returns — log-after-emit is safe).
  // No per-match allocations in delta mode beyond the log append.
  sink_->OnMatch(match);
  if (track_deltas_) emitted_.push_back(EmittedMatch{std::move(match), max_ts});
}

void NfaEngine::EmitRevocation(Match match) {
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

size_t NfaEngine::StoreInstance(int state, Instance&& inst) {
  inst.tracked_bytes = inst.ApproxBytes();
  counters_.AddInstance(inst.tracked_bytes);
  by_state_[state].push_back(std::move(inst));
  return by_state_[state].size() - 1;
}

void NfaEngine::MarkDead(int state, size_t idx) {
  Instance& inst = by_state_[state][idx];
  if (!inst.dead) {
    inst.dead = true;
    counters_.RemoveInstance(inst.tracked_bytes);
  }
}

void NfaEngine::Sweep() {
  CEPJOIN_STAGE_TIMER("nfa_sweep");
  events_since_sweep_ = 0;
  Timestamp horizon = now_ - cp_.window();
  for (auto& buffer : buffers_) {
    while (!buffer.empty() && buffer.front()->ts < horizon) {
      counters_.RemoveBuffered(BufferedEventBytes(buffer, *buffer.front()));
      buffer.PopFront();
    }
  }
  for (auto& list : by_state_) {
    size_t keep = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      Instance& inst = list[i];
      bool expired = inst.min_ts < horizon;
      if (inst.dead || expired) {
        if (!inst.dead) counters_.RemoveInstance(inst.tracked_bytes);
        continue;
      }
      if (keep != i) list[keep] = std::move(list[i]);
      ++keep;
    }
    list.resize(keep);
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

Status NfaEngine::SaveState(EngineStateWriter* w) const {
  SnapshotWriter& p = w->payload();
  // Configuration echo: LoadState verifies the restored engine was
  // rebuilt with the same strategy/columnar mode before trusting the
  // payload to line up with its topology.
  p.U8(use_columnar_ ? 1 : 0);
  p.U8(track_deltas_ ? 1 : 0);
  p.U8(next_match_ ? 1 : 0);
  p.U32(static_cast<uint32_t>(buffers_.size()));
  p.U32(static_cast<uint32_t>(by_state_.size()));
  for (const ColumnBuffer& buffer : buffers_) {
    p.U64(buffer.size());
    for (size_t i = 0; i < buffer.size(); ++i) w->EventRef(buffer[i]);
  }
  for (const std::vector<Instance>& list : by_state_) {
    uint64_t live = 0;
    for (const Instance& inst : list) live += inst.dead ? 0 : 1;
    p.U64(live);
    for (const Instance& inst : list) {
      // Dead husks are invisible to matching and the next Sweep would
      // drop them; their bytes were refunded at MarkDead, so skipping
      // them keeps the restored run byte-identical.
      if (inst.dead) continue;
      w->EventList(inst.events);
      w->EventList(inst.kleene_extra);
      p.F64(inst.min_ts);
      p.F64(inst.max_ts);
      p.U64(inst.creation_serial);
      p.U64(inst.max_kleene_serial);
      p.U64(inst.tracked_bytes);
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

Status NfaEngine::LoadState(EngineStateReader* r) {
  if (counters_.events_processed != 0 || current_serial_ != 0) {
    return Status::FailedPrecondition(
        "LoadState requires a freshly constructed engine");
  }
  SnapshotReader& p = r->payload();
  bool use_columnar = p.U8() != 0;
  bool track_deltas = p.U8() != 0;
  bool next_match = p.U8() != 0;
  uint32_t num_positions = p.U32();
  uint32_t num_states = p.U32();
  if (!p.ok()) return p.status();
  if (use_columnar != use_columnar_ || track_deltas != track_deltas_ ||
      next_match != next_match_ || num_positions != buffers_.size() ||
      num_states != by_state_.size()) {
    return Status::FailedPrecondition(
        "snapshot was written by an NFA engine with a different "
        "configuration (plan shape, columnar mode, or selection strategy)");
  }
  for (ColumnBuffer& buffer : buffers_) {
    uint64_t n = p.U64();
    for (uint64_t i = 0; i < n && p.ok(); ++i) {
      EventPtr e = r->EventRef();
      // Appends in saved order rebuild the column mirrors and re-latch
      // the schema; byte accounting comes back with counters_ below.
      if (e != nullptr) buffer.Append(e);
    }
  }
  for (std::vector<Instance>& list : by_state_) {
    uint64_t n = p.U64();
    for (uint64_t i = 0; i < n && p.ok(); ++i) {
      Instance inst;
      inst.events = r->EventList();
      inst.kleene_extra = r->EventList();
      inst.min_ts = p.F64();
      inst.max_ts = p.F64();
      inst.creation_serial = p.U64();
      inst.max_kleene_serial = p.U64();
      inst.tracked_bytes = static_cast<size_t>(p.U64());
      if (p.ok()) list.push_back(std::move(inst));
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
