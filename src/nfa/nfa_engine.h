#ifndef CEPJOIN_NFA_NFA_ENGINE_H_
#define CEPJOIN_NFA_NFA_ENGINE_H_

#include <chrono>
#include <vector>

#include "plan/order_plan.h"
#include "runtime/column_buffer.h"
#include "runtime/compiled_pattern.h"
#include "runtime/engine.h"
#include "runtime/match.h"

namespace cepjoin {

/// Out-of-order lazy NFA (Sec. 2.2, after Kolchinsky et al. '15): a chain
/// of m+1 states following an arbitrary order plan over the pattern's
/// positive slots. Step s of the plan fills one slot; events that arrive
/// before their step is reached are buffered and consumed when an
/// instance reaches that step.
///
/// ## Exactly-once enumeration
/// Every instance records the serial of the arrival being processed when
/// it was created (`creation_serial`). Two extension paths exist for a
/// candidate event e at step s of instance I:
///   (a) creation scan — when I is created, it immediately consumes every
///       buffered event of step s's type (serial ≤ I.creation_serial, not
///       already in I);
///   (b) arrival extension — a newly arriving e extends only instances
///       with creation_serial < e.serial.
/// For any (I, s, e) exactly one path applies: (a) iff e arrived no later
/// than I's creation, (b) iff later — so each slot combination is
/// enumerated exactly once. Kleene slots additionally require members to
/// be absorbed in increasing serial order with the set frozen once the
/// next step is filled, which makes each member *set* reachable by
/// exactly one absorption sequence (DESIGN.md, "Kleene closure").
///
/// Negation follows Sec. 5.3: checks run at the earliest step where all
/// guard slots are bound; leading/AND checks run at completion; trailing
/// checks defer emission until the window closes (pending queue).
///
/// Selection strategies (Sec. 6.2): skip-till-any branches on every
/// candidate; skip-till-next retires an instance after its first
/// successful extension; the contiguity strategies are enforced through
/// the rewritten adjacency predicates.
class NfaEngine : public Engine {
 public:
  NfaEngine(const SimplePattern& pattern, const OrderPlan& plan,
            MatchSink* sink);

  void OnEvent(const EventPtr& e) override;
  /// Batched entry point: identical matches and counters to per-event
  /// feeding; amortizes the dispatch and the latency clock read.
  void OnBatch(const EventPtr* events, size_t n) override;
  void Finish() override;

  /// Checkpoint support. The serialized/rebuilt split of every member is
  /// pinned in the CODEC MANIFEST (durable/snapshot_codec.cc).
  [[nodiscard]] Status SaveState(EngineStateWriter* w) const override;
  [[nodiscard]] Status LoadState(EngineStateReader* r) override;

  const CompiledPattern& compiled() const { return cp_; }
  const OrderPlan& plan() const { return plan_; }

 private:
  struct Instance {
    std::vector<EventPtr> events;        // by step index
    std::vector<EventPtr> kleene_extra;  // Kleene members beyond the anchor
    Timestamp min_ts = 0.0;
    Timestamp max_ts = 0.0;
    EventSerial creation_serial = 0;
    EventSerial max_kleene_serial = 0;
    bool dead = false;
    /// Bytes charged to counters_ when this instance was stored; the
    /// matching remove uses this (never a recomputed ApproxBytes), so
    /// byte totals cannot drift even if capacities change in between.
    size_t tracked_bytes = 0;

    size_t ApproxBytes() const {
      return sizeof(Instance) +
             (events.capacity() + kleene_extra.capacity()) * sizeof(EventPtr);
    }
  };

  struct PendingMatch {
    Match match;
    Timestamp min_ts = 0.0;
    Timestamp max_ts = 0.0;
    Timestamp deadline = 0.0;
  };

  /// Delta input only: an emitted match kept revocable while any of its
  /// events can still be retracted. Evicted once max_ts leaves the
  /// window — every event of the match has ts <= max_ts, so an
  /// in-window retraction target implies max_ts is in window too.
  struct EmittedMatch {
    Match match;
    Timestamp max_ts = 0.0;
  };

  // --- construction-time topology ---
  int NumSteps() const { return plan_.size(); }
  int StepPos(int step) const { return step_pos_[step]; }

  // --- event flow ---
  /// OnEvent minus the latency clock read (hoisted per batch by OnBatch).
  void ProcessEvent(const EventPtr& e);
  void ProcessPending(const Event& e);
  /// The deadline-emission half of ProcessPending: emits pending matches
  /// whose trailing window closed strictly before `e`. Retractions run
  /// only this half — a retraction is a command, not a negation
  /// candidate.
  void ProcessPendingDeadlines(const Event& e);
  /// Consumes one polarity=-1 event: drops the retracted event from the
  /// window/negation buffers, kills every partial match bound to it,
  /// discards pending (never-emitted) matches containing it, and emits
  /// revocations for previously emitted matches that do and whose
  /// max_ts is still inside the window (>= r.ts - window).
  void ProcessRetraction(const Event& r);
  /// Removes the row with `serial` from `buffer` (columns in lockstep),
  /// refunding its exact buffered bytes. No-op if absent.
  void RemoveFromBuffer(ColumnBuffer* buffer, EventSerial serial);
  void BufferEvent(const EventPtr& e);
  void ExtendWithArrival(const EventPtr& e);
  /// Runs ready negation checks, stores the instance, performs creation
  /// scans (next-step consumption + Kleene absorption), and recurses.
  void Cascade(Instance&& inst, int state);
  /// Returns true and fills `child` if `e` can fill step `state` of
  /// `parent`. Non-const: predicate evaluations count into counters_.
  bool TryExtend(const Instance& parent, int state, const EventPtr& e,
                 Instance* child);
  bool TryAbsorb(const Instance& parent, const EventPtr& e, Instance* child);
  /// Run-at-a-time creation scan: evaluates every TryExtend gate for the
  /// whole buffered run of step `state`'s position through the columnar
  /// predicate kernels (survivor bitmask), then cascades survivors in
  /// buffer order. Match sequences and predicate_evals are bit-identical
  /// to the scalar per-candidate scan; used when columnar kernels are
  /// enabled and the strategy is not skip-till-next (whose first-success
  /// early exit stops evaluating mid-run).
  void CreationScanColumnar(const Instance& parent, int state);
  bool RunNegationChecks(const Instance& inst, int state);
  void Complete(const Instance& inst);
  /// `max_ts` is the match's window upper edge, keyed by the revocation
  /// log's eviction; unused (and uncopied) for insert-only patterns.
  void EmitMatch(Match match, Timestamp max_ts);
  void EmitRevocation(Match match);
  void Sweep();

  size_t StoreInstance(int state, Instance&& inst);
  void MarkDead(int state, size_t idx);

  CompiledPattern cp_;
  OrderPlan plan_;
  MatchSink* sink_;

  std::vector<int> step_pos_;   // step -> pattern position
  int kleene_step_ = -1;        // step filling the Kleene slot, -1 if none
  // steps (by state index == step index) expecting each type
  std::unordered_map<TypeId, std::vector<int>> steps_of_type_;
  // negation checks to run when an instance *enters* a given state
  std::vector<std::vector<const NegationSpec*>> checks_at_state_;
  std::vector<const NegationSpec*> completion_checks_;
  std::vector<const NegationSpec*> trailing_checks_;

  /// Per pattern position, attr-major + row handles: the columnar window
  /// buffer the run kernels scan.
  std::vector<ColumnBuffer> buffers_;
  std::vector<std::vector<Instance>> by_state_;    // states 1..m (and m)
  std::vector<PendingMatch> pending_;
  /// Revocation log, append-ordered; empty unless track_deltas_.
  std::vector<EmittedMatch> emitted_;
  /// Sweep evicts the log only once it grows past this (then re-arms at
  /// 2x the surviving size), so eviction is amortized O(1) per match.
  size_t emitted_scan_threshold_ = 64;

  Timestamp now_ = 0.0;
  EventSerial current_serial_ = 0;
  std::chrono::steady_clock::time_point arrival_start_{};
  uint64_t events_since_sweep_ = 0;
  bool next_match_ = false;
  /// pattern.delta_input(): accept retractions and log emitted matches
  /// for revocation. Off (the default) costs insert-only streams one
  /// predictable branch per event.
  bool track_deltas_ = false;
  /// ColumnarKernelsEnabled() && !skip-till-next, fixed at construction;
  /// also decides which buffers keep column mirrors at all.
  bool use_columnar_ = true;

  static constexpr uint64_t kSweepEvery = 64;
};

}  // namespace cepjoin

#endif  // CEPJOIN_NFA_NFA_ENGINE_H_
