#ifndef CEPJOIN_TREE_TREE_ENGINE_H_
#define CEPJOIN_TREE_TREE_ENGINE_H_

#include <chrono>
#include <vector>

#include "plan/tree_plan.h"
#include "runtime/column_buffer.h"
#include "runtime/compiled_pattern.h"
#include "runtime/instance_store.h"
#include "runtime/engine.h"
#include "runtime/match.h"

namespace cepjoin {

/// Instance-based tree evaluation engine (Sec. 2.3): ZStream's tree model
/// modified for arbitrary time windows. Each plan node buffers the
/// partial matches ("instances") its subtree has produced. A new event is
/// routed to its leaf; every new instance at a node is combined with the
/// instances currently buffered at its sibling, producing instances at
/// the parent, recursively up to the root where matches are emitted.
///
/// Exactly-once: a (left, right) instance pair is combined exactly when
/// the later-created of the two is created. Kleene leaves enumerate
/// canonical subsets (members join in increasing serial order). Negation
/// checks attach to the lowest node covering all guard slots; leading /
/// AND-window / trailing checks run at the root with deferred emission,
/// as in the NFA engine.
class TreeEngine : public Engine {
 public:
  TreeEngine(const SimplePattern& pattern, const TreePlan& plan,
             MatchSink* sink);

  void OnEvent(const EventPtr& e) override;
  /// Batched entry point: identical matches and counters to per-event
  /// feeding; amortizes the dispatch and the latency clock read.
  void OnBatch(const EventPtr* events, size_t n) override;
  void Finish() override;

  /// Checkpoint support. The serialized/rebuilt split of every member is
  /// pinned in the CODEC MANIFEST (durable/snapshot_codec.cc); the
  /// columnar leaf/instance mirrors are rebuilt at load by replaying the
  /// NewInstance append path, preserving lane == instance congruence.
  [[nodiscard]] Status SaveState(EngineStateWriter* w) const override;
  [[nodiscard]] Status LoadState(EngineStateReader* r) override;

  const CompiledPattern& compiled() const { return cp_; }
  const TreePlan& plan() const { return plan_; }

 private:
  struct Instance {
    std::vector<EventPtr> by_slot;       // size m; null when unbound
    std::vector<EventPtr> kleene_extra;  // members beyond the anchor
    Timestamp min_ts = 0.0;
    Timestamp max_ts = 0.0;
    EventSerial max_serial = 0;  // newest member; Kleene canonical order
    bool dead = false;
    /// Bytes charged to counters_ when this instance was buffered; the
    /// matching remove uses this (never a recomputed ApproxBytes), so
    /// byte totals cannot drift even if capacities change in between.
    size_t tracked_bytes = 0;
    /// Bytes its node's columnar InstanceStore mirror charged for this
    /// instance (0 when the node is not instance-mirrored). Same
    /// record-the-added-size discipline as tracked_bytes.
    size_t store_bytes = 0;

    size_t ApproxBytes() const {
      return sizeof(Instance) +
             (by_slot.capacity() + kleene_extra.capacity()) *
                 sizeof(EventPtr);
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

  /// OnEvent minus the latency clock read (hoisted per batch by OnBatch).
  void ProcessEvent(const EventPtr& e);
  void ProcessPending(const Event& e);
  /// The deadline-emission half of ProcessPending: emits pending matches
  /// whose trailing window closed strictly before `e`. Retractions run
  /// only this half — a retraction is a command, not a negation
  /// candidate.
  void ProcessPendingDeadlines(const Event& e);
  /// Consumes one polarity=-1 event: drops the retracted event from the
  /// negation buffers, deletes every node instance bound to it (rows and
  /// columnar leaf/store mirrors compacted in lockstep, store_bytes
  /// refunded exactly — the columnar combine requires mirrors congruent
  /// with live instances), discards pending matches containing it, and
  /// emits revocations for previously emitted matches that do and whose
  /// max_ts is still inside the window (>= r.ts - window).
  void ProcessRetraction(const Event& r);
  /// Removes the row with `serial` from `buffer`, refunding its exact
  /// buffered bytes. No-op if absent.
  void RemoveFromBuffer(ColumnBuffer* buffer, EventSerial serial);
  void BufferNegated(const EventPtr& e);
  void ArriveAtLeaf(int leaf_node, const EventPtr& e);
  /// Negation-checks, buffers, and cascades a freshly created instance.
  void NewInstance(int node, Instance&& inst);
  /// Non-const: predicate evaluations count into counters_.
  bool TryCombine(int parent, const Instance& a, const Instance& b,
                  Instance* out);
  /// TryCombine's construction tail: slot-wise union of a (left) and b
  /// (right) with recomputed extent. Shared by the scalar path and the
  /// columnar survivor materialization.
  void FillCombined(const Instance& a, const Instance& b, Instance* out);
  /// Run-at-a-time combine against a mirrored (non-Kleene) leaf sibling:
  /// window + cross-pair gates evaluated over the leaf's column run with
  /// a survivor bitmask, then survivors cascade in buffer order. Matches
  /// and predicate_evals are bit-identical to the scalar partner loop;
  /// used when columnar kernels are enabled and the strategy is not
  /// skip-till-next (whose left-side early exit stops evaluating
  /// mid-run).
  void CombineWithLeafRun(const Instance& local, int sib, int parent,
                          bool node_is_left);
  /// Run-at-a-time combine against a mirrored *internal-node* sibling:
  /// the instance×instance counterpart of CombineWithLeafRun. The
  /// window-overlap gate runs vectorized over the store's (min_ts,
  /// max_ts) extent columns, then each cross pair of the parent probes
  /// the sibling's anchor column for its store-side position through the
  /// masked EvalInstanceRun kernels. Matches and predicate_evals are
  /// bit-identical to the scalar partner loop.
  void CombineWithInstanceRun(const Instance& local, int sib, int parent,
                              bool node_is_left);
  bool NodeNegationChecks(int node, const Instance& inst);
  void Complete(const Instance& inst);
  /// `max_ts` is the match's window upper edge, keyed by the revocation
  /// log's eviction; unused (and uncopied) for insert-only patterns.
  void EmitMatch(Match match, Timestamp max_ts);
  void EmitRevocation(Match match);
  void Sweep();

  CompiledPattern cp_;
  TreePlan plan_;
  MatchSink* sink_;

  int kleene_pos_ = -1;  // pattern position of the Kleene slot, -1 if none
  // leaf nodes accepting each event type
  std::unordered_map<TypeId, std::vector<int>> leaves_of_type_;
  // per internal node: pattern-position pairs with conditions across the
  // left/right split
  std::vector<std::vector<std::pair<int, int>>> cross_pairs_;
  // per node: negation checks that become ready there
  std::vector<std::vector<const NegationSpec*>> checks_at_node_;
  std::vector<const NegationSpec*> completion_checks_;
  std::vector<const NegationSpec*> trailing_checks_;

  std::vector<std::vector<Instance>> node_buffers_;
  /// Negated-position window buffers, columnar (per pattern position).
  std::vector<ColumnBuffer> neg_buffers_;
  /// Per non-Kleene leaf node: the anchor events of node_buffers_[leaf]
  /// mirrored attr-major, appended/evicted in lockstep — the probe-side
  /// runs of the vectorized combine.
  std::vector<ColumnBuffer> leaf_columns_;
  std::vector<uint8_t> leaf_mirrored_;  // per node
  /// Per eligible internal node: its buffered instances mirrored
  /// attr-major — window extents plus the anchor columns of the
  /// positions its parent's cross pairs read on this side — appended and
  /// filtered in lockstep with node_buffers_. A node stays scalar
  /// (rows-only) when the columnar path is off, when it is the root, or
  /// when a parent cross pair reads the Kleene position on this side
  /// (subset members live in kleene_extra, not in a single column).
  std::vector<InstanceStore> instance_stores_;
  std::vector<uint8_t> instance_mirrored_;  // per node
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
  /// leaf mirrors are only built when it holds.
  bool use_columnar_ = true;

  static constexpr uint64_t kSweepEvery = 64;
};

}  // namespace cepjoin

#endif  // CEPJOIN_TREE_TREE_ENGINE_H_
