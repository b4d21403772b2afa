// The task forest: the one reconstruction of the task structure from a
// recorded trace.  trace::analyze_trace builds it inside its one replay
// of the merged stream (which also reads each running task's construct
// from it); the trace analyses, diagnose (work/span, the spawn-chain
// detector) and whatif (the sync-aware span) query it.
//
// One node per task (explicit tasks, and one implicit task per thread
// and parallel region) holds an ordered item list:
//
//   Segment{active, work}  executed time between structural points
//   Create{child}          a child task spawned here
//   Join                   a taskwait/barrier completed here
//
// Storage is flat: a node array and an item array, each node's items
// one contiguous range, children referenced by node index.  A creator
// always has a smaller index than its child (it is running, so already
// known, when the child is first seen), and the first create of an id
// wins; creates that would break either rule (duplicate ids in foreign
// or corrupt trace files) are dropped.  It is a forest by construction,
// and every query is a reverse sweep over the nodes: no recursion, no
// cycle to follow.
//
// Region r ends with the r-th end of the master's (thread 0's)
// implicit task.  Regions run one after another, so both spans are
// taken per region and summed: creation_chain() treats every child as
// concurrent with its siblings (TASKPROF-style work/span); evaluate()
// also models taskwait phasing (sort/fft-style "merge" children
// created only after a taskwait on the "split" children) and creation
// serialization (a task farm spawned one create at a time by the
// implicit task).  evaluate() is the max-plus recursion over the items:
// a node's clock advances through its segments, and a Join folds every
// child created since the previous Join as max(clock, creation_offset +
// child_completion).  Segment durations come from a callback, so the
// same structure answers "what would the span be if path X were N%
// faster?" exactly per segment: ctx.work() declarations (kWork events)
// land in the segment they occurred in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

class TaskForest {
 public:
  /// A call path: task construct plus instance parameter.
  using PathKey = std::pair<RegionHandle, std::int64_t>;

  /// Sentinel node index ("no node").
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Executed time between two structural points of one task.
  struct Segment {
    Ticks active = 0;  ///< executed ticks
    Ticks work = 0;    ///< declared ctx.work() ticks within them
  };

  struct Node {
    TaskInstanceId id = kImplicitTaskId;  ///< kImplicitTaskId if implicit
    std::int64_t parameter = kNoParameter;
    Ticks active = 0;                ///< Σ executed segment time
    RegionHandle construct = kInvalidRegion;
    std::uint32_t parent = kNoNode;  ///< creating node (smaller index)
    std::uint32_t region = 0;        ///< parallel-region ordinal
    std::uint32_t first_item = 0;    ///< items [first_item, end_item)
    std::uint32_t end_item = 0;
    bool implicit = false;
    bool completed = false;  ///< explicit task whose end was recorded

    [[nodiscard]] PathKey key() const { return {construct, parameter}; }
  };

  /// Hypothetical cost of one segment.
  struct SegmentCost {
    double duration = 0.0;  ///< (possibly scaled) executed ticks
    double basis = 0.0;     ///< scalable basis ticks, unscaled
  };
  /// Maps a segment of a task on `key` to its cost under a hypothesis.
  /// Never consulted for implicit tasks (they are not call paths and a
  /// hypothesis cannot scale them).
  using CostFn = std::function<SegmentCost(const PathKey&, const Segment&)>;

  struct Evaluation {
    double span = 0.0;        ///< series-parallel critical path
    int tasks_on_chain = 0;   ///< distinct explicit tasks on it
    /// Scalable basis ticks each call path contributes to the chain.
    std::map<PathKey, double> scalable_on_chain;
  };

  /// Heaviest creation chain, region by region.
  struct Chain {
    Ticks time = 0;
    int length = 0;  ///< tasks on the chain
    /// Chain nodes, outermost first within each region (empty when no
    /// task completed).
    std::vector<std::uint32_t> nodes;
  };

  class Builder;

  TaskForest() = default;

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  /// Total executed time of the implicit tasks (creation serialization
  /// and other inline work); part of T1 but of no call path.
  [[nodiscard]] Ticks implicit_active() const noexcept {
    return implicit_active_;
  }
  /// The parent of completed task `node` in the tree of completed tasks
  /// (kNoNode when its creator is implicit or never completed).
  [[nodiscard]] std::uint32_t completed_parent(std::uint32_t node) const {
    const std::uint32_t parent = nodes_[node].parent;
    return parent != kNoNode && nodes_[parent].completed ? parent : kNoNode;
  }

  /// Heaviest root-to-leaf creation chain over completed tasks, by
  /// active time, summed over regions.  Zero-duration tasks still ride
  /// the chain (a chain always extends to a leaf).  Deterministic: ties
  /// on time prefer the longer chain, then the smaller instance id.
  [[nodiscard]] Chain creation_chain() const;

  /// Evaluate the sync-aware span under `cost`.  `task_overhead` is an
  /// unscalable per-task dispatch cost added to every explicit task on
  /// a chain — keeping it inside the max-plus evaluation (rather than
  /// bolted onto the result) means the chain choice accounts for it and
  /// the old-chain-feasibility argument behind the Amdahl ceiling
  /// survives scaling.  Deterministic: ties keep the earliest candidate
  /// in creation order.
  [[nodiscard]] Evaluation evaluate(const CostFn& cost,
                                    double task_overhead = 0.0) const;

 private:
  /// One step of a node's history in 32 bits: the kind in the top two
  /// bits, below them the segment's index in segments_ (kSegment) or
  /// the child node (kCreate).  Node and segment counts stay below 2^30.
  struct Item {
    enum Kind : std::uint32_t {
      kSegment = 0,
      kCreate = 1u << 30,
      kJoin = 2u << 30,
    };
    static constexpr std::uint32_t kValueMask = (1u << 30) - 1;
    std::uint32_t bits = 0;

    [[nodiscard]] Kind kind() const {
      return static_cast<Kind>(bits & ~kValueMask);
    }
    [[nodiscard]] std::uint32_t value() const { return bits & kValueMask; }
  };

  std::vector<Node> nodes_;
  std::vector<Item> items_;
  std::vector<Segment> segments_;  ///< in recording order
  std::uint32_t regions_ = 0;
  Ticks implicit_active_ = 0;
};

/// Replays a trace into a forest: feed every event of `trace.merged()`
/// in order, then finish().  trace::analyze_trace runs its own replay
/// in the same pass, so the event stream is walked once.  Any event
/// sequence is accepted: events on unknown threads are ignored, and a
/// task end completes whatever task its thread runs.
class TaskForest::Builder {
 public:
  explicit Builder(const Trace& trace);
  /// Consume the next event.  Returns the node of `event.task` (kNoNode
  /// for events that name no known task).
  std::uint32_t add(const TraceEvent& event);
  [[nodiscard]] std::size_t node_count() const noexcept {
    return out_.nodes_.size();
  }
  /// Nodes reserved up front: one per begun task and implicit task.
  [[nodiscard]] std::size_t node_capacity() const noexcept {
    return out_.nodes_.capacity();
  }
  /// The task construct of `node` as known so far.
  [[nodiscard]] RegionHandle construct(std::uint32_t node) const {
    return out_.nodes_[node].construct;
  }
  [[nodiscard]] TaskForest finish();

 private:
  struct Cursor {
    std::uint32_t current = kNoNode;   ///< node accruing executed time
    std::uint32_t implicit = kNoNode;  ///< this thread's implicit node
    Ticks fragment_start = 0;
    int sync_depth = 0;
    bool in_implicit = false;
  };

  std::uint32_t add_node(const Node& node);
  /// The node-index slot of `id` (kNoNode until the id is first seen).
  std::uint32_t& slot(TaskInstanceId id);
  std::uint32_t ensure_node(const TraceEvent& event);
  [[nodiscard]] std::uint32_t find_node(TaskInstanceId id) const;
  void push_item(std::uint32_t node, Item item);
  void flush(std::uint32_t node);
  void accrue(Cursor& cursor, Ticks now);
  [[nodiscard]] std::uint32_t rest_node(const Cursor& cursor) const;

  TaskForest out_;
  std::vector<Cursor> cursors_;
  std::vector<std::uint32_t> dense_;  ///< node of each small id
  std::unordered_map<TaskInstanceId, std::uint32_t> sparse_;  ///< the rest
  std::vector<std::uint32_t> owner_;  ///< per item: its node
  std::vector<Segment> open_;         ///< per node: the open segment
  std::uint32_t region_ = 0;
};

}  // namespace taskprof::trace
