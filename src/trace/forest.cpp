#include "trace/forest.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof::trace {

namespace {

constexpr std::uint32_t kNoNode = TaskForest::kNoNode;

}  // namespace

TaskForest::Builder::Builder(const Trace& trace)
    : cursors_(trace.thread_count()) {
  // Each event adds at most one node and two items.
  TASKPROF_ASSERT(trace.event_count() <= Item::kValueMask / 3,
                  "trace too large for the task forest");
  // Size everything up front from the event counts: one node per begun
  // task plus one implicit node per thread and region, and at most two
  // items per create or join, one per task end, one closing per node.
  std::size_t nodes = 0;
  std::size_t items = 0;
  TaskInstanceId max_id = 0;
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    for (const TraceEvent& e : trace.thread_events(thread)) {
      const EventKind kind = e.kind;
      if (kind == EventKind::kTaskBegin || kind == EventKind::kImplicitBegin) {
        ++nodes;
      } else if (kind == EventKind::kCreateEnd ||
                 kind == EventKind::kTaskwaitEnd ||
                 kind == EventKind::kBarrierEnd) {
        items += 2;
      } else if (kind == EventKind::kTaskEnd) {
        ++items;
      }
      if (kind == EventKind::kTaskBegin) max_id = std::max(max_id, e.task);
    }
  }
  out_.nodes_.reserve(nodes);
  out_.items_.reserve(items + nodes);
  out_.segments_.reserve(items + nodes);
  owner_.reserve(items + nodes);
  open_.reserve(nodes);
  // Recorded ids count up from 1, so a direct table covers them; ids
  // far beyond the task count (foreign files) go to the hash map.
  dense_.assign(std::min<std::size_t>(max_id + 1, 4 * nodes + 1024),
                kNoNode);
}

std::uint32_t& TaskForest::Builder::slot(TaskInstanceId id) {
  if (id < dense_.size()) return dense_[id];
  return sparse_.try_emplace(id, kNoNode).first->second;
}

std::uint32_t TaskForest::Builder::add_node(const Node& node) {
  out_.nodes_.push_back(node);
  open_.emplace_back();
  return static_cast<std::uint32_t>(out_.nodes_.size() - 1);
}

std::uint32_t TaskForest::Builder::ensure_node(const TraceEvent& event) {
  std::uint32_t& node = slot(event.task);
  if (node == kNoNode) {
    Node fresh;
    fresh.id = event.task;
    fresh.construct = event.region;
    fresh.parameter = event.parameter;
    fresh.region = region_;
    node = add_node(fresh);
  } else if (event.region != kInvalidRegion &&
             out_.nodes_[node].construct == kInvalidRegion) {
    out_.nodes_[node].construct = event.region;
    out_.nodes_[node].parameter = event.parameter;
  }
  return node;
}

std::uint32_t TaskForest::Builder::find_node(TaskInstanceId id) const {
  if (id < dense_.size()) return dense_[id];
  const auto it = sparse_.find(id);
  return it == sparse_.end() ? kNoNode : it->second;
}

void TaskForest::Builder::push_item(std::uint32_t node, Item item) {
  out_.items_.push_back(item);
  owner_.push_back(node);
}

// Move the open-segment accumulator of `node` into its item list.
void TaskForest::Builder::flush(std::uint32_t node) {
  Segment& segment = open_[node];
  if (segment.active == 0 && segment.work == 0) return;
  push_item(node, Item{Item::kSegment |
                       static_cast<std::uint32_t>(out_.segments_.size())});
  out_.segments_.push_back(segment);
  segment = {};
}

void TaskForest::Builder::accrue(Cursor& cursor, Ticks now) {
  if (cursor.current == kNoNode) return;
  const Ticks duration = now - cursor.fragment_start;
  Node& node = out_.nodes_[cursor.current];
  open_[cursor.current].active += duration;
  node.active += duration;
  if (node.implicit) out_.implicit_active_ += duration;
  cursor.fragment_start = now;
}

// After a task ends or switches away, the thread is back at its implicit
// task — but only accrues to it outside scheduling points (inside a
// barrier/taskwait the gap is waiting, not execution).
std::uint32_t TaskForest::Builder::rest_node(const Cursor& cursor) const {
  return cursor.in_implicit && cursor.sync_depth == 0 ? cursor.implicit
                                                      : kNoNode;
}

std::uint32_t TaskForest::Builder::add(const TraceEvent& event) {
  if (event.thread >= cursors_.size()) return kNoNode;  // corrupt input
  Cursor& cursor = cursors_[event.thread];
  const Ticks now = event.time;
  switch (event.kind) {
    case EventKind::kImplicitBegin:
      if (cursor.implicit == kNoNode ||
          out_.nodes_[cursor.implicit].region != region_) {
        Node node;
        node.implicit = true;
        node.region = region_;
        cursor.implicit = add_node(node);
      }
      cursor.in_implicit = true;
      cursor.sync_depth = 0;
      cursor.current = cursor.implicit;
      cursor.fragment_start = now;
      return kNoNode;
    case EventKind::kImplicitEnd:
      accrue(cursor, now);
      cursor.current = kNoNode;
      cursor.in_implicit = false;
      cursor.sync_depth = 0;
      // The master's implicit task ends last in its region (every worker
      // has passed the closing barrier): the next region starts.
      if (event.thread == 0) ++region_;
      return kNoNode;
    case EventKind::kCreateEnd: {
      const std::uint32_t child = ensure_node(event);
      const std::uint32_t creator =
          cursor.current != kNoNode ? cursor.current : rest_node(cursor);
      // First creator wins, and only an older node may create: a
      // duplicate id must not turn the forest into a graph.
      if (creator == kNoNode || creator >= child ||
          out_.nodes_[child].parent != kNoNode) {
        return child;
      }
      if (creator == cursor.current) accrue(cursor, now);
      flush(creator);
      push_item(creator, Item{Item::kCreate | child});
      out_.nodes_[child].parent = creator;
      out_.nodes_[child].region = out_.nodes_[creator].region;
      return child;
    }
    case EventKind::kTaskBegin:
      accrue(cursor, now);
      cursor.current = ensure_node(event);
      cursor.fragment_start = now;
      return cursor.current;
    case EventKind::kTaskEnd: {
      accrue(cursor, now);
      if (cursor.current != kNoNode) {
        flush(cursor.current);
        Node& node = out_.nodes_[cursor.current];
        if (!node.implicit) node.completed = true;
      }
      cursor.current = rest_node(cursor);
      cursor.fragment_start = now;
      return find_node(event.task);
    }
    case EventKind::kTaskSwitch:
      accrue(cursor, now);
      cursor.current = event.task == kImplicitTaskId ? rest_node(cursor)
                                                     : ensure_node(event);
      cursor.fragment_start = now;
      return event.task == kImplicitTaskId ? kNoNode : cursor.current;
    case EventKind::kMigrate:
      return find_node(event.task);
    case EventKind::kWork:
      if (cursor.current != kNoNode && event.parameter != kNoParameter &&
          !out_.nodes_[cursor.current].implicit) {
        open_[cursor.current].work += event.parameter;
      }
      return kNoNode;
    case EventKind::kTaskwaitBegin:
    case EventKind::kBarrierBegin:
      // An implicit task stops executing at the scheduling point; an
      // explicit one keeps accruing until it is switched out (the
      // pre-switch sliver is genuine sync-entry cost).
      if (cursor.current != kNoNode &&
          out_.nodes_[cursor.current].implicit) {
        accrue(cursor, now);
        cursor.current = kNoNode;
      }
      cursor.sync_depth += 1;
      return kNoNode;
    case EventKind::kTaskwaitEnd:
    case EventKind::kBarrierEnd: {
      if (cursor.sync_depth > 0) cursor.sync_depth -= 1;
      std::uint32_t subject = cursor.current;
      if (subject != kNoNode) {
        accrue(cursor, now);
      } else if (cursor.in_implicit) {
        subject = cursor.implicit;
      }
      if (subject != kNoNode) {
        flush(subject);
        push_item(subject, Item{Item::kJoin});
      }
      if (cursor.current == kNoNode) {
        cursor.current = rest_node(cursor);
        cursor.fragment_start = now;
      }
      return kNoNode;
    }
    case EventKind::kParallelBegin:
    case EventKind::kParallelEnd:
    case EventKind::kCreateBegin:
    case EventKind::kRegionEnter:
    case EventKind::kRegionExit:
    case EventKind::kSchedulerNote:
      return kNoNode;
  }
  return kNoNode;
}

TaskForest TaskForest::Builder::finish() {
  std::vector<Node>& nodes = out_.nodes_;
  for (std::uint32_t node = 0; node < nodes.size(); ++node) {
    flush(node);
    out_.regions_ = std::max(out_.regions_, nodes[node].region + 1);
  }
  dense_ = {};
  sparse_ = {};
  open_ = {};
  // Group the items by node (a stable counting sort), so each node's
  // items are one contiguous range in recording order.
  for (const std::uint32_t node : owner_) nodes[node].end_item += 1;
  std::uint32_t offset = 0;
  for (Node& node : nodes) {
    node.first_item = offset;
    offset += node.end_item;
    node.end_item = node.first_item;
  }
  std::vector<Item> grouped(out_.items_.size());
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    grouped[nodes[owner_[i]].end_item++] = out_.items_[i];
  }
  out_.items_ = std::move(grouped);
  owner_ = {};
  return std::move(out_);
}

TaskForest::Chain TaskForest::creation_chain() const {
  // best[n]: the heaviest chain strictly below completed node n, headed
  // by its child `head`.  Children have larger indices than their
  // parent, so one reverse sweep sees every child before its parent.
  struct Sub {
    Ticks time = 0;
    int length = 0;
    std::uint32_t head = kNoNode;
  };
  // More time wins; on equal time the longer chain (so zero-duration
  // subtrees are not silently dropped); then the smaller instance id.
  const auto better = [this](const Sub& a, const Sub& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.length != b.length) return a.length > b.length;
    return b.head == kNoNode || nodes_[a.head].id < nodes_[b.head].id;
  };
  std::vector<Sub> best(nodes_.size());
  std::vector<Sub> region_best(regions_);
  for (std::uint32_t n = static_cast<std::uint32_t>(nodes_.size());
       n-- > 0;) {
    const Node& node = nodes_[n];
    if (!node.completed) continue;
    const Sub mine{node.active + best[n].time, 1 + best[n].length, n};
    const std::uint32_t parent = completed_parent(n);
    Sub& slot = parent != kNoNode ? best[parent] : region_best[node.region];
    if (better(mine, slot)) slot = mine;
  }

  Chain out;
  for (const Sub& root : region_best) {
    out.time += root.time;
    out.length += root.length;
    for (std::uint32_t n = root.head; n != kNoNode; n = best[n].head) {
      out.nodes.push_back(n);
    }
  }
  return out;
}

TaskForest::Evaluation TaskForest::evaluate(const CostFn& cost,
                                            double task_overhead) const {
  // Forward pass: each node's completion (subtree span from its start),
  // children first.  Every fold where a child's completion overtakes the
  // node's own clock is recorded as a link; the chain is rebuilt from
  // the links of the winning roots only.
  struct Link {
    std::uint32_t prev = kNoNode;  ///< the node's previous link
    std::uint32_t create = 0;      ///< item index of the child's Create
    std::uint32_t fold = 0;        ///< item index of the Join (or end)
    std::uint32_t child = 0;
  };
  struct Pending {
    double offset = 0.0;
    std::uint32_t create = 0;
    std::uint32_t child = 0;
  };
  std::vector<double> completion(nodes_.size(), 0.0);
  std::vector<std::uint32_t> last_link(nodes_.size(), kNoNode);
  std::vector<Link> links;
  std::vector<Pending> pending;

  for (std::uint32_t n = static_cast<std::uint32_t>(nodes_.size());
       n-- > 0;) {
    const Node& node = nodes_[n];
    const PathKey key = node.key();
    double clock = node.implicit ? 0.0 : task_overhead;
    std::uint32_t link = kNoNode;
    // max(clock, offset_i + completion_i); strict > keeps the node's
    // own continuation (then the earliest child) on ties.
    const auto fold = [&](std::uint32_t at) {
      const Pending* winner = nullptr;
      for (const Pending& p : pending) {
        const double candidate = p.offset + completion[p.child];
        if (candidate > clock) {
          clock = candidate;
          winner = &p;
        }
      }
      if (winner != nullptr) {
        links.push_back(Link{link, winner->create, at, winner->child});
        link = static_cast<std::uint32_t>(links.size() - 1);
      }
      pending.clear();
    };
    for (std::uint32_t i = node.first_item; i < node.end_item; ++i) {
      const Item item = items_[i];
      switch (item.kind()) {
        case Item::kSegment:
          clock += node.implicit
                       ? static_cast<double>(segments_[item.value()].active)
                       : cost(key, segments_[item.value()]).duration;
          break;
        case Item::kCreate:
          pending.push_back(Pending{clock, i, item.value()});
          break;
        case Item::kJoin:
          fold(i);
          break;
      }
    }
    fold(node.end_item);  // children never waited on gate the region end
    completion[n] = clock;
    last_link[n] = link;
  }

  // Per region, the root that completes last (implicit roots first, then
  // explicit tasks with no recorded creator, each in index order).
  std::vector<std::uint32_t> winner(regions_, kNoNode);
  for (const bool implicit_pass : {true, false}) {
    for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
      const Node& node = nodes_[n];
      if (node.implicit != implicit_pass || node.parent != kNoNode) continue;
      std::uint32_t& best = winner[node.region];
      if (best == kNoNode || completion[n] > completion[best]) best = n;
    }
  }

  // Backtrack: the chain through a node is its segments outside the
  // linked (create, fold) windows plus, per link, the linked child's
  // chain.
  Evaluation out;
  std::vector<std::uint32_t> stack;
  for (const std::uint32_t root : winner) {
    if (root == kNoNode) continue;
    out.span += completion[root];
    stack.push_back(root);
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    const Node& node = nodes_[n];
    const PathKey key = node.key();
    // Implicit tasks carry no call path: only their children count.
    double* scalable = nullptr;
    if (!node.implicit) {
      out.tasks_on_chain += 1;
      scalable = &out.scalable_on_chain[key];
    }
    const auto add_segments = [&](std::uint32_t from, std::uint32_t to) {
      for (std::uint32_t i = from; scalable != nullptr && i < to; ++i) {
        if (items_[i].kind() == Item::kSegment) {
          *scalable += cost(key, segments_[items_[i].value()]).basis;
        }
      }
    };
    std::uint32_t end = node.end_item;
    for (std::uint32_t l = last_link[n]; l != kNoNode; l = links[l].prev) {
      add_segments(links[l].fold + 1, end);
      stack.push_back(links[l].child);
      end = links[l].create;
    }
    add_segments(node.first_item, end);
  }
  return out;
}

}  // namespace taskprof::trace
