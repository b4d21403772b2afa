#include "trace/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/format.hpp"

namespace taskprof::trace {

namespace {

/// Per-thread replay state.
struct ThreadReplay {
  std::uint32_t current = TaskForest::kNoNode;  ///< running explicit task
  Ticks fragment_start = 0;
  Ticks implicit_begin = 0;
  /// Open taskwaits.  Unlike sync_stack it outlives the implicit task:
  /// a migrated untied task's taskwait stays open on the thread it began.
  int taskwait_depth = 0;

  /// Open scheduling-point regions; last_activity tracks the end of the
  /// last executed fragment (or the region entry) for gap classification.
  struct SyncFrame {
    Ticks last_activity = 0;
  };
  std::vector<SyncFrame> sync_stack;
};

}  // namespace

TraceAnalysis analyze_trace(const Trace& trace,
                            const AnalysisOptions& options) {
  constexpr std::uint32_t kNoNode = TaskForest::kNoNode;
  TraceAnalysis out;
  out.threads.resize(trace.thread_count());
  const std::vector<TraceEvent>& events = trace.merged();
  if (!events.empty()) out.time_span = events.back().time - events[0].time;

  // One replay feeds both the forest and the lifetimes, which are
  // indexed by forest node (implicit nodes get an unused slot).
  TaskForest::Builder forest(trace);
  std::vector<TaskLifetime> lifetimes;
  lifetimes.reserve(forest.node_capacity());
  std::vector<ThreadReplay> replay(trace.thread_count());

  // Pattern state: the ready backlog, and how many threads execute a
  // task or sit in a taskwait.
  CreationBacklog& backlog = out.backlog;
  TaskwaitSerialization& serialization = out.serialization;
  const auto elevated = static_cast<std::int64_t>(
      std::max<std::size_t>(16, 4 * trace.thread_count()));
  std::int64_t ready = 0;  // created - begun
  int executing = 0;
  int in_taskwait = 0;
  bool serial = false;
  Ticks serial_start = 0;
  Ticks longest_serial = 0;
  Ticks last_time = 0;
  RegionHandle serial_construct = kInvalidRegion;

  auto classify_gap = [&](ThreadId thread, Ticks gap) {
    if (gap <= 0) return;
    out.sync_total += gap;
    if (gap <= options.management_gap_threshold) {
      out.sync_management += gap;
      out.threads[thread].management += gap;
    } else {
      out.sync_waiting += gap;
      out.threads[thread].waiting += gap;
    }
  };

  auto close_fragment = [&](ThreadReplay& state, ThreadId thread,
                            Ticks now) {
    if (state.current == kNoNode) return;
    const Ticks duration = now - state.fragment_start;
    lifetimes[state.current].active += duration;
    out.threads[thread].busy += duration;
    out.threads[thread].fragments += 1;
    if (!state.sync_stack.empty()) {
      state.sync_stack.back().last_activity = now;
    }
    state.current = kNoNode;
    executing -= 1;
  };

  auto open_fragment = [&](ThreadReplay& state, ThreadId thread,
                           std::uint32_t node, Ticks now) {
    if (!state.sync_stack.empty()) {
      classify_gap(thread, now - state.sync_stack.back().last_activity);
      state.sync_stack.back().last_activity = now;
    }
    state.current = node;
    state.fragment_start = now;
    executing += 1;
    TaskLifetime& life = lifetimes[node];
    life.fragments += 1;
    if (!life.started) {
      life.started = true;
      life.begin = now;
      life.first_thread = thread;
    }
  };

  // Recorded streams are time-ordered, so each thread's events keep
  // their order in the merged stream: the per-thread replay states
  // evolve exactly as if every stream were replayed on its own.
  for (const TraceEvent& event : events) {
    const std::uint32_t node = forest.add(event);
    if (event.thread >= replay.size()) continue;  // corrupt input
    if (lifetimes.size() < forest.node_count()) {
      lifetimes.resize(forest.node_count());
    }
    if (node != kNoNode) lifetimes[node].id = event.task;
    const ThreadId thread = event.thread;
    ThreadReplay& state = replay[thread];

    // Charge the time since the previous event to the serialized
    // stretch it belonged to.
    if (serial) {
      serialization.time += event.time - last_time;
      if (serial_construct != kInvalidRegion) {
        serialization.by_construct[serial_construct] +=
            event.time - last_time;
      }
    }
    last_time = event.time;

    switch (event.kind) {
      case EventKind::kImplicitBegin:
        state.implicit_begin = event.time;
        break;
      case EventKind::kImplicitEnd:
        // Migrated untied tasks leave unmatched sync entries behind
        // (their taskwait exits on another thread); drop them.
        state.sync_stack.clear();
        out.threads[thread].span += event.time - state.implicit_begin;
        break;
      case EventKind::kCreateEnd: {
        TaskLifetime& life = lifetimes[node];
        life.region = event.region;
        life.parameter = event.parameter;
        life.created = event.time;
        if (backlog.creations++ == 0) backlog.first_create = event.time;
        ready += 1;
        if (ready > static_cast<std::int64_t>(backlog.peak)) {
          backlog.peak = static_cast<std::uint64_t>(ready);
          backlog.peak_time = event.time;
          backlog.peak_thread = thread;
        }
        if (ready >= elevated) backlog.elevated_creations[event.region] += 1;
        break;
      }
      case EventKind::kTaskBegin:
        close_fragment(state, thread, event.time);
        open_fragment(state, thread, node, event.time);
        ready -= 1;
        backlog.last_begin = event.time;
        break;
      case EventKind::kTaskEnd: {
        // A task end closes whatever task the thread is running, as in
        // the forest builder: the replay and the forest agree even when
        // the event names another id (recorded traces never do).
        const std::uint32_t ending = state.current;
        if (ending == kNoNode) break;
        close_fragment(state, thread, event.time);
        lifetimes[ending].end = event.time;
        lifetimes[ending].completed = true;
        break;
      }
      case EventKind::kTaskSwitch:
        close_fragment(state, thread, event.time);
        if (node != kNoNode) open_fragment(state, thread, node, event.time);
        break;
      case EventKind::kMigrate:
        if (node != kNoNode) lifetimes[node].migrations += 1;
        break;
      case EventKind::kWork:
        // Declared ctx.work() ticks; attribute to the task the thread
        // is running.  Implicit-task work has no lifetime to land on.
        if (state.current != kNoNode && event.parameter != kNoParameter) {
          lifetimes[state.current].work += event.parameter;
        }
        break;
      case EventKind::kTaskwaitBegin:
        serialization.taskwaits += 1;
        if (state.taskwait_depth++ == 0) in_taskwait += 1;
        state.sync_stack.push_back(ThreadReplay::SyncFrame{event.time});
        break;
      case EventKind::kBarrierBegin:
        state.sync_stack.push_back(ThreadReplay::SyncFrame{event.time});
        break;
      case EventKind::kTaskwaitEnd:
      case EventKind::kBarrierEnd: {
        if (event.kind == EventKind::kTaskwaitEnd &&
            state.taskwait_depth > 0 && --state.taskwait_depth == 0) {
          in_taskwait -= 1;
        }
        // A migrated untied task's taskwait may end on a different
        // thread than it began; such unmatched exits are skipped (the
        // decomposition is exact for tied tasks, approximate across
        // migrations).
        if (state.sync_stack.empty()) break;
        classify_gap(thread,
                     event.time - state.sync_stack.back().last_activity);
        state.sync_stack.pop_back();
        if (!state.sync_stack.empty()) {
          state.sync_stack.back().last_activity = event.time;
        }
        break;
      }
      case EventKind::kParallelBegin:
      case EventKind::kParallelEnd:
      case EventKind::kCreateBegin:
      case EventKind::kRegionEnter:
      case EventKind::kRegionExit:
      case EventKind::kSchedulerNote:
        break;
    }

    // Serialized: a thread sits in a taskwait while at most one task
    // executes; the stretch is charged to that task's construct.
    const bool now_serial = in_taskwait > 0 && executing <= 1;
    if (now_serial && !serial) {
      serial_start = event.time;
    } else if (!now_serial && serial &&
               event.time - serial_start > longest_serial) {
      longest_serial = event.time - serial_start;
      serialization.longest_start = serial_start;
    }
    serial = now_serial;
    serial_construct = kInvalidRegion;
    if (serial && executing == 1) {
      for (const ThreadReplay& other : replay) {
        if (other.current != kNoNode) {
          serial_construct = forest.construct(other.current);
          break;
        }
      }
    }
  }
  out.forest = forest.finish();

  // Keep the completed lifetimes, in begin order.
  std::erase_if(lifetimes,
                [](const TaskLifetime& life) { return !life.completed; });
  std::sort(lifetimes.begin(), lifetimes.end(),
            [](const TaskLifetime& a, const TaskLifetime& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.id < b.id;
            });
  for (const TaskLifetime& life : lifetimes) {
    out.total_active += life.active;
    if (life.created != 0 || life.begin >= life.created) {
      out.queue_latency.add(life.begin - life.created);
    }
    out.instance_fragments.add(life.fragments);
  }
  out.tasks = std::move(lifetimes);

  const TaskForest::Chain chain = out.forest.creation_chain();
  out.critical_chain_time = chain.time;
  out.critical_chain_length = chain.length;
  return out;
}

std::string render_analysis(const TraceAnalysis& analysis,
                            const RegionRegistry& registry) {
  std::ostringstream os;

  // Per-construct summary.
  struct ConstructAgg {
    std::uint64_t instances = 0;
    Ticks active = 0;
    DurationStats latency;
    std::uint64_t fragments = 0;
    std::uint64_t migrations = 0;
  };
  std::map<RegionHandle, ConstructAgg> constructs;
  for (const TaskLifetime& life : analysis.tasks) {
    ConstructAgg& agg = constructs[life.region];
    agg.instances += 1;
    agg.active += life.active;
    agg.latency.add(life.begin - life.created);
    agg.fragments += static_cast<std::uint64_t>(life.fragments);
    agg.migrations += static_cast<std::uint64_t>(life.migrations);
  }
  TextTable table({"task construct", "instances", "active total",
                   "mean queue latency", "fragments", "migrations"});
  for (const auto& [region, agg] : constructs) {
    table.add_row({registry.display_name(region), format_count(agg.instances),
                   format_ticks(agg.active),
                   format_ticks(static_cast<Ticks>(agg.latency.mean())),
                   format_count(agg.fragments),
                   format_count(agg.migrations)});
  }
  os << table.str();

  os << "\nsynchronization-time decomposition (paper SS VII):\n";
  os << "  total non-executing time at scheduling points: "
     << format_ticks(analysis.sync_total) << '\n';
  os << "  management (short gaps between fragments):     "
     << format_ticks(analysis.sync_management) << '\n';
  os << "  waiting for work (long gaps):                  "
     << format_ticks(analysis.sync_waiting) << '\n';
  os << "  management / task-execution ratio:             "
     << format_percent(analysis.management_to_execution_ratio()) << '\n';

  os << "\nlongest dependency chain: " << analysis.critical_chain_length
     << " tasks, " << format_ticks(analysis.critical_chain_time)
     << " active time\n";

  os << "\nthreads:\n";
  for (std::size_t t = 0; t < analysis.threads.size(); ++t) {
    const ThreadUsage& usage = analysis.threads[t];
    os << "  thread " << t << ": busy " << format_ticks(usage.busy) << " of "
       << format_ticks(usage.span) << " ("
       << format_percent(usage.utilization()) << ", "
       << format_count(usage.fragments) << " fragments, waiting "
       << format_ticks(usage.waiting) << ")\n";
  }
  return os.str();
}

std::string render_timeline(const Trace& trace, std::size_t buckets) {
  const auto [begin, end] = trace.time_span();
  if (end <= begin || buckets == 0) return "(empty trace)\n";
  const double bucket_width =
      static_cast<double>(end - begin) / static_cast<double>(buckets);

  std::ostringstream os;
  os << "timeline: " << format_ticks(end - begin) << " across " << buckets
     << " buckets ('#' executing tasks, '.' other)\n";
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    // busy[i] = fraction of bucket i spent in task fragments.
    std::vector<double> busy(buckets, 0.0);
    TaskInstanceId current = kImplicitTaskId;
    Ticks fragment_start = 0;
    auto mark = [&](Ticks from, Ticks to) {
      if (to <= from) return;
      const double first =
          static_cast<double>(from - begin) / bucket_width;
      const double last = static_cast<double>(to - begin) / bucket_width;
      for (std::size_t i = static_cast<std::size_t>(first);
           i <= static_cast<std::size_t>(last) && i < buckets; ++i) {
        const double bucket_lo = static_cast<double>(i) * bucket_width;
        const double bucket_hi = bucket_lo + bucket_width;
        const double overlap =
            std::min(bucket_hi, static_cast<double>(to - begin)) -
            std::max(bucket_lo, static_cast<double>(from - begin));
        if (overlap > 0) busy[i] += overlap / bucket_width;
      }
    };
    for (const TraceEvent& event : trace.thread_events(thread)) {
      switch (event.kind) {
        case EventKind::kTaskBegin:
        case EventKind::kTaskSwitch:
          if (current != kImplicitTaskId) mark(fragment_start, event.time);
          current = event.kind == EventKind::kTaskSwitch &&
                            event.task == kImplicitTaskId
                        ? kImplicitTaskId
                        : event.task;
          fragment_start = event.time;
          break;
        case EventKind::kTaskEnd:
          if (current != kImplicitTaskId) mark(fragment_start, event.time);
          current = kImplicitTaskId;
          break;
        default:
          break;
      }
    }
    os << "t" << thread << " |";
    for (double fraction : busy) {
      os << (fraction > 0.5 ? '#' : (fraction > 0.05 ? '+' : '.'));
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace taskprof::trace
