#include "trace/trace.hpp"

#include <algorithm>

namespace taskprof::trace {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kParallelBegin: return "parallel_begin";
    case EventKind::kParallelEnd: return "parallel_end";
    case EventKind::kImplicitBegin: return "implicit_begin";
    case EventKind::kImplicitEnd: return "implicit_end";
    case EventKind::kCreateBegin: return "create_begin";
    case EventKind::kCreateEnd: return "create_end";
    case EventKind::kTaskBegin: return "task_begin";
    case EventKind::kTaskEnd: return "task_end";
    case EventKind::kTaskSwitch: return "task_switch";
    case EventKind::kMigrate: return "migrate";
    case EventKind::kTaskwaitBegin: return "taskwait_begin";
    case EventKind::kTaskwaitEnd: return "taskwait_end";
    case EventKind::kBarrierBegin: return "barrier_begin";
    case EventKind::kBarrierEnd: return "barrier_end";
    case EventKind::kRegionEnter: return "region_enter";
    case EventKind::kRegionExit: return "region_exit";
    case EventKind::kSchedulerNote: return "scheduler_note";
    case EventKind::kWork: return "work";
  }
  return "unknown";
}

Trace::Trace(std::vector<std::vector<TraceEvent>> per_thread)
    : per_thread_(std::move(per_thread)) {}

namespace {

/// The merged view's key: (time, thread).
bool key_less(const TraceEvent& a, const TraceEvent& b) noexcept {
  return a.time < b.time || (a.time == b.time && a.thread < b.thread);
}

/// The unread rest of one stream.
struct Cursor {
  const TraceEvent* next;
  const TraceEvent* end;
  std::size_t stream;
};

/// True when `event`, from stream `stream`, goes before `other`'s next
/// event: a lower key, or the same key from a lower stream index.
bool precedes(const TraceEvent& event, std::size_t stream,
              const Cursor& other) noexcept {
  if (key_less(event, *other.next)) return true;
  return !key_less(*other.next, event) && stream < other.stream;
}

/// Heap order (std::make_heap keeps the greatest on top): the cursor
/// whose next event goes first is the greatest.
bool after(const Cursor& a, const Cursor& b) noexcept {
  return precedes(*b.next, b.stream, a);
}

/// k-way merge of the per-thread streams into exactly the order a
/// stable sort by key over their concatenation gives: by key, then by
/// stream index, then by position in the stream.  A stream already in
/// key order (every recorded one: one thread, one monotone clock) is
/// merged as it stands; any other (a foreign or corrupt file) is stable-
/// sorted on its own first, which leaves that order unchanged.
std::vector<TraceEvent> merge_streams(
    const std::vector<std::vector<TraceEvent>>& streams) {
  std::vector<std::vector<TraceEvent>> sorted;
  sorted.reserve(streams.size());
  std::vector<Cursor> heap;
  std::size_t total = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const std::vector<TraceEvent>* stream = &streams[i];
    if (stream->empty()) continue;
    if (!std::is_sorted(stream->begin(), stream->end(), key_less)) {
      std::vector<TraceEvent>& copy = sorted.emplace_back(*stream);
      std::stable_sort(copy.begin(), copy.end(), key_less);
      stream = &copy;
    }
    total += stream->size();
    heap.push_back({stream->data(), stream->data() + stream->size(), i});
  }

  std::vector<TraceEvent> merged;
  merged.reserve(total);
  std::make_heap(heap.begin(), heap.end(), after);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& first = heap.back();
    const Cursor& runner_up = heap.front();
    // Consecutive events mostly come from one thread: take the whole
    // run that precedes the runner-up's next event in one copy.
    const TraceEvent* run_end = first.next + 1;
    while (run_end != first.end &&
           precedes(*run_end, first.stream, runner_up)) {
      ++run_end;
    }
    merged.insert(merged.end(), first.next, run_end);
    first.next = run_end;
    if (first.next == first.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  if (!heap.empty()) {
    merged.insert(merged.end(), heap.front().next, heap.front().end);
  }
  return merged;
}

}  // namespace

const std::vector<TraceEvent>& Trace::merged() const {
  if (!merged_valid_) {
    merged_ = merge_streams(per_thread_);
    merged_valid_ = true;
  }
  return merged_;
}

std::size_t Trace::event_count() const noexcept {
  std::size_t total = 0;
  for (const auto& stream : per_thread_) total += stream.size();
  return total;
}

std::pair<Ticks, Ticks> Trace::time_span() const {
  Ticks begin = 0;
  Ticks end = 0;
  bool first = true;
  for (const auto& stream : per_thread_) {
    for (const TraceEvent& event : stream) {
      if (first) {
        begin = end = event.time;
        first = false;
      } else {
        begin = std::min(begin, event.time);
        end = std::max(end, event.time);
      }
    }
  }
  return {begin, end};
}

}  // namespace taskprof::trace
