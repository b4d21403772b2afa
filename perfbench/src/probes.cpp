#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "snapshot/snapshot.hpp"

namespace perfbench {

using taskprof::ThreadId;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int t_open_span = -1;

std::atomic<std::uint64_t> g_fiber_resumes{0};

}  // namespace

// --- SpanLog ----------------------------------------------------------------

int SpanLog::open(const std::string& name, int parent) {
  const double start = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - origin_)
                           .count();
  std::scoped_lock lock(mutex_);
  records_.push_back({name, parent, start, start});
  return static_cast<int>(records_.size()) - 1;
}

void SpanLog::close(int index) {
  const double end = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - origin_)
                         .count();
  std::scoped_lock lock(mutex_);
  records_[static_cast<std::size_t>(index)].end = end;
}

std::map<std::string, double> SpanLog::self_seconds_under(
    const std::string& root) const {
  std::scoped_lock lock(mutex_);
  std::vector<double> covered(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      covered[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::size_t top = i;
    while (records_[top].parent >= 0) {
      top = static_cast<std::size_t>(records_[top].parent);
    }
    if (records_[top].name != root) continue;
    out[r.name] += (r.end - r.start) - covered[i];
  }
  return out;
}

Span::Span(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  saved_parent_ = t_open_span;
  index_ = log_->open(name, t_open_span);
  t_open_span = index_;
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->close(index_);
  t_open_span = saved_parent_;
}

// --- ProbeHooks -------------------------------------------------------------

std::uint64_t ProbeHooks::Totals::events() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : count) n += c;
  return n;
}

std::uint64_t ProbeHooks::Totals::total_ns() const {
  std::uint64_t n = 0;
  for (const std::uint64_t t : ns) n += t;
  return n;
}

ProbeHooks::ProbeHooks(taskprof::rt::SchedulerHooks* inner, bool track_entry)
    : inner_(inner), track_entry_(track_entry) {}

ProbeHooks::Totals ProbeHooks::totals() const {
  Totals out = encountering_.totals;
  for (const Slot& s : slots_) {
    for (std::size_t k = 0; k < kHookKinds; ++k) {
      out.count[k] += s.totals.count[k];
      out.ns[k] += s.totals.ns[k];
    }
  }
  return out;
}

template <typename Fn>
void ProbeHooks::timed(Slot& s, HookKind kind, Fn&& forward) {
  const std::int64_t start = now_ns();
  forward();
  const std::int64_t end = now_ns();
  const auto k = static_cast<std::size_t>(kind);
  s.totals.count[k] += 1;
  s.totals.ns[k] += static_cast<std::uint64_t>(end - start);
}

void ProbeHooks::on_parallel_begin(int num_threads) {
  if (track_entry_) parallel_begin_ns_ = now_ns();
  if (slots_.size() < static_cast<std::size_t>(num_threads)) {
    slots_.resize(static_cast<std::size_t>(num_threads));
  }
  team_ = num_threads;
  timed(encountering_, HookKind::kParallelBegin,
        [&] { inner_->on_parallel_begin(num_threads); });
}

void ProbeHooks::on_parallel_end() {
  if (track_entry_) {
    std::int64_t last = parallel_begin_ns_;
    for (int t = 0; t < team_; ++t) {
      last = std::max(last, slots_[static_cast<std::size_t>(t)]
                                .implicit_begin_ns);
    }
    entry_us_.push_back(static_cast<double>(last - parallel_begin_ns_) /
                        1000.0);
  }
  timed(encountering_, HookKind::kParallelEnd,
        [&] { inner_->on_parallel_end(); });
}

void ProbeHooks::on_implicit_task_begin(ThreadId thread,
                                        const taskprof::Clock& clock) {
  Slot& s = slot(thread);
  if (track_entry_) s.implicit_begin_ns = now_ns();
  timed(s, HookKind::kImplicitBegin,
        [&] { inner_->on_implicit_task_begin(thread, clock); });
}

void ProbeHooks::on_implicit_task_end(ThreadId thread) {
  timed(slot(thread), HookKind::kImplicitEnd,
        [&] { inner_->on_implicit_task_end(thread); });
}

void ProbeHooks::on_task_create_begin(ThreadId thread,
                                      taskprof::RegionHandle region,
                                      std::int64_t parameter) {
  timed(slot(thread), HookKind::kCreateBegin, [&] {
    inner_->on_task_create_begin(thread, region, parameter);
  });
}

void ProbeHooks::on_task_create_end(ThreadId thread,
                                    taskprof::TaskInstanceId created,
                                    taskprof::RegionHandle region,
                                    std::int64_t parameter) {
  timed(slot(thread), HookKind::kCreateEnd, [&] {
    inner_->on_task_create_end(thread, created, region, parameter);
  });
}

void ProbeHooks::on_task_begin(ThreadId thread, taskprof::TaskInstanceId id,
                               taskprof::RegionHandle region,
                               std::int64_t parameter) {
  timed(slot(thread), HookKind::kTaskBegin,
        [&] { inner_->on_task_begin(thread, id, region, parameter); });
}

void ProbeHooks::on_task_end(ThreadId thread, taskprof::TaskInstanceId id) {
  timed(slot(thread), HookKind::kTaskEnd,
        [&] { inner_->on_task_end(thread, id); });
}

void ProbeHooks::on_task_switch(ThreadId thread,
                                taskprof::TaskInstanceId id) {
  timed(slot(thread), HookKind::kSwitch,
        [&] { inner_->on_task_switch(thread, id); });
}

void ProbeHooks::on_task_migrate(ThreadId from, ThreadId to,
                                 taskprof::TaskInstanceId id) {
  timed(slot(to), HookKind::kMigrate,
        [&] { inner_->on_task_migrate(from, to, id); });
}

void ProbeHooks::on_task_work(ThreadId thread, taskprof::Ticks cost) {
  timed(slot(thread), HookKind::kWork,
        [&] { inner_->on_task_work(thread, cost); });
}

void ProbeHooks::on_taskwait_begin(ThreadId thread) {
  timed(slot(thread), HookKind::kTaskwaitBegin,
        [&] { inner_->on_taskwait_begin(thread); });
}

void ProbeHooks::on_taskwait_end(ThreadId thread) {
  timed(slot(thread), HookKind::kTaskwaitEnd,
        [&] { inner_->on_taskwait_end(thread); });
}

void ProbeHooks::on_barrier_begin(ThreadId thread, bool implicit) {
  timed(slot(thread), HookKind::kBarrierBegin,
        [&] { inner_->on_barrier_begin(thread, implicit); });
}

void ProbeHooks::on_barrier_end(ThreadId thread, bool implicit) {
  timed(slot(thread), HookKind::kBarrierEnd,
        [&] { inner_->on_barrier_end(thread, implicit); });
}

void ProbeHooks::on_region_enter(ThreadId thread,
                                 taskprof::RegionHandle region,
                                 std::int64_t parameter) {
  timed(slot(thread), HookKind::kRegionEnter,
        [&] { inner_->on_region_enter(thread, region, parameter); });
}

void ProbeHooks::on_region_exit(ThreadId thread,
                                taskprof::RegionHandle region) {
  timed(slot(thread), HookKind::kRegionExit,
        [&] { inner_->on_region_exit(thread, region); });
}

void ProbeHooks::on_scheduler_note(ThreadId thread,
                                   taskprof::rt::SchedulerNote note,
                                   std::int64_t detail) {
  timed(slot(thread), HookKind::kNote,
        [&] { inner_->on_scheduler_note(thread, note, detail); });
}

// --- SpanRuntime / TimedSink -------------------------------------------------

taskprof::rt::TeamStats SpanRuntime::parallel(int num_threads,
                                              taskprof::rt::TaskFn body) {
  Span span(log_, span_);
  return inner_.parallel(num_threads, std::move(body));
}

bool TimedSink::ship(const taskprof::AggregateProfile& profile,
                     const taskprof::RegionRegistry& registry,
                     const taskprof::snapshot::SnapshotMeta& meta,
                     const taskprof::telemetry::Snapshot* telemetry,
                     bool final) noexcept {
  Shipment shipment;
  shipment.final = final;
  const auto entered = WallClock::now();
  double bytes_before = 0.0;
  if (daemon_ != nullptr) {
    bytes_before = static_cast<double>(daemon_->stats().bytes_received);
  }
  bool ok = false;
  const auto start = WallClock::now();
  {
    Span span(log_, "ingest.ship");
    ok = inner_->ship(profile, registry, meta, telemetry, final);
  }
  shipment.ms = seconds_since(start) * 1e3;
  if (daemon_ != nullptr) {
    shipment.wire_bytes =
        static_cast<double>(daemon_->stats().bytes_received) - bytes_before;
    try {
      shipment.rebase_bytes = static_cast<double>(
          taskprof::snapshot::encode_snapshot(profile, registry, meta,
                                              telemetry)
              .size());
    } catch (...) {
      shipment.rebase_bytes = 0.0;
    }
  }
  shipment.probe_ms = seconds_since(entered) * 1e3 - shipment.ms;
  std::scoped_lock lock(mutex_);
  shipments_.push_back(shipment);
  return ok;
}

std::vector<TimedSink::Shipment> TimedSink::shipments() const {
  std::scoped_lock lock(mutex_);
  return shipments_;
}

std::uint64_t fiber_resumes() {
  return g_fiber_resumes.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Link-time wrapper (see CMakeLists.txt: -Wl,--wrap): the simulator's
// calls to taskprof::Fiber::resume() land here first.
namespace taskprof {
class Fiber;
}
extern "C" void __real__ZN8taskprof5Fiber6resumeEv(taskprof::Fiber* self);
extern "C" void __wrap__ZN8taskprof5Fiber6resumeEv(taskprof::Fiber* self) {
  perfbench::g_fiber_resumes.fetch_add(1, std::memory_order_relaxed);
  __real__ZN8taskprof5Fiber6resumeEv(self);
}
