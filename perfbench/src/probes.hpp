// Outside-in measurement probes.  Nothing here is compiled into the
// libraries: each probe wraps one public interface of a layer
// (rt::SchedulerHooks, rt::Runtime, snapshot::FlushSink) and times the
// calls that cross it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ingest/daemon.hpp"
#include "rt/hooks.hpp"
#include "rt/runtime.hpp"
#include "snapshot/flusher.hpp"

namespace perfbench {

/// In-memory span recorder for the traced pass.  Spans nest per thread
/// (a Span opened while another is open on the same thread is its
/// child); they are reduced to per-name self times when the run ends.
class SpanLog {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int open(const std::string& name, int parent);
  void close(int index);

  /// Self time per span name, over the spans under root spans named
  /// `root` (one thread's call tree: other threads' spans are roots):
  /// each span's duration minus the part its child spans cover, summed
  /// over spans of that name.  Seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds_under(
      const std::string& root) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
};

/// RAII span; a null log makes it a no-op (untraced passes).
class Span {
 public:
  Span(SpanLog* log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
  int saved_parent_ = -1;
};

/// Event kinds a ProbeHooks decorator times separately.
enum class HookKind : std::uint8_t {
  kParallelBegin, kParallelEnd, kImplicitBegin, kImplicitEnd,
  kCreateBegin, kCreateEnd, kTaskBegin, kTaskEnd, kSwitch, kMigrate,
  kWork, kTaskwaitBegin, kTaskwaitEnd, kBarrierBegin, kBarrierEnd,
  kRegionEnter, kRegionExit, kNote, kCount_
};
inline constexpr std::size_t kHookKinds =
    static_cast<std::size_t>(HookKind::kCount_);

/// Times every callback into `inner` by event kind, per thread, with the
/// steady clock.  Optionally also records region entry: the time from
/// on_parallel_begin to the last thread's on_implicit_task_begin.
class ProbeHooks final : public taskprof::rt::SchedulerHooks {
 public:
  struct Totals {
    std::array<std::uint64_t, kHookKinds> count{};
    std::array<std::uint64_t, kHookKinds> ns{};
    [[nodiscard]] std::uint64_t events() const;
    [[nodiscard]] std::uint64_t total_ns() const;
  };

  ProbeHooks(taskprof::rt::SchedulerHooks* inner, bool track_entry);

  [[nodiscard]] Totals totals() const;
  /// Region-entry latencies in microseconds, one per region.
  [[nodiscard]] const std::vector<double>& entry_us() const {
    return entry_us_;
  }

  void on_parallel_begin(int num_threads) override;
  void on_parallel_end() override;
  void on_implicit_task_begin(taskprof::ThreadId thread,
                              const taskprof::Clock& clock) override;
  void on_implicit_task_end(taskprof::ThreadId thread) override;
  void on_task_create_begin(taskprof::ThreadId thread,
                            taskprof::RegionHandle region,
                            std::int64_t parameter) override;
  void on_task_create_end(taskprof::ThreadId thread,
                          taskprof::TaskInstanceId created,
                          taskprof::RegionHandle region,
                          std::int64_t parameter) override;
  void on_task_begin(taskprof::ThreadId thread, taskprof::TaskInstanceId id,
                     taskprof::RegionHandle region,
                     std::int64_t parameter) override;
  void on_task_end(taskprof::ThreadId thread,
                   taskprof::TaskInstanceId id) override;
  void on_task_switch(taskprof::ThreadId thread,
                      taskprof::TaskInstanceId id) override;
  void on_task_migrate(taskprof::ThreadId from, taskprof::ThreadId to,
                       taskprof::TaskInstanceId id) override;
  void on_task_work(taskprof::ThreadId thread, taskprof::Ticks cost) override;
  void on_taskwait_begin(taskprof::ThreadId thread) override;
  void on_taskwait_end(taskprof::ThreadId thread) override;
  void on_barrier_begin(taskprof::ThreadId thread, bool implicit) override;
  void on_barrier_end(taskprof::ThreadId thread, bool implicit) override;
  void on_region_enter(taskprof::ThreadId thread,
                       taskprof::RegionHandle region,
                       std::int64_t parameter) override;
  void on_region_exit(taskprof::ThreadId thread,
                      taskprof::RegionHandle region) override;
  void on_scheduler_note(taskprof::ThreadId thread,
                         taskprof::rt::SchedulerNote note,
                         std::int64_t detail) override;

 private:
  /// One writer per slot: the thread the event occurs on.
  struct alignas(64) Slot {
    Totals totals;
    std::int64_t implicit_begin_ns = 0;
  };

  template <typename Fn>
  void timed(Slot& slot, HookKind kind, Fn&& forward);
  Slot& slot(taskprof::ThreadId thread) { return slots_[thread]; }

  taskprof::rt::SchedulerHooks* inner_;
  bool track_entry_;
  std::vector<Slot> slots_;  ///< resized only in on_parallel_begin
  Slot encountering_;        ///< parallel begin/end (no thread id)
  int team_ = 0;
  std::int64_t parallel_begin_ns_ = 0;
  std::vector<double> entry_us_;
};

/// rt::Runtime decorator that opens a span named `span` around every
/// parallel region the kernels start.
class SpanRuntime final : public taskprof::rt::Runtime {
 public:
  SpanRuntime(taskprof::rt::Runtime& inner, SpanLog* log, const char* span)
      : inner_(inner), log_(log), span_(span) {}
  void set_hooks(taskprof::rt::SchedulerHooks* hooks) override {
    inner_.set_hooks(hooks);
  }
  void set_telemetry(taskprof::telemetry::Registry* registry) override {
    inner_.set_telemetry(registry);
  }
  taskprof::rt::TeamStats parallel(int num_threads,
                                   taskprof::rt::TaskFn body) override;
  [[nodiscard]] taskprof::Ticks now() const override { return inner_.now(); }

 private:
  taskprof::rt::Runtime& inner_;
  SpanLog* log_;
  const char* span_;
};

/// FlushSink decorator: times each ship() (capture handed over -> daemon
/// ack).  With `daemon` set it also records, per ship, the bytes the
/// daemon received and the size a full rebase of the same capture
/// would have had.
class TimedSink final : public taskprof::snapshot::FlushSink {
 public:
  TimedSink(taskprof::snapshot::FlushSink* inner,
            const taskprof::ingest::IngestDaemon* daemon, SpanLog* log)
      : inner_(inner), daemon_(daemon), log_(log) {}

  bool ship(const taskprof::AggregateProfile& profile,
            const taskprof::RegionRegistry& registry,
            const taskprof::snapshot::SnapshotMeta& meta,
            const taskprof::telemetry::Snapshot* telemetry,
            bool final) noexcept override;
  bool heartbeat() noexcept override { return inner_->heartbeat(); }

  struct Shipment {
    double ms = 0.0;        ///< inside the wrapped ship()
    double probe_ms = 0.0;  ///< this decorator's own bookkeeping
    bool final = false;
    double wire_bytes = 0.0;    ///< daemon bytes_received delta
    double rebase_bytes = 0.0;  ///< encoded full capture
  };
  [[nodiscard]] std::vector<Shipment> shipments() const;

 private:
  taskprof::snapshot::FlushSink* inner_;
  const taskprof::ingest::IngestDaemon* daemon_;
  SpanLog* log_;
  mutable std::mutex mutex_;
  std::vector<Shipment> shipments_;  ///< guarded by mutex_
};

/// Fiber::resume() calls so far (counted by a link-time wrapper).
[[nodiscard]] std::uint64_t fiber_resumes();

}  // namespace perfbench
