// One timestamp per scheduler event: the real engine's per-worker
// EventClock shared by every listener, TimedHooks taking its start from
// that stamp (and only from that stamp), the clocks outliving regions of
// shrinking teams, and the Instrumentor's per-thread create-region cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "common/clock.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/hooks.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "rt/task_context.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

rt::TaskAttrs attrs_for(RegionHandle region) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  return attrs;
}

/// A few hundred nanoseconds of real work the optimizer cannot drop.
void spin(std::atomic<std::uint64_t>& sink, int iterations) {
  std::uint64_t acc = 0;
  for (int i = 0; i < iterations; ++i) acc = acc * 31 + 7;
  sink.fetch_add(acc, std::memory_order_relaxed);
}

Ticks wall_now() { return SteadyClock::read(); }

TEST(EventClock, OneReadPerEventLatchedUntilTheNextMark) {
  EventClock clock;
  clock.mark();
  const Ticks first = clock.now();
  // Later reads of the same event return the latch, however long after.
  const Ticks deadline = wall_now() + 50'000;
  while (wall_now() < deadline) {
  }
  EXPECT_EQ(clock.now(), first);
  clock.mark();
  const Ticks second = clock.now();
  EXPECT_GT(second, first);
  EXPECT_EQ(clock.now(), second);
}

TEST(EventClock, UnmarkedClockReadsOnceAndKeepsTheValue) {
  EventClock clock;
  const Ticks before = wall_now();
  const Ticks stamp = clock.now();
  EXPECT_GE(stamp, before);
  EXPECT_EQ(clock.now(), stamp);  // no mark: still the same event
}

// Every listener of one event sees one timestamp, so the trace's
// per-task intervals and the profiler's merged task node add up to the
// same nanosecond.  Leaf tasks only: a task without scheduling points
// runs begin..end in one piece on one thread.
TEST(EventClock, FanoutListenersShareEachEventTimestamp) {
  RegionRegistry registry;
  const RegionHandle leaf =
      registry.register_region("leaf", RegionType::kTask);
  Instrumentor instr(registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  rt::RealRuntime runtime;
  runtime.set_hooks(&fanout);

  constexpr int kTasks = 400;
  std::atomic<std::uint64_t> sink{0};
  runtime.parallel(2, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < kTasks; ++i) {
      ctx.create_task([&sink](rt::TaskContext&) { spin(sink, 200); },
                      attrs_for(leaf));
    }
    ctx.taskwait();
  });
  runtime.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();
  const trace::Trace trace = recorder.take();

  Ticks traced = 0;
  int intervals = 0;
  for (ThreadId t = 0; t < trace.thread_count(); ++t) {
    std::map<TaskInstanceId, Ticks> open;
    for (const trace::TraceEvent& e : trace.thread_events(t)) {
      if (e.kind == trace::EventKind::kTaskBegin) {
        open[e.task] = e.time;
      } else if (e.kind == trace::EventKind::kTaskEnd) {
        const auto it = open.find(e.task);
        ASSERT_NE(it, open.end()) << "task end without begin";
        traced += e.time - it->second;
        open.erase(it);
        ++intervals;
      }
    }
    EXPECT_TRUE(open.empty());
  }
  EXPECT_EQ(intervals, kTasks);
  const CallNode* root = profile.task_root(leaf);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->visits, static_cast<std::uint64_t>(kTasks));
  EXPECT_GT(traced, 0);
  EXPECT_EQ(root->inclusive, traced);
}

/// Hook time from TimedHooks over `runtime`, bounded by the run's wall
/// time times the OS threads that run hooks at once.  A virtual start
/// mixed with a wall-clock end reads as decades.
void expect_plausible_hook_ticks(rt::Runtime& runtime, int threads,
                                 int os_threads) {
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  Instrumentor instr(registry);
  telemetry::Registry telem;
  telemetry::TimedHooks timed(&instr, &telem);
  runtime.set_hooks(&timed);
  runtime.set_telemetry(&telem);
  std::atomic<std::uint64_t> sink{0};
  const Ticks wall_start = wall_now();
  runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 200; ++i) {
      ctx.create_task(
          [&sink](rt::TaskContext& c) {
            c.work(1'000);
            spin(sink, 50);
          },
          attrs_for(task));
    }
    ctx.taskwait();
  });
  const Ticks wall = wall_now() - wall_start;
  runtime.set_hooks(nullptr);
  runtime.set_telemetry(nullptr);
  instr.finalize();

  const telemetry::Snapshot snap = telem.snapshot();
  const std::uint64_t events = snap.counter(telemetry::Counter::kHookEvents);
  const std::uint64_t ticks = snap.counter(telemetry::Counter::kHookTicks);
  EXPECT_GT(events, 400u);  // create begin/end alone: 2 per task
  EXPECT_GT(ticks, 0u);
  EXPECT_LE(ticks, static_cast<std::uint64_t>(wall) *
                       static_cast<std::uint64_t>(os_threads));
}

TEST(EventClockTimedHooks, SimulatorHookTicksAreWallTimeWithinTheRun) {
  rt::SimRuntime runtime;  // every virtual worker on this one OS thread
  expect_plausible_hook_ticks(runtime, 4, 1);
}

TEST(EventClockTimedHooks, RealEngineHookTicksAreWallTimeWithinTheRun) {
  rt::RealRuntime runtime;
  expect_plausible_hook_ticks(runtime, 2, 2);
}

// The profilers keep each worker's clock until finalize(); a later team
// of another size must neither free nor move the clocks of the workers it
// no longer uses.  finalize() closes each implicit root at that thread's
// last event, which the trace recorder stamped with the same clock.
void expect_clocks_outlive_teams(rt::Runtime& runtime,
                                 const std::vector<int>& teams) {
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  Instrumentor instr(registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  runtime.set_hooks(&fanout);
  std::atomic<std::uint64_t> sink{0};
  const rt::TaskFn body = [&](rt::TaskContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.create_task(
          [&sink](rt::TaskContext& c) {
            c.work(1'000);  // virtual time on the simulator, no-op on threads
            spin(sink, 100);
          },
          attrs_for(task));
    }
    ctx.taskwait();
    ctx.barrier();
  };
  std::uint64_t executed = 0;
  std::uint64_t workers = 0;
  std::size_t largest = 0;
  for (const int team : teams) {
    executed += runtime.parallel(team, body).tasks_executed;
    workers += static_cast<std::uint64_t>(team);
    largest = std::max(largest, static_cast<std::size_t>(team));
  }
  runtime.set_hooks(nullptr);
  instr.finalize();

  const AggregateProfile profile = instr.aggregate();
  const check::InvariantReport report = check::check_profile(profile, registry);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const CallNode* root = profile.task_root(task);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->visits, workers * 20u);
  EXPECT_EQ(executed, workers * 20u);

  const trace::Trace trace = recorder.take();
  ASSERT_EQ(trace.thread_count(), largest);
  for (ThreadId t = 0; t < largest; ++t) {
    const ThreadTaskProfiler* prof = instr.profiler(t);
    ASSERT_NE(prof, nullptr);
    const auto& events = trace.thread_events(t);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, trace::EventKind::kImplicitBegin);
    EXPECT_EQ(events.back().kind, trace::EventKind::kImplicitEnd);
    EXPECT_EQ(prof->implicit_root()->inclusive,
              events.back().time - events.front().time)
        << "thread " << t;
  }
}

TEST(EventClock, ClocksOutliveShrinkingTeamsUntilFinalize) {
  rt::RealRuntime runtime;
  expect_clocks_outlive_teams(runtime, {2, 4, 1});
}

// The simulator's virtual clocks likewise: a team of 1 after one of 4
// leaves workers 1-3 idle, a team of 8 after that grows the engine's
// per-worker state, and a last team of 2 leaves workers 2-7 to be closed
// by finalize() from clocks their workers no longer run.
TEST(EventClock, SimulatorClocksOutliveChangingTeamsUntilFinalize) {
  rt::SimRuntime runtime;
  expect_clocks_outlive_teams(runtime, {4, 1, 8, 2});
}

// Two constructs, each first created mid-region by several workers at
// once: every worker misses its own table concurrently, and the shared
// map must still register exactly one "create" region per construct.
TEST(InstrumentorCreateCache, ConcurrentFirstCreatesShareOneRegion) {
  RegionRegistry registry;
  const RegionHandle alpha =
      registry.register_region("alpha", RegionType::kTask);
  const RegionHandle beta =
      registry.register_region("beta", RegionType::kTask);
  Instrumentor instr(registry);
  const std::size_t regions_before = registry.size();
  rt::RealRuntime runtime;
  runtime.set_hooks(&instr);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> sink{0};
  runtime.parallel(kThreads, [&](rt::TaskContext& ctx) {
    // Start together so the first creates (the cache misses) overlap;
    // even workers start with alpha, odd ones with beta.
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    const bool alpha_first = ctx.thread_id() % 2 == 0;
    for (int i = 0; i < kPerThread; ++i) {
      for (const RegionHandle r :
           {alpha_first ? alpha : beta, alpha_first ? beta : alpha}) {
        ctx.create_task([&sink](rt::TaskContext&) { spin(sink, 20); },
                        attrs_for(r));
      }
    }
    ctx.taskwait();
  });
  runtime.set_hooks(nullptr);
  instr.finalize();

  EXPECT_EQ(registry.size(), regions_before + 2);
  const RegionHandle create_alpha = instr.create_region_for(alpha);
  const RegionHandle create_beta = instr.create_region_for(beta);
  EXPECT_NE(create_alpha, create_beta);
  EXPECT_EQ(registry.info(create_alpha).name, "create alpha");
  EXPECT_EQ(registry.info(create_beta).name, "create beta");

  const AggregateProfile profile = instr.aggregate();
  std::map<RegionHandle, std::uint64_t> create_visits;
  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    if (registry.info(node.region).type == RegionType::kTaskCreate) {
      create_visits[node.region] += node.visits;
    }
  });
  const auto per_construct =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(create_visits.size(), 2u);
  EXPECT_EQ(create_visits[create_alpha], per_construct);
  EXPECT_EQ(create_visits[create_beta], per_construct);
  ASSERT_NE(profile.task_root(alpha), nullptr);
  ASSERT_NE(profile.task_root(beta), nullptr);
  EXPECT_EQ(profile.task_root(alpha)->visits, per_construct);
  EXPECT_EQ(profile.task_root(beta)->visits, per_construct);
}

}  // namespace
}  // namespace taskprof
