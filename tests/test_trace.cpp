#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "trace/sampling.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "bots/kernel.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"

namespace taskprof {
namespace {

using trace::EventKind;
using trace::Trace;
using trace::TraceEvent;
using trace::TraceRecorder;

rt::TaskAttrs attrs_for(RegionHandle region,
                        rt::TaskBinding binding = rt::TaskBinding::kTied) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  attrs.binding = binding;
  return attrs;
}

class TraceTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("t", RegionType::kTask);

  Trace record(int threads, const std::function<void(rt::TaskContext&)>& root,
               rt::SimConfig config = {}) {
    rt::SimRuntime sim(config);
    TraceRecorder recorder;
    sim.set_hooks(&recorder);
    sim.parallel(threads, [&root](rt::TaskContext& ctx) {
      if (ctx.single()) root(ctx);
    });
    sim.set_hooks(nullptr);
    return recorder.take();
  }
};

TEST_F(TraceTest, RecordsBalancedEventStreams) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(1'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  EXPECT_EQ(trace.thread_count(), 2u);
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t creates = 0;
  for (const TraceEvent& event : trace.merged()) {
    if (event.kind == EventKind::kTaskBegin) ++begins;
    if (event.kind == EventKind::kTaskEnd) ++ends;
    if (event.kind == EventKind::kCreateEnd) ++creates;
  }
  EXPECT_EQ(begins, 5u);
  EXPECT_EQ(ends, 5u);
  EXPECT_EQ(creates, 5u);
}

TEST_F(TraceTest, MergedEventsAreTimeOrdered) {
  const Trace trace = record(4, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(2'000); },
                      attrs_for(task_));
    }
  });
  const auto& merged = trace.merged();
  ASSERT_GT(merged.size(), 0u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].time, merged[i].time);
  }
  const auto [begin, end] = trace.time_span();
  EXPECT_EQ(begin, merged.front().time);
  EXPECT_EQ(end, merged.back().time);
}

TEST_F(TraceTest, TakeResetsTheRecorder) {
  rt::SimRuntime sim;
  TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(1, [](rt::TaskContext& ctx) { ctx.work(100); });
  const std::size_t first_count = recorder.event_count();
  EXPECT_GT(first_count, 0u);
  const Trace first = recorder.take();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(first.event_count(), first_count);
  sim.parallel(1, [](rt::TaskContext& ctx) { ctx.work(100); });
  sim.set_hooks(nullptr);
  EXPECT_GT(recorder.event_count(), 0u);
}

TEST_F(TraceTest, AnalysisReconstructsTaskLifetimes) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 6; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(10'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  ASSERT_EQ(analysis.tasks.size(), 6u);
  for (const trace::TaskLifetime& life : analysis.tasks) {
    EXPECT_TRUE(life.completed);
    EXPECT_EQ(life.region, task_);
    EXPECT_EQ(life.parent, kImplicitTaskId);
    EXPECT_GE(life.begin, life.created);  // cannot start before creation
    EXPECT_GE(life.end, life.begin);
    EXPECT_GE(life.active, 10'000);
    EXPECT_EQ(life.fragments, 1);  // no suspension in this program
    EXPECT_EQ(life.migrations, 0);
  }
  EXPECT_GE(analysis.total_active, 60'000);
  EXPECT_EQ(analysis.queue_latency.count, 6u);
  EXPECT_GT(analysis.queue_latency.mean(), 0.0);
}

TEST_F(TraceTest, SuspendedTasksHaveMultipleFragments) {
  const Trace trace = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task(
        [this](rt::TaskContext& outer) {
          outer.work(1'000);
          outer.create_task([](rt::TaskContext& c) { c.work(1'000); },
                            attrs_for(task_));
          outer.taskwait();  // suspension: child runs in between
          outer.work(1'000);
        },
        attrs_for(task_));
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  ASSERT_EQ(analysis.tasks.size(), 2u);
  int max_fragments = 0;
  for (const auto& life : analysis.tasks) {
    max_fragments = std::max(max_fragments, life.fragments);
  }
  EXPECT_GE(max_fragments, 2);  // the outer task was split by its child
  EXPECT_GT(analysis.instance_fragments.max, 1);
}

TEST_F(TraceTest, ParentChildChainReconstructed) {
  // A chain of 5 nested tasks: critical chain length must be 5 and the
  // chain time at least the summed work.
  std::function<void(rt::TaskContext&, int)> chain =
      [&chain, this](rt::TaskContext& ctx, int depth) {
        ctx.create_task(
            [&chain, depth](rt::TaskContext& c) {
              c.work(10'000);
              if (depth > 1) {
                chain(c, depth - 1);
                c.taskwait();
              }
            },
            attrs_for(task_));
      };
  const Trace trace = record(2, [&](rt::TaskContext& ctx) {
    chain(ctx, 5);
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_EQ(analysis.tasks.size(), 5u);
  EXPECT_EQ(analysis.critical_chain_length, 5);
  EXPECT_GE(analysis.critical_chain_time, 50'000);
}

TEST_F(TraceTest, ChainLengthEstimatesConcurrentInstances) {
  // Paper §V-B: "the longest dependency chain (e.g. the recursion depth)
  // of an application may serve as a good estimate for the number of
  // concurrent tasks".  Check the estimate against the profiler.
  std::function<void(rt::TaskContext&, int)> rec =
      [&rec, this](rt::TaskContext& ctx, int depth) {
        ctx.create_task(
            [&rec, depth](rt::TaskContext& c) {
              c.work(500);
              if (depth > 0) {
                rec(c, depth - 1);
                rec(c, depth - 1);
                c.taskwait();
              }
            },
            attrs_for(task_));
      };
  rt::SimRuntime sim;
  RegionRegistry registry;
  Instrumentor instr(registry);
  TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  sim.set_hooks(&fanout);
  sim.parallel(4, [&](rt::TaskContext& ctx) {
    if (ctx.single()) {
      rec(ctx, 7);
      ctx.taskwait();
    }
  });
  sim.set_hooks(nullptr);
  instr.finalize();

  const trace::TraceAnalysis analysis =
      trace::analyze_trace(recorder.take());
  const AggregateProfile profile = instr.aggregate();
  EXPECT_EQ(analysis.critical_chain_length, 8);  // depth 7 + root
  // The measured max concurrent instances is bounded by the chain length
  // (strict scheduling keeps the suspended stack on one root-leaf path).
  EXPECT_LE(profile.max_concurrent_any_thread,
            static_cast<std::size_t>(analysis.critical_chain_length));
  EXPECT_GE(profile.max_concurrent_any_thread, 4u);
}

TEST_F(TraceTest, RepeatedRegionsKeepTheirTasksApart) {
  // fib three times on one runtime: task ids are unique per runtime, so
  // every task of every region is its own lifetime.
  rt::SimRuntime sim;
  RegionRegistry registry;
  TraceRecorder recorder;
  sim.set_hooks(&recorder);
  auto kernel = bots::make_kernel("fib");
  bots::KernelConfig config;
  config.threads = 4;
  config.size = bots::SizeClass::kTest;
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(kernel->run(sim, registry, config).ok);
  }
  sim.set_hooks(nullptr);
  const Trace trace = recorder.take();

  std::size_t begins = 0;
  for (const TraceEvent& event : trace.merged()) {
    if (event.kind == EventKind::kTaskBegin) ++begins;
  }
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_EQ(analysis.tasks.size(), begins);
  // Plus one implicit task per thread and region.
  EXPECT_EQ(analysis.forest.nodes().size(), begins + 3 * 4);
}

TEST_F(TraceTest, BusyTimeMatchesProfilerStubTime) {
  // Cross-validation of trace replay against the profiler: total task
  // fragment time in the trace equals the profiler's stub-node total.
  rt::SimRuntime sim;
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  Instrumentor instr(registry);
  TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  sim.set_hooks(&fanout);
  sim.parallel(3, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 12; ++i) {
      ctx.create_task(
          [&](rt::TaskContext& outer) {
            outer.work(3'000);
            outer.create_task([](rt::TaskContext& c) { c.work(2'000); },
                              attrs_for(task));
            outer.taskwait();
          },
          attrs_for(task));
    }
  });
  sim.set_hooks(nullptr);
  instr.finalize();

  const trace::TraceAnalysis analysis =
      trace::analyze_trace(recorder.take());
  Ticks stub_total = 0;
  const AggregateProfile profile = instr.aggregate();
  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) stub_total += node.inclusive;
  });
  EXPECT_EQ(analysis.total_active, stub_total);

  Ticks busy_total = 0;
  for (const trace::ThreadUsage& usage : analysis.threads) {
    busy_total += usage.busy;
    EXPECT_LE(usage.utilization(), 1.0);
    EXPECT_GE(usage.utilization(), 0.0);
  }
  EXPECT_EQ(busy_total, analysis.total_active);
}

TEST_F(TraceTest, SyncDecompositionSplitsManagementAndWaiting) {
  // One thread executes 50 tiny tasks back to back (short gaps =
  // management); the other threads starve (long gaps = waiting).
  const Trace trace = record(4, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(300); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_GT(analysis.sync_total, 0);
  EXPECT_GT(analysis.sync_management, 0);
  EXPECT_EQ(analysis.sync_total,
            analysis.sync_management + analysis.sync_waiting);
  EXPECT_GT(analysis.management_to_execution_ratio(), 0.0);
}

TEST_F(TraceTest, MigrationsAppearInLifetimes) {
  rt::SimConfig config;  // migration on by default
  const Trace trace = record(
      4,
      [this](rt::TaskContext& ctx) {
        for (int i = 0; i < 24; ++i) {
          ctx.create_task(
              [this](rt::TaskContext& outer) {
                outer.create_task([](rt::TaskContext& c) { c.work(20'000); },
                                  attrs_for(task_));
                outer.taskwait();
                outer.work(2'000);
              },
              attrs_for(task_, rt::TaskBinding::kUntied));
        }
      },
      config);
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  int migrations = 0;
  for (const auto& life : analysis.tasks) migrations += life.migrations;
  EXPECT_GT(migrations, 0);
}

TEST_F(TraceTest, RenderAnalysisAndTimelineProduceText) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(5'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const std::string report = trace::render_analysis(analysis, registry_);
  EXPECT_NE(report.find("task construct"), std::string::npos);
  EXPECT_NE(report.find("management"), std::string::npos);
  EXPECT_NE(report.find("longest dependency chain"), std::string::npos);
  const std::string timeline = trace::render_timeline(trace, 40);
  EXPECT_NE(timeline.find("t0 |"), std::string::npos);
  EXPECT_NE(timeline.find("t1 |"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
}

TEST_F(TraceTest, EmptyTraceHandled) {
  TraceRecorder recorder;
  const Trace trace = recorder.take();
  EXPECT_EQ(trace.event_count(), 0u);
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_TRUE(analysis.tasks.empty());
  EXPECT_EQ(trace::render_timeline(trace), "(empty trace)\n");
}

// ---- Sampling reconstruction (paper §II) -----------------------------------

TEST_F(TraceTest, SamplingConvergesToExactAggregate) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 16; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(50'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const Ticks exact = analysis.total_active;
  ASSERT_GT(exact, 0);

  const auto coarse = trace::sample_trace(trace, 50'000);
  const auto fine = trace::sample_trace(trace, 200);
  const auto coarse_err = std::abs(coarse.estimated_time(task_) - exact);
  const auto fine_err = std::abs(fine.estimated_time(task_) - exact);
  EXPECT_LE(fine_err, coarse_err);
  // Fine-rate estimate within 2 % of the exact value.
  EXPECT_LE(static_cast<double>(fine_err), 0.02 * static_cast<double>(exact));
}

TEST_F(TraceTest, SamplingCountsAreConsistent) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 4; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(10'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const auto histogram = trace::sample_trace(trace, 1'000);
  std::uint64_t task_total = 0;
  for (const auto& [region, samples] : histogram.task_samples) {
    EXPECT_EQ(region, task_);
    task_total += samples;
  }
  EXPECT_EQ(histogram.total_samples, task_total + histogram.other_samples);
  EXPECT_GT(histogram.total_samples, 0u);
  EXPECT_EQ(histogram.estimated_time(static_cast<RegionHandle>(999)), 0);
}

TEST_F(TraceTest, SamplingHandlesSuspendedFragments) {
  // A suspended task's gap must not be attributed to it.
  const Trace trace = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task(
        [this](rt::TaskContext& outer) {
          outer.work(5'000);
          outer.create_task([](rt::TaskContext& c) { c.work(50'000); },
                            attrs_for(task_));
          outer.taskwait();
          outer.work(5'000);
        },
        attrs_for(task_));
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const auto histogram = trace::sample_trace(trace, 100);
  const Ticks estimate = histogram.estimated_time(task_);
  // Estimate tracks total *active* time (fragments), not wall span.
  const double error = std::abs(static_cast<double>(estimate) -
                                static_cast<double>(analysis.total_active));
  EXPECT_LE(error, 0.05 * static_cast<double>(analysis.total_active));
}

// ---- Trace files -------------------------------------------------------------

class TraceFileTest : public TraceTest {
 protected:
  std::string path_ = ::testing::TempDir() + "/taskprof_test.trace";
};

TEST_F(TraceFileTest, RoundTripPreservesEveryEvent) {
  const Trace original = record(3, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.create_task(
          [this](rt::TaskContext& outer) {
            outer.work(2'000);
            outer.create_task([](rt::TaskContext& c) { c.work(1'000); },
                              attrs_for(task_));
            outer.taskwait();
          },
          attrs_for(task_));
    }
  });
  trace::write_trace_file(path_, original);
  const Trace loaded = trace::read_trace_file(path_);

  ASSERT_EQ(loaded.thread_count(), original.thread_count());
  ASSERT_EQ(loaded.event_count(), original.event_count());
  for (ThreadId t = 0; t < original.thread_count(); ++t) {
    const auto& a = original.thread_events(t);
    const auto& b = loaded.thread_events(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].thread, b[i].thread);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].task, b[i].task);
      EXPECT_EQ(a[i].region, b[i].region);
      EXPECT_EQ(a[i].parameter, b[i].parameter);
      EXPECT_EQ(a[i].peer, b[i].peer);
    }
  }
  // Analyses agree on original and loaded traces.
  const auto analysis_a = trace::analyze_trace(original);
  const auto analysis_b = trace::analyze_trace(loaded);
  EXPECT_EQ(analysis_a.total_active, analysis_b.total_active);
  EXPECT_EQ(analysis_a.tasks.size(), analysis_b.tasks.size());
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, EmptyTraceRoundTrips) {
  TraceRecorder recorder;
  trace::write_trace_file(path_, recorder.take());
  const Trace loaded = trace::read_trace_file(path_);
  EXPECT_EQ(loaded.event_count(), 0u);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(trace::read_trace_file(path_ + ".does_not_exist"),
               std::runtime_error);
}

TEST_F(TraceFileTest, BadMagicThrows) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace file", f);
  std::fclose(f);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, TruncatedFileThrows) {
  const Trace original = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task([](rt::TaskContext& c) { c.work(100); },
                    attrs_for(task_));
  });
  trace::write_trace_file(path_, original);
  // Chop the last 10 bytes off.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 10);
  ASSERT_EQ(truncate(path_.c_str(), size - 10), 0);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, TrailingGarbageThrows) {
  const Trace original = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task([](rt::TaskContext& c) { c.work(100); },
                    attrs_for(task_));
  });
  trace::write_trace_file(path_, original);
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("junk", f);
  std::fclose(f);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, EventKindNamesCovered) {
  EXPECT_EQ(trace::event_kind_name(EventKind::kTaskBegin), "task_begin");
  EXPECT_EQ(trace::event_kind_name(EventKind::kMigrate), "migrate");
  EXPECT_EQ(trace::event_kind_name(EventKind::kBarrierEnd), "barrier_end");
}

}  // namespace
}  // namespace taskprof
