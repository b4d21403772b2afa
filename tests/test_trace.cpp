#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "trace/sampling.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>

#include "bots/kernel.hpp"
#include "common/rng.hpp"
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

// ---- Merged view -------------------------------------------------------------

/// The merged view's reference: a stable sort by (time, thread) over the
/// concatenated streams.
std::vector<TraceEvent> stable_sorted_concatenation(
    const std::vector<std::vector<TraceEvent>>& streams) {
  std::vector<TraceEvent> all;
  for (const auto& stream : streams) {
    all.insert(all.end(), stream.begin(), stream.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.thread < b.thread;
                   });
  return all;
}

/// `threads` time-ordered streams of 0..max_events events each.  Times
/// step by 0..2 ticks from a common start, so equal timestamps occur
/// within and across streams; every event carries a unique `task`, so
/// comparing tasks element by element catches any reordering.
std::vector<std::vector<TraceEvent>> random_streams(Xoshiro256& rng,
                                                    std::size_t threads,
                                                    std::size_t max_events) {
  std::vector<std::vector<TraceEvent>> streams(threads);
  TaskInstanceId serial = 1;
  for (std::size_t t = 0; t < threads; ++t) {
    Ticks time = static_cast<Ticks>(rng.next_below(4));
    const std::size_t count = rng.next_below(max_events + 1);
    for (std::size_t i = 0; i < count; ++i) {
      time += static_cast<Ticks>(rng.next_below(3));
      streams[t].push_back(TraceEvent{.time = time,
                                      .task = serial++,
                                      .thread = static_cast<ThreadId>(t)});
    }
  }
  return streams;
}

void expect_merge_matches_reference(
    std::vector<std::vector<TraceEvent>> streams) {
  const std::vector<TraceEvent> expected = stable_sorted_concatenation(streams);
  const Trace trace(std::move(streams));
  const std::vector<TraceEvent>& merged = trace.merged();
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].task, expected[i].task) << "position " << i;
    ASSERT_EQ(merged[i].time, expected[i].time) << "position " << i;
    ASSERT_EQ(merged[i].thread, expected[i].thread) << "position " << i;
  }
}

TEST(TraceMerge, MatchesStableSortOfTheConcatenation) {
  Xoshiro256 rng(0x3E7'6ED5'7EA3ull);
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    const std::size_t threads = 1 + rng.next_below(8);
    std::vector<std::vector<TraceEvent>> streams =
        random_streams(rng, threads, 48);
    switch (round % 5) {
      case 0:  // recorded shape: ordered streams, ties across threads
        break;
      case 1:  // event.thread reversed against the stream index; every
               // stream stays in key order
        for (std::size_t t = 0; t < threads; ++t) {
          for (TraceEvent& event : streams[t]) {
            event.thread = static_cast<ThreadId>(threads - 1 - t);
          }
        }
        break;
      case 2:  // event.thread random: streams out of key order at ties
        for (auto& stream : streams) {
          for (TraceEvent& event : stream) {
            event.thread = static_cast<ThreadId>(rng.next_below(threads));
          }
        }
        break;
      case 3: {  // one stream out of time order
        auto& stream = streams[rng.next_below(threads)];
        for (std::size_t i = stream.size(); i > 1; --i) {
          std::swap(stream[i - 1], stream[rng.next_below(i)]);
        }
        break;
      }
      case 4:  // empty streams among non-empty ones
        for (auto& stream : streams) {
          if (rng.next_below(2) == 0) stream.clear();
        }
        break;
    }
    expect_merge_matches_reference(std::move(streams));
  }
}

TEST(TraceMerge, EmptyStreamsAndEmptyTrace) {
  expect_merge_matches_reference({});
  expect_merge_matches_reference({{}, {}, {}});
  expect_merge_matches_reference(
      {{}, {TraceEvent{.time = 5, .task = 1, .thread = 1}}, {}});
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
    EXPECT_GE(life.begin, life.created);  // cannot start before creation
    EXPECT_GE(life.end, life.begin);
    EXPECT_GE(life.active, 10'000);
    EXPECT_EQ(life.fragments, 1);  // no suspension in this program
    EXPECT_EQ(life.migrations, 0);
  }
  // Every task was created by the implicit task.
  const auto& nodes = analysis.forest.nodes();
  for (const trace::TaskForest::Node& node : nodes) {
    if (node.implicit) continue;
    ASSERT_NE(node.parent, trace::TaskForest::kNoNode);
    EXPECT_TRUE(nodes[node.parent].implicit);
  }
  EXPECT_GE(analysis.total_active, 60'000);
  EXPECT_EQ(analysis.queue_latency.count, 6u);
  EXPECT_GT(analysis.queue_latency.mean(), 0.0);
}

// A task end closes whatever task its thread runs, as the forest does,
// even when the event names another id.
TEST(TraceAnalysis, TaskEndClosesTheRunningTask) {
  const Trace trace({{
      {.time = 0, .kind = EventKind::kImplicitBegin},
      {.time = 10, .task = 5, .region = 0, .kind = EventKind::kCreateEnd},
      {.time = 20, .task = 5, .region = 0, .kind = EventKind::kTaskBegin},
      {.time = 30, .task = 6, .kind = EventKind::kTaskEnd},
      {.time = 40, .kind = EventKind::kImplicitEnd},
  }});
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  ASSERT_EQ(analysis.tasks.size(), 1u);
  EXPECT_EQ(analysis.tasks[0].id, 5u);
  EXPECT_EQ(analysis.tasks[0].end, 30);
  EXPECT_EQ(analysis.tasks[0].active, 10);
  for (const trace::TaskForest::Node& node : analysis.forest.nodes()) {
    if (node.implicit) continue;
    EXPECT_EQ(node.id, 5u);
    EXPECT_TRUE(node.completed);
    EXPECT_EQ(node.active, 10);
  }
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

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void expect_same_events(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.thread_count(), b.thread_count());
  for (ThreadId t = 0; t < a.thread_count(); ++t) {
    const auto& x = a.thread_events(t);
    const auto& y = b.thread_events(t);
    ASSERT_EQ(x.size(), y.size()) << "thread " << t;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(x[i].time == y[i].time && x[i].thread == y[i].thread &&
                  x[i].kind == y[i].kind && x[i].task == y[i].task &&
                  x[i].region == y[i].region &&
                  x[i].parameter == y[i].parameter && x[i].peer == y[i].peer)
          << "thread " << t << " event " << i;
    }
  }
}

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
  expect_same_events(original, loaded);
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

// write -> read -> write reproduces the file byte for byte, on every
// kernel's recording (4 simulated workers, so all streams interleave).
TEST_F(TraceFileTest, EveryKernelRoundTripsByteForByte) {
  const std::string again = path_ + ".again";
  for (const auto& kernel : bots::make_all_kernels()) {
    SCOPED_TRACE(std::string(kernel->name()));
    RegionRegistry registry;
    rt::SimRuntime sim;
    TraceRecorder recorder;
    sim.set_hooks(&recorder);
    bots::KernelConfig config;
    config.threads = 4;
    config.size = bots::SizeClass::kTest;
    ASSERT_TRUE(kernel->run(sim, registry, config).ok);
    sim.set_hooks(nullptr);
    const Trace original = recorder.take();
    ASSERT_GT(original.event_count(), 0u);

    trace::write_trace_file(path_, original);
    const Trace loaded = trace::read_trace_file(path_);
    expect_same_events(original, loaded);
    trace::write_trace_file(again, loaded);
    EXPECT_EQ(file_bytes(path_), file_bytes(again));
  }
  std::remove(path_.c_str());
  std::remove(again.c_str());
}

/// The program behind tests/corpus/trace/ok_two_regions.tptrc: a region
/// of 4 workers running untied tasks that migrate, then one of 2 workers
/// running tied tasks, on one simulator.
Trace golden_program_trace() {
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  rt::SimRuntime sim;
  TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(4, [task](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 24; ++i) {
      ctx.create_task(
          [task](rt::TaskContext& outer) {
            outer.create_task([](rt::TaskContext& c) { c.work(20'000); },
                              attrs_for(task));
            outer.taskwait();
            outer.work(2'000);
          },
          attrs_for(task, rt::TaskBinding::kUntied));
    }
  });
  sim.parallel(2, [task](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 3; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(1'000); },
                      attrs_for(task));
    }
    ctx.taskwait();
  });
  sim.set_hooks(nullptr);
  return recorder.take();
}

// Format-stability golden: a file written by the field-by-field writer
// that preceded the block codec loads into the events its program records
// today, and today's writer reproduces it byte for byte.
TEST_F(TraceFileTest, CommittedGoldenLoadsAndRewritesByteForByte) {
  const std::string golden =
      std::string(TASKPROF_TRACE_CORPUS_DIR) + "/ok_two_regions.tptrc";
  const Trace loaded = trace::read_trace_file(golden);
  const Trace recorded = golden_program_trace();
  bool migrated = false;
  for (const TraceEvent& event : loaded.merged()) {
    migrated = migrated || event.kind == EventKind::kMigrate;
  }
  EXPECT_TRUE(migrated);
  expect_same_events(recorded, loaded);
  trace::write_trace_file(path_, loaded);
  EXPECT_EQ(file_bytes(path_), file_bytes(golden));
  std::remove(path_.c_str());
}

TEST_F(TraceTest, EventKindNamesCovered) {
  EXPECT_EQ(trace::event_kind_name(EventKind::kTaskBegin), "task_begin");
  EXPECT_EQ(trace::event_kind_name(EventKind::kMigrate), "migrate");
  EXPECT_EQ(trace::event_kind_name(EventKind::kBarrierEnd), "barrier_end");
}

}  // namespace
}  // namespace taskprof
