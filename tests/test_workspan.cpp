// Work/span queries on the task forest (trace/forest.hpp), over
// hand-built traces: the degenerate shapes that used to mis-attribute
// (zero-duration tasks falling off the critical chain, region-less tasks
// rendered with a raw handle number), the tie-break rules, and the
// inputs a forest must survive — duplicate task ids from a corrupt or
// foreign trace file, and creation chains far deeper than any call
// stack.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <vector>

#include "diagnose/diagnose.hpp"
#include "profile/region.hpp"
#include "trace/analysis.hpp"
#include "trace/forest.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

using trace::EventKind;

/// Appends events at a running clock.  Tasks run one after another on
/// thread 0; extra threads only open and close their implicit task.
class TraceBuilder {
 public:
  explicit TraceBuilder(RegionHandle region = kInvalidRegion,
                        std::size_t threads = 1)
      : region_(region), streams_(threads) {
    for (ThreadId t = 0; t < threads; ++t) event(t, EventKind::kImplicitBegin);
  }

  /// The running task (or the implicit task) creates `id`.
  void create(TaskInstanceId id) { event(0, EventKind::kCreateEnd, id); }

  /// Run `id` for `active` ticks, creating `children` at the end of its
  /// body.
  void task(TaskInstanceId id, Ticks active,
            std::initializer_list<TaskInstanceId> children = {}) {
    event(0, EventKind::kTaskBegin, id);
    now_ += active;
    for (const TaskInstanceId child : children) create(child);
    event(0, EventKind::kTaskEnd, id);
  }

  /// Begin `id` and leave it running (its end is never recorded).
  void begin(TaskInstanceId id) { event(0, EventKind::kTaskBegin, id); }

  trace::Trace finish() {
    for (ThreadId t = 0; t < streams_.size(); ++t) {
      event(t, EventKind::kImplicitEnd);
    }
    return trace::Trace(std::move(streams_));
  }

 private:
  void event(ThreadId thread, EventKind kind,
             TaskInstanceId task = kImplicitTaskId) {
    const RegionHandle region =
        task == kImplicitTaskId ? kInvalidRegion : region_;
    streams_[thread].push_back({.time = now_,
                                .task = task,
                                .thread = thread,
                                .region = region,
                                .kind = kind});
  }

  RegionHandle region_;
  Ticks now_ = 0;
  std::vector<std::vector<trace::TraceEvent>> streams_;
};

std::vector<TaskInstanceId> chain_ids(const trace::TaskForest& forest) {
  std::vector<TaskInstanceId> ids;
  for (const std::uint32_t n : forest.creation_chain().nodes) {
    ids.push_back(forest.nodes()[n].id);
  }
  return ids;
}

TEST(WorkSpan, EmptyTraceYieldsEmptySummary) {
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace::Trace{});
  EXPECT_TRUE(analysis.forest.nodes().empty());
  EXPECT_TRUE(analysis.forest.creation_chain().nodes.empty());
  RegionRegistry registry;
  const diag::WorkSpanSummary ws = diag::compute_workspan(analysis, registry);
  EXPECT_EQ(ws.work, 0);
  EXPECT_EQ(ws.span, 0);
  EXPECT_EQ(ws.span_length, 0);
  EXPECT_TRUE(ws.shares.empty());
  EXPECT_EQ(ws.logical_parallelism(), 0.0);
}

TEST(WorkSpan, ZeroDurationDescendantsStayOnTheChain) {
  // 1(100) -> 2(0) -> 3(0): the heaviest chain must run to the leaf even
  // though the subtree below 1 contributes no time.
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("zero_chain", RegionType::kTask);
  TraceBuilder b(region);
  b.create(1);
  b.task(1, 100, {2});
  b.task(2, 0, {3});
  b.task(3, 0);
  const trace::TraceAnalysis analysis = trace::analyze_trace(b.finish());

  const diag::WorkSpanSummary ws = diag::compute_workspan(analysis, registry);
  EXPECT_EQ(ws.work, 100);
  EXPECT_EQ(ws.span, 100);
  EXPECT_EQ(ws.span_length, 3);
  EXPECT_EQ(chain_ids(analysis.forest),
            (std::vector<TaskInstanceId>{1, 2, 3}));
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].instances, 3);
}

TEST(WorkSpan, AllZeroDurationTasksStillFormAChain) {
  TraceBuilder b;
  b.create(1);
  b.task(1, 0, {2});
  b.task(2, 0);
  const trace::TraceAnalysis analysis = trace::analyze_trace(b.finish());
  EXPECT_EQ(analysis.critical_chain_time, 0);
  EXPECT_EQ(analysis.critical_chain_length, 2);
  EXPECT_EQ(chain_ids(analysis.forest), (std::vector<TaskInstanceId>{1, 2}));
}

TEST(WorkSpan, TieOnTimePrefersLongerChainThenSmallerId) {
  // Root 1 has two subtrees of equal weight: child 2 (50, leaf) and
  // child 3 (50) -> 4 (0).  Equal time, so the longer chain through 3
  // wins.
  TraceBuilder longer;
  longer.create(1);
  longer.task(1, 10, {2, 3});
  longer.task(2, 50);
  longer.task(3, 50, {4});
  longer.task(4, 0);
  const trace::TraceAnalysis a = trace::analyze_trace(longer.finish());
  EXPECT_EQ(a.critical_chain_time, 60);
  EXPECT_EQ(a.critical_chain_length, 3);
  EXPECT_EQ(chain_ids(a.forest), (std::vector<TaskInstanceId>{1, 3, 4}));

  // Equal time and length: the smaller id wins, not the first created.
  TraceBuilder smaller;
  smaller.create(5);
  smaller.create(4);
  smaller.task(5, 30);
  smaller.task(4, 30);
  const trace::TraceAnalysis b = trace::analyze_trace(smaller.finish());
  EXPECT_EQ(chain_ids(b.forest), (std::vector<TaskInstanceId>{4}));
}

TEST(WorkSpan, RegionlessTasksGetAStableLabel) {
  // Tasks recorded without a region (hand-built or truncated traces) must
  // not render as "region 4294967295".
  RegionRegistry registry;
  TraceBuilder b;
  b.create(1);
  b.task(1, 30);
  const trace::TraceAnalysis analysis = trace::analyze_trace(b.finish());

  const diag::WorkSpanSummary ws = diag::compute_workspan(analysis, registry);
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].name, "(unattributed)");
  EXPECT_EQ(registry.display_name(kInvalidRegion), "(unattributed)");
}

TEST(WorkSpan, TasksOfAnUnfinishedCreatorAreChainRoots) {
  // Task 99 creates 7 but never completes: 7 must still be a chain root
  // rather than vanish from the span.
  TraceBuilder b;
  b.create(8);
  b.create(99);
  b.task(8, 20);
  b.begin(99);
  b.create(7);
  b.task(7, 80);
  const trace::TraceAnalysis analysis = trace::analyze_trace(b.finish());
  EXPECT_EQ(analysis.critical_chain_time, 80);
  EXPECT_EQ(chain_ids(analysis.forest), (std::vector<TaskInstanceId>{7}));
}

TEST(WorkSpan, EvaluationHonorsCustomCosts) {
  // The what-if projector re-prices segments: halving the hot task's
  // cost must move the sync-aware span to the other subtree.
  RegionRegistry registry;
  const RegionHandle hot = registry.register_region("hot", RegionType::kTask);
  const RegionHandle cold =
      registry.register_region("cold", RegionType::kTask);
  std::vector<trace::TraceEvent> events;
  auto add = [&events](Ticks time, EventKind kind, TaskInstanceId task,
                       RegionHandle region) {
    events.push_back(
        {.time = time, .task = task, .region = region, .kind = kind});
  };
  add(0, EventKind::kImplicitBegin, 0, kInvalidRegion);
  add(0, EventKind::kCreateEnd, 1, cold);
  add(0, EventKind::kTaskBegin, 1, cold);
  add(10, EventKind::kCreateEnd, 2, hot);
  add(10, EventKind::kCreateEnd, 3, cold);
  add(10, EventKind::kTaskEnd, 1, cold);
  add(10, EventKind::kTaskBegin, 2, hot);
  add(110, EventKind::kTaskEnd, 2, hot);
  add(110, EventKind::kTaskBegin, 3, cold);
  add(180, EventKind::kTaskEnd, 3, cold);
  add(180, EventKind::kImplicitEnd, 0, kInvalidRegion);
  const trace::TraceAnalysis analysis =
      trace::analyze_trace(trace::Trace({std::move(events)}));
  const trace::TaskForest& forest = analysis.forest;

  using Forest = trace::TaskForest;
  const auto measured = forest.evaluate(
      [](const Forest::PathKey&, const Forest::Segment& s) {
        return Forest::SegmentCost{static_cast<double>(s.active),
                                   static_cast<double>(s.active)};
      });
  EXPECT_DOUBLE_EQ(measured.span, 110.0);
  EXPECT_EQ(measured.tasks_on_chain, 2);
  EXPECT_DOUBLE_EQ(measured.scalable_on_chain.at({hot, kNoParameter}), 100.0);

  const auto scaled = forest.evaluate(
      [hot](const Forest::PathKey& key, const Forest::Segment& s) {
        const double active = static_cast<double>(s.active);
        return Forest::SegmentCost{key.first == hot ? active / 2 : active,
                                   active};
      });
  EXPECT_DOUBLE_EQ(scaled.span, 80.0);
  EXPECT_EQ(scaled.tasks_on_chain, 2);
  EXPECT_EQ(scaled.scalable_on_chain.count({hot, kNoParameter}), 0u);
  EXPECT_DOUBLE_EQ(scaled.scalable_on_chain.at({cold, kNoParameter}), 80.0);
}

TEST(WorkSpan, DuplicateCreateOfOneIdKeepsAForest) {
  // Task 2 "creates" task 1 a second time, as a corrupt file or an old
  // trace whose ids restarted per region can.  Following both creates
  // would make 1 -> 2 -> 1 a cycle; the forest keeps the first creator.
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("dup", RegionType::kTask);
  TraceBuilder b(region);
  b.create(1);
  b.task(1, 10, {2});
  b.task(2, 10, {1});
  b.task(1, 10);
  const trace::Trace recorded = b.finish();

  const trace::TraceAnalysis analysis = trace::analyze_trace(recorded);
  EXPECT_EQ(analysis.critical_chain_length, 2);
  EXPECT_EQ(analysis.critical_chain_time, 30);
  const auto evaluation = analysis.forest.evaluate(
      [](const trace::TaskForest::PathKey&,
         const trace::TaskForest::Segment& s) {
        return trace::TaskForest::SegmentCost{static_cast<double>(s.active),
                                              static_cast<double>(s.active)};
      });
  // 1's second run lands in its own item list; the dropped create adds
  // no edge, so 2 (created at offset 10) ends with 1's last segment.
  EXPECT_TRUE(std::isfinite(evaluation.span));
  EXPECT_DOUBLE_EQ(evaluation.span, 20.0);

  diag::DiagnosisInput input;
  input.registry = &registry;
  input.trace = &recorded;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_EQ(report.workspan.span, 30);

  whatif::WhatIfProfile profile;
  ASSERT_TRUE(
      whatif::WhatIfProfile::build(recorded, analysis, registry, &profile)
          .ok());
  EXPECT_GT(profile.span(), 0);
  EXPECT_LE(profile.span(), profile.work());
  EXPECT_EQ(profile.rank_targets(0.5, {2}).size(), 1u);
}

TEST(WorkSpan, DeepCreationChainNeedsNoRecursion) {
  // A 100k-link serial creation chain: every forest walk must be
  // iterative (one stack frame per link overflows the call stack).
  constexpr int kLinks = 100'000;
  constexpr Ticks kActive = 10;
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("link", RegionType::kTask);
  TraceBuilder b(region, 2);
  b.create(1);
  for (int i = 1; i <= kLinks; ++i) {
    const auto id = static_cast<TaskInstanceId>(i);
    if (i < kLinks) {
      b.task(id, kActive, {id + 1});
    } else {
      b.task(id, kActive);
    }
  }
  const trace::Trace recorded = b.finish();

  const trace::TraceAnalysis analysis = trace::analyze_trace(recorded);
  ASSERT_EQ(analysis.tasks.size(), static_cast<std::size_t>(kLinks));
  EXPECT_EQ(analysis.critical_chain_length, kLinks);
  EXPECT_EQ(analysis.critical_chain_time, kLinks * kActive);

  diag::DiagnosisInput input;
  input.registry = &registry;
  input.trace = &recorded;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_EQ(report.workspan.span, kLinks * kActive);
  EXPECT_EQ(report.workspan.span_length, kLinks);
  bool chain_found = false;
  for (const diag::Diagnosis& d : report.findings) {
    if (d.detector != "serialized_spawn_chain") continue;
    chain_found = true;
    EXPECT_EQ(d.metrics.front().name, "chain_length");
    EXPECT_EQ(d.metrics.front().value, static_cast<double>(kLinks));
  }
  EXPECT_TRUE(chain_found);

  whatif::WhatIfProfile profile;
  ASSERT_TRUE(
      whatif::WhatIfProfile::build(recorded, analysis, registry, &profile)
          .ok());
  EXPECT_EQ(profile.span(), kLinks * kActive);
  EXPECT_EQ(profile.span_length(), kLinks);
}

}  // namespace
}  // namespace taskprof
