// The diagnosis engine: every seeded anti-pattern shape must be flagged
// by its detector (at problem severity, pointing at the offending
// construct), the clean shape must stay finding-free, work/span must add
// up over a trace of several parallel regions, the paper's §VI checks
// must fire on a profile alone, and --report-json must carry the same
// findings as the diagnosis JSON.
#include "diagnose/diagnose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <tuple>

#include "bots/kernel.hpp"
#include "check/shapes.hpp"
#include "diagnose/detectors.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/json_report.hpp"
#include "rt/sim_runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

diag::DiagnosisInput input_for(const check::ShapeRun& run) {
  diag::DiagnosisInput input;
  input.profile = &run.profile;
  input.registry = run.registry.get();
  input.trace = &run.trace;
  input.telemetry = &run.telemetry;
  return input;
}

const diag::Diagnosis* find_detector(const diag::DiagnosisReport& report,
                                     const std::string& id) {
  for (const diag::Diagnosis& d : report.findings) {
    if (d.detector == id) return &d;
  }
  return nullptr;
}

TEST(Diagnose, EverySeededAntiPatternIsFlaggedWithItsCallPath) {
  for (const check::AntiPattern pattern : check::kAllAntiPatterns) {
    if (pattern == check::AntiPattern::kClean) continue;
    SCOPED_TRACE(check::anti_pattern_name(pattern));
    const check::ShapeRun run = check::run_anti_pattern(pattern);
    const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
    const diag::Diagnosis* d =
        find_detector(report, check::anti_pattern_detector(pattern));
    ASSERT_NE(d, nullptr) << "expected detector did not fire";
    EXPECT_EQ(d->severity, diag::Severity::kProblem);
    ASSERT_FALSE(d->sites.empty());
    EXPECT_EQ(d->sites.front().region, run.task_region)
        << "diagnosis points at '" << d->sites.front().name
        << "', not the offending construct";
    EXPECT_FALSE(d->summary.empty());
    EXPECT_FALSE(d->remediation.empty());
    EXPECT_FALSE(d->metrics.empty());
  }
}

TEST(Diagnose, CleanShapeHasNoFindings) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kClean);
  const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  EXPECT_EQ(report.findings.size(), 0u);
  EXPECT_EQ(report.max_severity(), diag::Severity::kInfo);
  EXPECT_TRUE(report.has_workspan);
  EXPECT_GT(report.workspan.logical_parallelism(), 2.0);
}

TEST(Diagnose, FindingsAreRankedBySeverityThenScore) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kCreationStorm);
  diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    const diag::Diagnosis& prev = report.findings[i - 1];
    const diag::Diagnosis& cur = report.findings[i];
    EXPECT_TRUE(prev.severity > cur.severity ||
                (prev.severity == cur.severity && prev.score >= cur.score));
  }
}

/// fib at test size, `regions` times on one runtime, fully recorded.
struct FibRun {
  RegionRegistry registry;
  AggregateProfile profile;
  trace::Trace trace;
};

std::unique_ptr<FibRun> record_fib(int regions) {
  auto out = std::make_unique<FibRun>();
  rt::SimRuntime runtime;
  Instrumentor instrumentor(out->registry, MeasureOptions{});
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout;
  fanout.add(&instrumentor);
  fanout.add(&recorder);
  runtime.set_hooks(&fanout);
  auto kernel = bots::make_kernel("fib");
  bots::KernelConfig config;
  config.threads = 4;
  config.size = bots::SizeClass::kTest;
  for (int r = 0; r < regions; ++r) {
    const bots::KernelResult result =
        kernel->run(runtime, out->registry, config);
    EXPECT_TRUE(result.ok) << result.check;
  }
  runtime.set_hooks(nullptr);
  instrumentor.finalize();
  out->profile = instrumentor.aggregate();
  out->trace = recorder.take();
  return out;
}

// Regions run one after another: three fib regions are three times the
// work and three times the span, so logical parallelism stays put.
TEST(Diagnose, RepeatedRegionsTripleWorkAndKeepParallelism) {
  const auto once = record_fib(1);
  const auto thrice = record_fib(3);
  diag::DiagnosisInput input;
  input.registry = &once->registry;
  input.profile = &once->profile;
  input.trace = &once->trace;
  const diag::DiagnosisReport one = diag::run_diagnosis(input);
  input.registry = &thrice->registry;
  input.profile = &thrice->profile;
  input.trace = &thrice->trace;
  const diag::DiagnosisReport three = diag::run_diagnosis(input);
  ASSERT_TRUE(one.has_workspan);
  ASSERT_TRUE(three.has_workspan);
  EXPECT_NEAR(static_cast<double>(three.workspan.work),
              3.0 * static_cast<double>(one.workspan.work),
              0.01 * static_cast<double>(three.workspan.work));
  EXPECT_NEAR(three.workspan.logical_parallelism(),
              one.workspan.logical_parallelism(),
              0.01 * one.workspan.logical_parallelism());
  EXPECT_EQ(three.workspan.span_length, 3 * one.workspan.span_length);
}

/// `count` tasks of `task_work` ns each, created by one thread of the
/// team, which then waits for them: the §VI granularity workload.
struct FlatRun {
  RegionRegistry registry;
  RegionHandle task =
      registry.register_region("tiny_task", RegionType::kTask);
  AggregateProfile profile;
  trace::Trace trace;

  [[nodiscard]] diag::DiagnosisInput profile_only() const {
    return {&profile, &registry};
  }
};

std::unique_ptr<FlatRun> record_flat(int count, Ticks task_work,
                                     int threads = 2) {
  auto out = std::make_unique<FlatRun>();
  rt::SimRuntime runtime;
  Instrumentor instrumentor(out->registry, MeasureOptions{});
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout;
  fanout.add(&instrumentor);
  fanout.add(&recorder);
  runtime.set_hooks(&fanout);
  const RegionHandle task = out->task;
  runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < count; ++i) {
      rt::TaskAttrs attrs;
      attrs.region = task;
      ctx.create_task(
          [task_work](rt::TaskContext& c) { c.work(task_work); }, attrs);
    }
    ctx.taskwait();
  });
  runtime.set_hooks(nullptr);
  instrumentor.finalize();
  out->profile = instrumentor.aggregate();
  out->trace = recorder.take();
  return out;
}

TEST(Diagnose, TinyTasksAreFlaggedFromTheProfile) {
  // 300 ns bodies, far under the paper's 10 us "too small" line, against
  // microseconds of creation cost: flagged at the task.  (The calibrated
  // floor keeps bodies this size at a warning, as for fib; see
  // DiagnoseOptions::collapse_floor.)
  const auto run = record_flat(100, 300);
  const diag::DiagnosisReport report =
      diag::run_diagnosis(run->profile_only());
  const diag::Diagnosis* d = find_detector(report, "granularity_collapse");
  ASSERT_NE(d, nullptr);
  EXPECT_GE(d->severity, diag::Severity::kWarning);
  ASSERT_FALSE(d->sites.empty());
  EXPECT_EQ(d->sites.front().region, run->task);
  EXPECT_NE(d->remediation.find("cut-off"), std::string::npos);
}

TEST(Diagnose, CoarseTasksAreNotFlagged) {
  // 1 ms tasks: creation is negligible.
  const auto run = record_flat(16, 1'000'000);
  const diag::DiagnosisReport report =
      diag::run_diagnosis(run->profile_only());
  EXPECT_EQ(find_detector(report, "granularity_collapse"), nullptr);
  EXPECT_EQ(report.count_at_least(diag::Severity::kProblem), 0u);
}

TEST(Diagnose, CreationDominatedTasksReportCreateToBodyRatio) {
  const auto run = record_flat(200, 100);
  const diag::DiagnosisReport report =
      diag::run_diagnosis(run->profile_only());
  const diag::Diagnosis* d = find_detector(report, "granularity_collapse");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->summary.find("creation cost"), std::string::npos);
  const auto ratio = std::find_if(
      d->metrics.begin(), d->metrics.end(),
      [](const diag::Metric& m) { return m.name == "create_to_body_ratio"; });
  ASSERT_NE(ratio, d->metrics.end());
  EXPECT_GT(ratio->value, 1.0);
}

TEST(Diagnose, BarrierIdleFiresOnProfileOnlyInput) {
  // One 1 ms task on a team of four: one thread runs it, its creator
  // waits in taskwait, and the other two sit in the barrier for the
  // whole region -- half the summed parallel time.
  const auto run = record_flat(1, 1'000'000, 4);
  const diag::DiagnosisReport report =
      diag::run_diagnosis(run->profile_only());
  const diag::Diagnosis* d = find_detector(report, "barrier_idle");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, diag::Severity::kWarning);
  EXPECT_NEAR(d->score, 0.5, 0.01);
  EXPECT_EQ(d->metrics.front().name, "barrier_idle_fraction");

  // The threshold is the option's: at the measured fraction the detector
  // stays silent.
  diag::DiagnoseOptions options;
  options.barrier_idle_fraction = d->score;
  EXPECT_EQ(find_detector(diag::run_diagnosis(run->profile_only(), options),
                          "barrier_idle"),
            nullptr);
}

TEST(Diagnose, BarrierIdleStandsDownWhenTheRunHasATrace) {
  const auto run = record_flat(1, 1'000'000, 4);
  diag::DiagnosisInput input = run->profile_only();
  input.trace = &run->trace;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_TRUE(report.has_workspan);
  EXPECT_EQ(find_detector(report, "barrier_idle"), nullptr);
}

TEST(Diagnose, TextReportTagsEverySeverity) {
  diag::DiagnosisReport report;
  for (const auto& [severity, detector, summary] :
       {std::tuple{diag::Severity::kProblem, "c", "gamma"},
        std::tuple{diag::Severity::kWarning, "b", "beta"},
        std::tuple{diag::Severity::kInfo, "a", "alpha"}}) {
    diag::Diagnosis d;
    d.severity = severity;
    d.detector = detector;
    d.summary = summary;
    report.findings.push_back(std::move(d));
  }
  std::ostringstream os;
  diag::render_diagnosis_text(report, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("worst severity problem"), std::string::npos) << out;
  EXPECT_NE(out.find("[info] a: alpha"), std::string::npos) << out;
  EXPECT_NE(out.find("[warning] b: beta"), std::string::npos) << out;
  EXPECT_NE(out.find("[problem] c: gamma"), std::string::npos) << out;
}

TEST(Diagnose, ReportJsonSharesTheDiagnosisFindingsSchema) {
  // fib at test size on four threads: a granularity warning and idle
  // barriers, so the shared array holds more than one finding.
  const std::unique_ptr<FibRun> fib = record_fib(1);
  const std::string report = render_report_json(fib->profile, fib->registry);
  const std::string diagnosis = diag::render_diagnosis_json(
      diag::run_diagnosis({&fib->profile, &fib->registry}));
  const auto findings_of = [](const std::string& json) {
    const std::size_t at = json.find("\"findings\": [");
    EXPECT_NE(at, std::string::npos) << json;
    return at == std::string::npos ? std::string() : json.substr(at);
  };
  EXPECT_EQ(findings_of(report), findings_of(diagnosis));
  EXPECT_NE(findings_of(report).find("\"barrier_idle\""), std::string::npos);
  EXPECT_NE(report.find("\"schema_version\": 2,"), std::string::npos);
}

TEST(Diagnose, ReplayFallbackDetectorReadsTelemetryReasons) {
  check::ShapeRun run = check::run_anti_pattern(check::AntiPattern::kClean);
  telemetry::Snapshot snap;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphFallbacks)] = 2;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergences)] = 3;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergeShortSpawn)] = 2;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergeStructure)] = 1;
  diag::DiagnosisInput input = input_for(run);
  input.telemetry = &snap;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  const diag::Diagnosis* d = find_detector(report, "replay_fallback");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, diag::Severity::kInfo);
  EXPECT_NE(d->summary.find("2 short spawn"), std::string::npos);
  EXPECT_NE(d->summary.find("1 structure mismatch"), std::string::npos);
}

TEST(Diagnose, ProfileOnlyInputStillRunsConstructDetectors) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kGranularityCollapse);
  diag::DiagnosisInput input;
  input.profile = &run.profile;
  input.registry = run.registry.get();
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_FALSE(report.has_workspan);
  const diag::Diagnosis* d = find_detector(report, "granularity_collapse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, diag::Severity::kProblem);
}

// Trace files are outside input: an event on a thread the trace does not
// have is skipped, not indexed.
TEST(Diagnose, TraceEventOnAnUnknownThreadIsSkipped) {
  const trace::Trace trace({{trace::TraceEvent{
                                .time = 100,
                                .thread = 40'000'000,
                                .kind = trace::EventKind::kTaskwaitBegin}},
                            {}});
  const RegionRegistry no_names;
  diag::DiagnosisInput input;
  input.registry = &no_names;
  input.trace = &trace;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_TRUE(report.has_workspan);
  EXPECT_TRUE(report.findings.empty());
}

TEST(Diagnose, ParseSeverityRoundTrips) {
  diag::Severity s;
  EXPECT_TRUE(diag::parse_severity("info", &s));
  EXPECT_EQ(s, diag::Severity::kInfo);
  EXPECT_TRUE(diag::parse_severity("warning", &s));
  EXPECT_EQ(s, diag::Severity::kWarning);
  EXPECT_TRUE(diag::parse_severity("problem", &s));
  EXPECT_EQ(s, diag::Severity::kProblem);
  EXPECT_FALSE(diag::parse_severity("fatal", &s));
}

TEST(Diagnose, AnnotationsCarrySeverityDetectorAndCallPath) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kCreationStorm);
  const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  ASSERT_FALSE(report.findings.empty());
  const std::vector<trace::TraceAnnotation> notes =
      diag::diagnosis_annotations(report);
  ASSERT_EQ(notes.size(), report.findings.size());
  const trace::TraceAnnotation& note = notes.front();
  EXPECT_EQ(note.name, "diagnosis: " + report.findings.front().detector);
  auto has_arg = [&note](const std::string& key) {
    return std::any_of(note.args.begin(), note.args.end(),
                       [&key](const auto& kv) { return kv.first == key; });
  };
  EXPECT_TRUE(has_arg("severity"));
  EXPECT_TRUE(has_arg("detector"));
  EXPECT_TRUE(has_arg("call_path"));
}

}  // namespace
}  // namespace taskprof
