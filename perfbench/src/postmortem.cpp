#include "postmortem.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "check/invariants.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/cube_export.hpp"
#include "report/json_report.hpp"
#include "report/text_report.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/merge.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "whatif/render.hpp"
#include "whatif/whatif.hpp"

namespace perfbench {

namespace tp = taskprof;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a, for comparing outputs without keeping them.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t file_digest(const std::string& path, std::uint64_t hash) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return fnv1a(bytes.data(), bytes.size(), hash);
}

/// Thread counts the whatif projections are made at.
const std::vector<int> kProjectionThreads = {1, 2, 4, 8};

}  // namespace

PostmortemInputs record_postmortem(const WorkloadSpec& spec,
                                   std::uint64_t seed,
                                   Results& results) {
  PostmortemInputs inputs;
  tp::RegionRegistry registry;
  tp::rt::SimRuntime runtime;
  tp::trace::TraceRecorder recorder;
  for (const KernelSpec& ks : spec.recorded) {
    auto kernel = tp::bots::make_kernel(ks.name);
    tp::Instrumentor instr(registry);
    tp::telemetry::Registry telem;
    tp::rt::FanoutHooks fanout({&instr, &recorder});
    runtime.set_hooks(&fanout);
    runtime.set_telemetry(&telem);
    const tp::bots::KernelConfig config =
        kernel_config(ks, kRecordWorkers, seed);
    for (int r = 0; r < ks.regions; ++r) {
      const tp::bots::KernelResult result = kernel->run(runtime, registry, config);
      results.check(result.ok, ks.name + " self-check while recording: " +
                                   result.check);
    }
    runtime.set_hooks(nullptr);
    runtime.set_telemetry(nullptr);
    instr.finalize();
    const tp::AggregateProfile profile = instr.aggregate();
    const tp::telemetry::Snapshot telemetry = telem.snapshot();
    tp::snapshot::SnapshotMeta meta;
    meta.flush_seq = 1;
    meta.process_id = inputs.snapshot_paths.size() + 1;
    const std::string path =
        ks.name + (ks.cutoff ? "_cutoff" : "") + ".tpsnap";
    tp::snapshot::write_snapshot_file(path, profile, registry, meta,
                                      &telemetry);
    inputs.snapshot_paths.push_back(path);
  }
  const tp::trace::Trace trace = recorder.take();
  inputs.trace_path = "postmortem.tptrc";
  const auto start = WallClock::now();
  tp::trace::write_trace_file(inputs.trace_path, trace);
  results.sample("trace.write_ms", seconds_since(start) * 1e3);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(inputs.trace_path, ec);
  results.check(!ec && trace.event_count() > 0, "trace file not written");
  if (!ec && trace.event_count() > 0) {
    results.set("trace.bytes_per_event",
                static_cast<double>(bytes) /
                    static_cast<double>(trace.event_count()));
  }
  inputs.digest = file_digest(inputs.trace_path, kFnvOffset);
  for (const std::string& path : inputs.snapshot_paths) {
    inputs.digest = file_digest(path, inputs.digest);
  }
  return inputs;
}

void Analysis::run(const PostmortemInputs& inputs, SpanLog* log) {
  Span root(log, "analysis");
  const auto start = WallClock::now();
  auto lap = [](WallClock::time_point& t) {
    const double ms = seconds_since(t) * 1e3;
    t = WallClock::now();
    return ms;
  };
  auto t = WallClock::now();
  std::size_t rendered = 0;

  tp::trace::Trace trace;
  {
    Span span(log, "trace.load");
    trace = tp::trace::read_trace_file(inputs.trace_path);
  }
  const double load_ms = lap(t);

  // Snapshots first: their merged registry names the trace's regions.
  std::vector<tp::snapshot::SnapshotData> loaded;
  {
    Span span(log, "snapshot.load");
    for (const std::string& path : inputs.snapshot_paths) {
      loaded.push_back(tp::snapshot::read_snapshot_file(path));
    }
  }
  const double snapshot_load_ms = lap(t);
  // The last snapshot was written with the complete registry, so fold
  // the others into it: handles then match the ones in the trace.
  tp::snapshot::SnapshotData merged = std::move(loaded.back());
  loaded.pop_back();
  {
    Span span(log, "snapshot.merge");
    for (const tp::snapshot::SnapshotData& part : loaded) {
      tp::snapshot::merge_snapshot_into(merged, part);
    }
  }
  const double merge_ms = lap(t);
  const tp::RegionRegistry& registry = *merged.registry;

  tp::trace::TraceAnalysis analysis;
  {
    Span span(log, "trace.analysis");
    analysis = tp::trace::analyze_trace(trace);
    rendered += tp::trace::render_analysis(analysis, registry).size();
    rendered += tp::trace::render_timeline(trace).size();
  }
  const double analysis_ms = lap(t);

  std::string diagnosis_json;
  {
    Span span(log, "diagnose");
    tp::diag::DiagnosisInput input;
    input.profile = &merged.profile;
    input.registry = &registry;
    input.trace = &trace;
    input.telemetry = merged.has_telemetry ? &merged.telemetry : nullptr;
    const tp::diag::DiagnosisReport report = tp::diag::run_diagnosis(input);
    std::ostringstream os;
    tp::diag::render_diagnosis_text(report, os);
    rendered += os.str().size();
    diagnosis_json = tp::diag::render_diagnosis_json(report);
  }
  const double diagnose_ms = lap(t);

  tp::whatif::WhatIfProfile whatif_profile;
  tp::whatif::Error build_error;
  {
    Span span(log, "whatif.build");
    build_error = tp::whatif::WhatIfProfile::build(trace, analysis, registry,
                                                   &whatif_profile);
  }
  const double build_ms = lap(t);
  results_.check(build_error.ok(), "whatif build: " + build_error.message);
  std::string whatif_json;
  {
    Span span(log, "whatif.rank");
    tp::whatif::Report ranked;
    ranked.summarize(whatif_profile);
    ranked.top_targets =
        whatif_profile.rank_targets(ranked.rank_fraction, kProjectionThreads);
    // The CLI's --whatif projections for the three top targets.
    tp::whatif::Report projected;
    projected.summarize(whatif_profile);
    for (std::size_t i = 0; i < ranked.top_targets.size() && i < 3; ++i) {
      std::vector<std::size_t> indices;
      if (!whatif_profile.resolve(ranked.top_targets[i].target, &indices)
               .ok()) {
        continue;
      }
      for (const double fraction : {0.25, 0.5, 0.9}) {
        projected.projections.push_back(
            whatif_profile.project(indices, fraction, kProjectionThreads));
      }
    }
    std::ostringstream os;
    tp::whatif::render_whatif_text(ranked, os);
    tp::whatif::render_whatif_text(projected, os);
    rendered += os.str().size();
    whatif_json = tp::whatif::render_whatif_json(ranked) +
                  tp::whatif::render_whatif_json(projected);
  }
  const double rank_ms = lap(t);

  {
    Span span(log, "report.postmortem_render");
    rendered += tp::render_profile(merged.profile, registry).size();
    rendered += tp::render_csv(merged.profile, registry).size();
    rendered += tp::render_cube_xml(merged.profile, registry).size();
    rendered += tp::render_report_json(merged.profile, registry).size();
  }
  const double render_ms = lap(t);
  const double total_s = seconds_since(start);

  results_.sample("analysis_s", total_s);
  results_.sample("trace.load_ms", load_ms);
  results_.sample("trace.analysis_ms", analysis_ms);
  results_.sample("snapshot.load_ms", snapshot_load_ms);
  results_.sample("snapshot.merge_ms", merge_ms);
  results_.sample("diagnose.ms", diagnose_ms);
  results_.sample("whatif.build_ms", build_ms);
  results_.sample("whatif.rank_ms", rank_ms);
  results_.sample("report.postmortem_render_ms", render_ms);

  results_.check(rendered > 0 && !diagnosis_json.empty() && !whatif_json.empty(),
                 "post-mortem outputs are empty");
  const tp::check::InvariantReport verdict =
      tp::check::check_profile(merged.profile, registry);
  results_.check(verdict.ok(),
                 "check_profile on merged snapshots: " + verdict.to_string());
  const std::uint64_t digest =
      fnv1a(whatif_json.data(), whatif_json.size(),
            fnv1a(diagnosis_json.data(), diagnosis_json.size()));
  if (!have_digest_) {
    digest_ = digest;
    have_digest_ = true;
    results_.meta("postmortem_output_digest", std::to_string(digest));
  } else {
    results_.check(digest == digest_,
                   "diagnose/whatif JSON differ between passes");
  }
}

}  // namespace perfbench
