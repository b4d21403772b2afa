#include "ladder.hpp"

#include <atomic>
#include <filesystem>
#include <thread>
#include <utility>

#include "check/invariants.hpp"
#include "ingest/client.hpp"
#include "instrument/instrumentor.hpp"
#include "profile/calltree.hpp"
#include "report/json_report.hpp"
#include "report/text_report.hpp"
#include "rt/real_runtime.hpp"
#include "snapshot/flusher.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

namespace tp = taskprof;

namespace {

std::string step_key(int step, const char* what) {
  return "ladder.s" + std::to_string(step) + "." + what;
}

/// ns per call of the given kinds in `totals` (0 when never called).
double ns_per_call(const ProbeHooks::Totals& totals,
                   std::initializer_list<HookKind> kinds) {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  for (const HookKind kind : kinds) {
    count += totals.count[static_cast<std::size_t>(kind)];
    ns += totals.ns[static_cast<std::size_t>(kind)];
  }
  return count == 0 ? 0.0
                     : static_cast<double>(ns) / static_cast<double>(count);
}

}  // namespace

std::uint64_t total_visits(const tp::AggregateProfile& profile) {
  std::uint64_t visits = 0;
  auto add = [&visits](const tp::CallNode& node, int) { visits += node.visits; };
  tp::for_each_node(profile.implicit_root, add);
  for (const tp::CallNode* root : profile.task_roots) {
    tp::for_each_node(root, add);
  }
  return visits;
}

Ladder::Ladder(const WorkloadSpec& spec, std::uint64_t seed,
               tp::ingest::IngestDaemon& daemon, Results& results)
    : spec_(spec),
      seed_(seed),
      daemon_(daemon),
      results_(results) {
  for (const KernelSpec& k : spec_.ladder) {
    kernels_.push_back(tp::bots::make_kernel(k.name));
  }
  checksums_.assign(kernels_.size(), 0);
  have_checksum_.assign(kernels_.size(), false);
  daemon_visits_ = total_visits(daemon_.export_aggregate().profile);
}

void Ladder::pass(int step) { run(step, nullptr); }


void Ladder::traced_pass(SpanLog& log) { run(kLadderSteps, &log); }

void Ladder::check_checksum(std::size_t kernel, std::uint64_t checksum,
                            int step) {
  if (!have_checksum_[kernel]) {
    checksums_[kernel] = checksum;
    have_checksum_[kernel] = true;
    return;
  }
  results_.expect(checksums_[kernel] == checksum, [&] {
    return spec_.ladder[kernel].name + " checksum at ladder step " +
           std::to_string(step) + " differs from the first run";
  });
}

void Ladder::run(int step, SpanLog* log) {
  const bool traced = log != nullptr;
  tp::RegionRegistry registry;
  tp::rt::RealRuntime real;
  SpanRuntime span_runtime(real, log, "rt.parallel");
  tp::rt::Runtime& runtime =
      traced ? static_cast<tp::rt::Runtime&>(span_runtime) : real;

  tp::MeasureOptions measure;
  if (step >= 6) measure.snapshot_every = spec_.snapshot_interval;
  std::unique_ptr<tp::Instrumentor> instr;
  tp::trace::TraceRecorder recorder;
  tp::telemetry::Registry telem;
  tp::rt::SchedulerHooks noop;
  tp::rt::FanoutHooks fanout;
  std::unique_ptr<ProbeHooks> instr_probe;
  std::unique_ptr<ProbeHooks> recorder_probe;
  std::unique_ptr<tp::telemetry::TimedHooks> timed;
  std::unique_ptr<ProbeHooks> outer_probe;

  tp::rt::SchedulerHooks* top = nullptr;
  if (step == 2) top = &noop;
  if (step >= 3) {
    instr = std::make_unique<tp::Instrumentor>(registry, measure);
    if (traced) {
      instr_probe = std::make_unique<ProbeHooks>(instr.get(), false);
      fanout.add(instr_probe.get());
    } else {
      fanout.add(instr.get());
    }
    top = &fanout;
  }
  if (step >= 4) {
    if (traced) {
      recorder_probe = std::make_unique<ProbeHooks>(&recorder, false);
      fanout.add(recorder_probe.get());
    } else {
      fanout.add(&recorder);
    }
  }
  if (step >= 5) {
    timed = std::make_unique<tp::telemetry::TimedHooks>(&fanout, &telem);
    top = timed.get();
    runtime.set_telemetry(&telem);
  }
  if (traced) {
    outer_probe = std::make_unique<ProbeHooks>(top, true);
    top = outer_probe.get();
  }
  runtime.set_hooks(top);

  const std::string snapshot_path = "ladder.tpsnap";
  std::unique_ptr<tp::ingest::IngestFlushSink> ingest_sink;
  std::unique_ptr<TimedSink> timed_sink;
  std::unique_ptr<tp::snapshot::SnapshotFlusher> flusher;
  if (step >= 6) {
    tp::snapshot::FlusherOptions options;
    options.path = snapshot_path;
    // The traced pass drives flush_now() from its own thread instead.
    options.interval = traced ? 0 : spec_.snapshot_interval;
    options.telemetry = &telem;
    if (step >= 7) {
      tp::ingest::ClientOptions client;
      client.socket_path = daemon_.socket_path();
      client.producer_name = spec_.name;
      ingest_sink = std::make_unique<tp::ingest::IngestFlushSink>(client);
      timed_sink = std::make_unique<TimedSink>(
          ingest_sink.get(), traced ? &daemon_ : nullptr, log);
      options.sink = timed_sink.get();
      options.jitter_fraction = 0.1;  // as taskprof_cli --ingest
    }
    flusher = std::make_unique<tp::snapshot::SnapshotFlusher>(
        *instr, registry, std::move(options));
  }

  std::vector<double> capture_ms;
  std::atomic<bool> stop_pacer{false};
  std::thread pacer;
  tp::AggregateProfile profile;
  tp::trace::Trace recorded;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  int regions = 0;
  double run_s = 0.0;
  double pass_s = 0.0;
  double finalize_s = 0.0;
  double aggregate_s = 0.0;
  double render_s = 0.0;
  std::size_t rendered_bytes = 0;
  bool final_flushed = true;
  {
    Span pass_span(log, "pass");
    const auto start = WallClock::now();
    if (flusher != nullptr && !traced) flusher->start();
    if (flusher != nullptr && traced) {
      pacer = std::thread([&] {
        const auto interval = std::chrono::nanoseconds(spec_.snapshot_interval);
        while (!stop_pacer.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(interval);
          if (stop_pacer.load(std::memory_order_acquire)) break;
          const std::size_t before = timed_sink->shipments().size();
          const auto flush_start = WallClock::now();
          {
            Span span(log, "snapshot.flush");
            (void)flusher->flush_now();
          }
          double ms = seconds_since(flush_start) * 1e3;
          const auto shipped = timed_sink->shipments();
          if (shipped.size() > before) {
            ms -= shipped.back().ms + shipped.back().probe_ms;
          }
          capture_ms.push_back(ms);
        }
      });
    }
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      const KernelSpec& ks = spec_.ladder[k];
      const tp::bots::KernelConfig config = kernel_config(ks, kTeam, seed_);
      for (int r = 0; r < ks.regions; ++r) {
        tp::bots::KernelResult result;
        {
          Span span(log, "kernel.run");
          result = kernels_[k]->run(runtime, registry, config);
        }
        results_.expect(result.ok, [&] {
          return ks.name + " self-check at ladder step " +
                 std::to_string(step) + ": " + result.check;
        });
        check_checksum(k, result.checksum, step);
        tasks += result.stats.tasks_executed;
        steals += result.stats.steals;
        ++regions;
      }
    }
    run_s = seconds_since(start);
    runtime.set_hooks(nullptr);
    runtime.set_telemetry(nullptr);
    if (pacer.joinable()) {
      stop_pacer.store(true, std::memory_order_release);
      pacer.join();
    }
    if (flusher != nullptr) flusher->stop();
    if (instr != nullptr) {
      auto t = WallClock::now();
      {
        Span span(log, "measure.finalize");
        instr->finalize();
      }
      finalize_s = seconds_since(t);
      t = WallClock::now();
      {
        Span span(log, "measure.aggregate");
        profile = instr->aggregate();
      }
      aggregate_s = seconds_since(t);
      if (step >= 4) {
        Span span(log, "trace.take");
        recorded = recorder.take();
      }
      if (flusher != nullptr) {
        Span span(log, "snapshot.flush_final");
        final_flushed = flusher->flush_final();
      }
      t = WallClock::now();
      {
        Span span(log, "report.render");
        const std::string text = tp::render_profile(profile, registry);
        const std::string json = tp::render_report_json(profile, registry);
        rendered_bytes = text.size() + json.size();
      }
      render_s = seconds_since(t);
    }
    pass_s = seconds_since(start);
  }

  // --- untimed: record and verify ---------------------------------------
  if (!traced) {
    results_.sample(step_key(step, "run_s"), run_s);
    results_.sample(step_key(step, "pass_s"), pass_s);
  }
  if (step == 1) {
    results_.set("rt.tasks", static_cast<double>(tasks));
    results_.set("rt.steals", static_cast<double>(steals));
    results_.set("rt.regions", regions);
  }
  if (instr == nullptr) return;
  results_.check(rendered_bytes > 0, "rendered reports are empty");
  results_.check(final_flushed, "final snapshot flush failed at step " +
                                    std::to_string(step));
  const tp::telemetry::Snapshot telemetry_snapshot = telem.snapshot();
  const tp::check::InvariantReport verdict = tp::check::check_profile(
      profile, registry, nullptr, step >= 5 ? &telemetry_snapshot : nullptr,
      measure);
  results_.check(verdict.ok(), "check_profile at ladder step " +
                                   std::to_string(step) + ": " +
                                   verdict.to_string());
  if (step >= 4) {
    results_.check(recorded.event_count() > 0, "trace recorded no events");
  }
  if (step == 3 && !traced) {
    results_.sample("measure.finalize_ms", finalize_s * 1e3);
    results_.sample("measure.aggregate_ms", aggregate_s * 1e3);
    results_.sample("report.render_ms", render_s * 1e3);
    const tp::Instrumentor::MemoryStats memory = instr->memory_stats();
    results_.set("measure.nodes", static_cast<double>(memory.nodes));
    results_.set("measure.bytes", static_cast<double>(memory.bytes));
  }
  if (step == 6 && !traced) {
    results_.sample("snapshot.flushes",
                    static_cast<double>(flusher->flush_count()));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(snapshot_path, ec);
    results_.check(!ec, "final snapshot file missing");
    if (!ec) results_.sample("snapshot.bytes", static_cast<double>(bytes));
  }
  if (step == 7) {
    // Ingest totals are exact: the daemon gained exactly this pass's
    // visits (the final flush closed the session with Bye).
    const std::uint64_t visits =
        total_visits(daemon_.export_aggregate().profile);
    results_.check(visits - daemon_visits_ == total_visits(profile),
                   "daemon aggregate gained " +
                       std::to_string(visits - daemon_visits_) +
                       " visits, the final profile has " +
                       std::to_string(total_visits(profile)));
    daemon_visits_ = visits;
    for (const TimedSink::Shipment& s : timed_sink->shipments()) {
      if (!traced) results_.sample("ingest.ship_ms", s.ms);
    }
  }
  if (!traced) return;

  // --- traced pass: per-layer in-band costs -----------------------------
  results_.set("traced.pass_s", pass_s);
  const ProbeHooks::Totals all = outer_probe->totals();
  results_.set("rt.events", static_cast<double>(all.events()));
  for (const double us : outer_probe->entry_us()) {
    results_.sample("rt.region_entry_us", us);
  }
  const ProbeHooks::Totals m = instr_probe->totals();
  results_.set("measure.inband_ns_per_event",
               static_cast<double>(m.total_ns()) /
                   static_cast<double>(std::max<std::uint64_t>(1, m.events())));
  results_.set("measure.inband_ns.create",
               ns_per_call(m, {HookKind::kCreateBegin, HookKind::kCreateEnd}));
  results_.set("measure.inband_ns.begin", ns_per_call(m, {HookKind::kTaskBegin}));
  results_.set("measure.inband_ns.end", ns_per_call(m, {HookKind::kTaskEnd}));
  results_.set("measure.inband_ns.switch", ns_per_call(m, {HookKind::kSwitch}));
  results_.set("measure.inband_ns.taskwait",
               ns_per_call(m, {HookKind::kTaskwaitBegin,
                               HookKind::kTaskwaitEnd}));
  results_.set("measure.inband_ns.barrier",
               ns_per_call(m, {HookKind::kBarrierBegin,
                               HookKind::kBarrierEnd}));
  std::uint64_t region_ns = 0;
  for (const HookKind kind :
       {HookKind::kParallelBegin, HookKind::kParallelEnd,
        HookKind::kImplicitBegin, HookKind::kImplicitEnd,
        HookKind::kBarrierBegin, HookKind::kBarrierEnd}) {
    region_ns += m.ns[static_cast<std::size_t>(kind)];
  }
  results_.set("measure.region_us", static_cast<double>(region_ns) / 1e3 /
                                        std::max(1, regions));
  const ProbeHooks::Totals rec = recorder_probe->totals();
  results_.set("trace.inband_ns_per_event",
               static_cast<double>(rec.total_ns()) /
                   static_cast<double>(std::max<std::uint64_t>(1, rec.events())));
  results_.set("telemetry.inband_ns_per_event",
               telemetry_snapshot.hook_mean_ticks());
  for (const double ms : capture_ms) results_.sample("snapshot.capture_ms", ms);
  const auto shipments = timed_sink->shipments();
  for (std::size_t i = 1; i < shipments.size(); ++i) {
    // Shipment 0 opens the session with a full rebase; later ones are
    // deltas against the acked baseline.
    if (shipments[i].rebase_bytes <= 0.0) continue;
    results_.sample("ingest.delta_bytes", shipments[i].wire_bytes);
    results_.sample("ingest.delta_to_rebase",
                    shipments[i].wire_bytes / shipments[i].rebase_bytes);
  }
}

}  // namespace perfbench
