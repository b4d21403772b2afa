#include "diagnose/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/format.hpp"

namespace taskprof::diag {

namespace {

/// Mean exclusive (body) time per instance of a construct.
double exec_mean(const TaskConstructStats& c) {
  return c.instances == 0 ? 0.0
                          : static_cast<double>(c.exclusive_total) /
                                static_cast<double>(c.instances);
}

void add_metric(Diagnosis* d, const char* name, double value,
                const char* unit) {
  d->metrics.push_back(Metric{name, value, unit});
}

/// Unsigned percent ("54.7%") — format_percent is for signed deltas.
std::string percent(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", ratio * 100.0);
  return buf;
}

/// The construct contributing the most critical-path time (the
/// what-to-optimize site when a diagnosis has no sharper anchor).
CallSite dominant_span_site(const DetectorContext& ctx) {
  if (ctx.workspan != nullptr && !ctx.workspan->shares.empty()) {
    return resolve_site(*ctx.input.registry, ctx.workspan->shares[0].region);
  }
  CallSite site;
  site.name = "(unknown)";
  return site;
}

}  // namespace

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kProblem: return "problem";
  }
  return "?";
}

std::string CallSite::label() const {
  if (file.empty()) return name;
  return name + " (" + file + ":" + std::to_string(line) + ")";
}

CallSite resolve_site(const RegionRegistry& registry, RegionHandle region) {
  CallSite site;
  site.region = region;
  site.name = registry.display_name(region);
  if (region != kInvalidRegion && region < registry.size()) {
    const RegionInfo& info = registry.info(region);
    site.file = info.file;
    site.line = info.line;
  }
  return site;
}

// ---------------------------------------------------------------------------
// creation_storm: tasks created much faster than they start executing,
// piling up an unbounded backlog (Tuft et al.'s "creation storm").  Needs
// the time dimension: it reads the backlog that analyze_trace replays.
// ---------------------------------------------------------------------------
void detect_creation_storm(const DetectorContext& ctx,
                           std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr) return;
  const DiagnoseOptions& opt = ctx.options;
  const trace::CreationBacklog& backlog = ctx.trace_analysis->backlog;
  if (backlog.creations < opt.storm_min_creations) return;

  const std::uint64_t threshold = std::max(
      opt.storm_backlog_floor,
      opt.storm_backlog_per_thread * static_cast<std::uint64_t>(ctx.threads));
  if (backlog.peak < threshold / 2) return;

  Diagnosis d;
  d.detector = "creation_storm";
  d.severity =
      backlog.peak >= threshold ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(backlog.peak);
  d.at = backlog.peak_time;
  d.thread = backlog.peak_thread;

  RegionHandle worst = kInvalidRegion;
  std::uint64_t worst_count = 0;
  for (const auto& [region, count] : backlog.elevated_creations) {
    if (count > worst_count) {
      worst = region;
      worst_count = count;
    }
  }
  if (worst != kInvalidRegion) {
    d.sites.push_back(resolve_site(*ctx.input.registry, worst));
  }

  std::ostringstream os;
  os << "creation storm: backlog of ready tasks peaked at "
     << format_count(backlog.peak) << " (" << format_count(backlog.creations)
     << " created) - tasks are created far faster than they start";
  d.summary = os.str();
  d.remediation =
      "throttle task creation (e.g. a depth/if cut-off or taskloop "
      "grainsize) or let the creating thread execute work itself";
  add_metric(&d, "peak_backlog", static_cast<double>(backlog.peak), "tasks");
  add_metric(&d, "creations", static_cast<double>(backlog.creations),
             "tasks");
  add_metric(&d, "backlog_threshold", static_cast<double>(threshold),
             "tasks");
  if (backlog.last_begin > backlog.first_create) {
    const double window_s =
        static_cast<double>(backlog.last_begin - backlog.first_create) /
        static_cast<double>(kTicksPerSec);
    add_metric(&d, "creation_rate",
               static_cast<double>(backlog.creations) / window_s, "tasks/s");
  }
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// serialized_spawn_chain: a deep path of single-child spawns — the task
// graph degenerates into a linked list, so added workers idle.
// ---------------------------------------------------------------------------
void detect_serialized_spawn_chain(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr || ctx.workspan == nullptr) return;
  if (ctx.threads < 2) return;
  const DiagnoseOptions& opt = ctx.options;
  const trace::TraceAnalysis& analysis = *ctx.trace_analysis;

  const trace::TaskForest& forest = analysis.forest;
  const std::vector<trace::TaskForest::Node>& nodes = forest.nodes();
  constexpr std::uint32_t kNoNode = trace::TaskForest::kNoNode;
  const auto node_count = static_cast<std::uint32_t>(nodes.size());

  // Completed children per completed task; `only` is the single child
  // when there is exactly one.
  std::vector<std::uint32_t> kids(node_count, 0);
  std::vector<std::uint32_t> only(node_count, kNoNode);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    const std::uint32_t parent =
        nodes[n].completed ? forest.completed_parent(n) : kNoNode;
    if (parent == kNoNode) continue;
    kids[parent] += 1;
    only[parent] = n;
  }
  // Length and active time of the single-spawn run from each task
  // (children have larger indices, so one reverse sweep suffices); the
  // longest run from a chain start — a task that is not the single
  // child of a single-spawning parent — wins, then the smaller id.
  std::vector<int> run(node_count, 0);
  std::vector<Ticks> run_active(node_count, 0);
  std::uint32_t best = kNoNode;
  for (std::uint32_t n = node_count; n-- > 0;) {
    if (!nodes[n].completed) continue;
    const bool links_on = kids[n] == 1;
    run[n] = 1 + (links_on ? run[only[n]] : 0);
    run_active[n] = nodes[n].active + (links_on ? run_active[only[n]] : 0);
    const std::uint32_t parent = forest.completed_parent(n);
    if (parent != kNoNode && kids[parent] == 1) continue;  // interior link
    if (best == kNoNode || run[n] > run[best] ||
        (run[n] == run[best] && nodes[n].id < nodes[best].id)) {
      best = n;
    }
  }
  if (best == kNoNode) return;
  const int best_len = run[best];
  const Ticks best_active = run_active[best];

  if (best_len < opt.chain_min_depth) return;
  const Ticks work = ctx.workspan->work;
  if (work <= 0 ||
      static_cast<double>(best_active) <
          opt.chain_work_fraction * static_cast<double>(work)) {
    return;
  }

  const double parallelism = ctx.workspan->logical_parallelism();

  Diagnosis d;
  d.detector = "serialized_spawn_chain";
  d.severity = parallelism < 2.0 ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(best_len);
  // Timeline anchor: the chain start's first fragment.
  for (const trace::TaskLifetime& life : analysis.tasks) {
    if (life.id == nodes[best].id) {
      d.at = life.begin;
      d.thread = life.first_thread;
      break;
    }
  }
  d.sites.push_back(resolve_site(*ctx.input.registry, nodes[best].construct));

  std::ostringstream os;
  os << "serialized spawn chain: " << best_len
     << " tasks deep, each spawning a single successor - "
     << percent(static_cast<double>(best_active) / static_cast<double>(work))
     << " of all task work is on this chain";
  d.summary = os.str();
  d.remediation =
      "spawn independent subtasks from one parent (fan-out) instead of "
      "chaining one child per task, or convert the chain into a loop";
  add_metric(&d, "chain_length", static_cast<double>(best_len), "tasks");
  add_metric(&d, "chain_active", static_cast<double>(best_active), "ns");
  add_metric(&d, "work", static_cast<double>(work), "ns");
  add_metric(&d, "logical_parallelism", parallelism, "x");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// starved_workers: threads parked at scheduling points for most of the
// region because the task structure never produced enough parallelism.
// ---------------------------------------------------------------------------
void detect_starved_workers(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr || ctx.workspan == nullptr) return;
  if (ctx.threads < 2) return;
  const DiagnoseOptions& opt = ctx.options;
  const trace::TraceAnalysis& analysis = *ctx.trace_analysis;
  if (analysis.tasks.size() < 2) return;

  int starved = 0;
  double worst_fraction = 0.0;
  ThreadId worst_thread = 0;
  Ticks total_waiting = 0;
  Ticks total_span = 0;
  for (std::size_t t = 0; t < analysis.threads.size(); ++t) {
    const trace::ThreadUsage& usage = analysis.threads[t];
    total_waiting += usage.waiting;
    total_span += usage.span;
    const double fraction = usage.waiting_fraction();
    if (fraction >= opt.starved_waiting_fraction) {
      ++starved;
      if (fraction > worst_fraction) {
        worst_fraction = fraction;
        worst_thread = static_cast<ThreadId>(t);
      }
    }
  }
  if (starved == 0) return;

  // Starvation is only a finding when parallelism actually fell short of
  // the team — a busy region with one idle tail thread is load imbalance,
  // not starvation.
  const double parallelism = ctx.workspan->logical_parallelism();
  if (parallelism >=
      opt.starved_parallelism_fraction * static_cast<double>(ctx.threads)) {
    return;
  }

  const bool majority = starved * 2 >= ctx.threads;
  const bool heavy =
      total_span > 0 && static_cast<double>(total_waiting) >=
                            0.25 * static_cast<double>(total_span);

  Diagnosis d;
  d.detector = "starved_workers";
  d.severity =
      majority && heavy ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(starved) * 100.0 + worst_fraction;
  d.thread = worst_thread;
  d.sites.push_back(dominant_span_site(ctx));

  char parallelism_buf[32];
  std::snprintf(parallelism_buf, sizeof parallelism_buf, "%.2f", parallelism);
  std::ostringstream os;
  os << "starved workers: " << starved << " of " << ctx.threads
     << " threads wait at scheduling points for most of the region (worst "
     << percent(worst_fraction)
     << " of span) - logical parallelism is only " << parallelism_buf << "x";
  d.summary = os.str();
  d.remediation =
      "expose more parallelism (split the dominant tasks, raise the "
      "cut-off) or run with fewer threads";
  add_metric(&d, "starved_workers", static_cast<double>(starved), "threads");
  add_metric(&d, "threads", static_cast<double>(ctx.threads), "threads");
  add_metric(&d, "worst_waiting_fraction", worst_fraction, "ratio");
  add_metric(&d, "logical_parallelism", parallelism, "x");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// barrier_idle: the paper's §VI barrier check on the profile alone —
// threads sit in barriers without executing tasks for a large share of
// the parallel region.  With a trace, starved_workers measures the same
// idleness per thread and against the logical parallelism, so this
// detector stands down.
// ---------------------------------------------------------------------------
void detect_barrier_idle(const DetectorContext& ctx,
                         std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis != nullptr) return;
  const SchedulingPointSummary& sched = ctx.scheduling;
  if (sched.parallel_inclusive <= 0) return;  // no profile, or no region
  const double fraction = static_cast<double>(sched.barrier_exclusive) /
                          static_cast<double>(sched.parallel_inclusive);
  if (fraction <= ctx.options.barrier_idle_fraction) return;

  Diagnosis d;
  d.detector = "barrier_idle";
  d.severity = Severity::kWarning;
  d.score = fraction;
  d.summary = "barrier idle: threads spend " + percent(fraction) +
              " of the parallel region in barriers without executing "
              "tasks - task management overhead or load imbalance";
  d.remediation =
      "expose more, evenly sized tasks before the barrier (split the "
      "largest tasks, adjust the cut-off) or run with fewer threads; "
      "record a trace to see which threads starve";
  add_metric(&d, "barrier_idle_fraction", fraction, "ratio");
  add_metric(&d, "barrier_exclusive",
             static_cast<double>(sched.barrier_exclusive), "ns");
  add_metric(&d, "parallel_inclusive",
             static_cast<double>(sched.parallel_inclusive), "ns");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// granularity_collapse: the paper's §VI diagnosis, generalized per
// parameter/depth — creation cost overtakes body work, catastrophically
// so in the recursion tail.
// ---------------------------------------------------------------------------
void detect_granularity_collapse(const DetectorContext& ctx,
                                 std::vector<Diagnosis>* out) {
  if (ctx.input.profile == nullptr) return;
  const DiagnoseOptions& opt = ctx.options;
  for (const TaskConstructStats& c : ctx.constructs) {
    if (c.instances == 0 || c.creations == 0) continue;
    const double body = exec_mean(c);
    const double ratio = body > 0 ? c.create_mean / body : 0.0;
    const bool too_small =
        c.inclusive_mean < static_cast<double>(opt.small_task_threshold);
    const bool create_dominates = c.create_mean >= body && body > 0;
    const bool collapsed = ratio >= opt.collapse_problem_ratio &&
                           body < static_cast<double>(opt.collapse_floor);

    // Per-depth refinement: find where the recursion tail collapses even
    // when the aggregate is merely small (paper Table IV's argument).
    std::int64_t collapse_from = kNoParameter;
    std::uint64_t collapsed_instances = 0;
    if (too_small || collapsed) {
      for (const TaskConstructStats& row : parameter_breakdown(
               *ctx.input.profile, *ctx.input.registry, c.region)) {
        if (row.instances == 0) continue;
        const double row_body = exec_mean(row);
        if (row_body < static_cast<double>(opt.collapse_floor) &&
            c.create_mean >= opt.collapse_problem_ratio * row_body) {
          if (collapse_from == kNoParameter) collapse_from = row.parameter;
          collapsed_instances += row.instances;
        }
      }
    }

    const bool problem = collapsed;
    const bool warning = !problem && too_small && create_dominates;
    if (!problem && !warning) continue;

    Diagnosis d;
    d.detector = "granularity_collapse";
    d.severity = problem ? Severity::kProblem : Severity::kWarning;
    d.score = ratio;
    d.sites.push_back(resolve_site(*ctx.input.registry, c.region));

    char ratio_buf[32];
    std::snprintf(ratio_buf, sizeof ratio_buf, "%.1f", ratio);
    std::ostringstream os;
    os << "granularity collapse: task '" << c.name << "' averages "
       << format_ticks(static_cast<Ticks>(body))
       << " of body work against "
       << format_ticks(static_cast<Ticks>(c.create_mean))
       << " creation cost (" << ratio_buf << "x)";
    if (collapse_from != kNoParameter) {
      os << "; collapsed from parameter " << collapse_from << " on ("
         << format_count(collapsed_instances) << " instances)";
    }
    d.summary = os.str();
    d.remediation =
        "stop spawning below the collapse depth (creation cut-off / "
        "final clause) so the tail runs inline";
    add_metric(&d, "create_mean", c.create_mean, "ns");
    add_metric(&d, "body_mean", body, "ns");
    add_metric(&d, "create_to_body_ratio", ratio, "ratio");
    add_metric(&d, "instances", static_cast<double>(c.instances), "tasks");
    if (collapse_from != kNoParameter) {
      add_metric(&d, "collapse_from_parameter",
                 static_cast<double>(collapse_from), "");
      add_metric(&d, "collapsed_instances",
                 static_cast<double>(collapsed_instances), "tasks");
    }
    out->push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// taskwait_serialization: spawn-wait-spawn-wait lockstep — a taskwait
// after every spawn caps concurrency at one task in flight.  Reads the
// serialized stretches that analyze_trace replays.
// ---------------------------------------------------------------------------
void detect_taskwait_serialization(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr) return;
  if (ctx.threads < 2) return;
  const DiagnoseOptions& opt = ctx.options;
  const trace::TaskwaitSerialization& serial =
      ctx.trace_analysis->serialization;
  if (serial.taskwaits < opt.serial_min_taskwaits) return;
  const Ticks span = ctx.trace_analysis->time_span;
  if (span <= 0) return;
  const double fraction =
      static_cast<double>(serial.time) / static_cast<double>(span);
  if (fraction < opt.serial_fraction_warn) return;

  Diagnosis d;
  d.detector = "taskwait_serialization";
  d.severity = fraction >= opt.serial_fraction_problem ? Severity::kProblem
                                                       : Severity::kWarning;
  d.score = fraction;
  d.at = serial.longest_start;
  d.thread = 0;

  RegionHandle worst = kInvalidRegion;
  Ticks worst_time = 0;
  for (const auto& [region, time] : serial.by_construct) {
    if (time > worst_time) {
      worst = region;
      worst_time = time;
    }
  }
  if (worst != kInvalidRegion) {
    d.sites.push_back(resolve_site(*ctx.input.registry, worst));
  }

  d.summary = "taskwait serialization: " + percent(fraction) +
              " of the region runs with at most one task in flight while "
              "a thread blocks in taskwait (" +
              format_count(serial.taskwaits) + " taskwaits)";
  d.remediation =
      "batch spawns before waiting: move the taskwait out of the "
      "per-task loop so siblings overlap";
  add_metric(&d, "serial_fraction", fraction, "ratio");
  add_metric(&d, "serial_time", static_cast<double>(serial.time), "ns");
  add_metric(&d, "taskwaits", static_cast<double>(serial.taskwaits),
             "count");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// replay_fallback: the taskgraph replay scheduler gave up — surface the
// per-reason divergence counters so fallbacks are tell-apart-able.
// ---------------------------------------------------------------------------
void detect_replay_fallback(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out) {
  if (ctx.input.telemetry == nullptr) return;
  const telemetry::Snapshot& snap = *ctx.input.telemetry;
  using telemetry::Counter;
  const std::uint64_t fallbacks = snap.counter(Counter::kTaskgraphFallbacks);
  const std::uint64_t divergences =
      snap.counter(Counter::kTaskgraphDivergences);
  if (fallbacks == 0 && divergences == 0) return;

  const std::uint64_t structure =
      snap.counter(Counter::kTaskgraphDivergeStructure);
  const std::uint64_t short_spawn =
      snap.counter(Counter::kTaskgraphDivergeShortSpawn);
  const std::uint64_t residue =
      snap.counter(Counter::kTaskgraphDivergeResidue);

  Diagnosis d;
  d.detector = "replay_fallback";
  d.severity = Severity::kInfo;
  d.score = static_cast<double>(fallbacks + divergences);

  std::ostringstream os;
  os << "taskgraph replay fell back to dynamic scheduling ("
     << format_count(divergences) << " divergences, "
     << format_count(fallbacks) << " fallback regions; reasons: "
     << format_count(structure) << " structure mismatch, "
     << format_count(short_spawn) << " short spawn, "
     << format_count(residue) << " unspawned residue)";
  d.summary = os.str();
  d.remediation =
      "the workload's task shape varies between regions; use the dynamic "
      "scheduler, or reset_taskgraph() to re-record after shape changes";
  add_metric(&d, "fallback_regions", static_cast<double>(fallbacks),
             "regions");
  add_metric(&d, "divergences", static_cast<double>(divergences), "count");
  add_metric(&d, "diverge_structure", static_cast<double>(structure),
             "count");
  add_metric(&d, "diverge_short_spawn", static_cast<double>(short_spawn),
             "count");
  add_metric(&d, "diverge_residue", static_cast<double>(residue), "count");
  out->push_back(std::move(d));
}

const std::vector<Detector>& detector_registry() {
  static const std::vector<Detector> kRegistry = {
      {"creation_storm", detect_creation_storm},
      {"serialized_spawn_chain", detect_serialized_spawn_chain},
      {"starved_workers", detect_starved_workers},
      {"barrier_idle", detect_barrier_idle},
      {"granularity_collapse", detect_granularity_collapse},
      {"taskwait_serialization", detect_taskwait_serialization},
      {"replay_fallback", detect_replay_fallback},
  };
  return kRegistry;
}

}  // namespace taskprof::diag
