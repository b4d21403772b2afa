// Trace analyses: the paper's §VII future work, implemented.
//
// From a recorded event trace these analyses derive what the profile
// alone cannot:
//
//  * management-vs-waiting decomposition of synchronization time — the
//    paper: "it is not yet possible to distinguish if this time is
//    required for management, or if it is waiting time on the completion
//    of some tasks"; here, gaps between executed task fragments inside a
//    scheduling point are classified by length (short gap = task
//    management / switching, long gap = starvation), giving "the ratio of
//    overall management time to exclusive execution time for tasks";
//  * per-instance queue latency (creation -> begin) and fragmentation;
//  * per-thread utilization;
//  * the longest task dependency chain, which the paper proposes as "a
//    good estimate for the number of concurrent tasks" (§V-B) — the
//    estimate can be checked against the profiler's measured maximum;
//    and
//  * the time-domain facts behind two of Tuft et al.'s patterns, which
//    diagnose's creation_storm and taskwait_serialization detectors
//    threshold: the backlog of created-but-unstarted tasks, and the
//    stretches where a taskwait holds the team at one task in flight.
//
// analyze_trace is the one replay of the merged event stream: a single
// pass feeds the task forest, the lifetimes, the sync decomposition and
// both blocks of pattern facts.  It accepts any trace that loads:
// events on unknown threads are skipped, and a task end closes whatever
// task its thread is running, whichever id it names.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "profile/metrics.hpp"
#include "profile/region.hpp"
#include "trace/forest.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

/// Reconstructed lifetime of one explicit task instance.
struct TaskLifetime {
  TaskInstanceId id = 0;
  RegionHandle region = kInvalidRegion;
  std::int64_t parameter = kNoParameter;
  Ticks created = 0;  ///< create_end timestamp
  Ticks begin = 0;    ///< first fragment start
  Ticks end = 0;      ///< completion
  Ticks active = 0;   ///< sum of executed-fragment durations
  /// Declared ctx.work() ticks executed by this task (kWork events;
  /// 0 for traces from engines that do not emit them).
  Ticks work = 0;
  ThreadId first_thread = 0;
  int fragments = 0;
  int migrations = 0;
  bool started = false;
  bool completed = false;
};

struct ThreadUsage {
  Ticks span = 0;            ///< implicit-task begin .. end
  Ticks busy = 0;            ///< time executing explicit-task fragments
  Ticks management = 0;      ///< this thread's short scheduling-point gaps
  Ticks waiting = 0;         ///< this thread's long scheduling-point gaps
  std::uint64_t fragments = 0;
  [[nodiscard]] double utilization() const noexcept {
    return span == 0 ? 0.0
                     : static_cast<double>(busy) / static_cast<double>(span);
  }
  /// Fraction of the thread's span spent starved at scheduling points.
  [[nodiscard]] double waiting_fraction() const noexcept {
    return span == 0 ? 0.0
                     : static_cast<double>(waiting) /
                           static_cast<double>(span);
  }
};

struct AnalysisOptions {
  /// Gaps at scheduling points up to this length count as management
  /// (dequeue/switch work); longer gaps count as waiting for work.
  Ticks management_gap_threshold = 3 * kTicksPerUs;
};

/// The ready backlog (tasks created but not yet begun) over the merged
/// stream.
struct CreationBacklog {
  std::uint64_t creations = 0;  ///< create_end events
  std::uint64_t peak = 0;       ///< largest backlog, first reached at:
  Ticks peak_time = 0;
  ThreadId peak_thread = 0;
  Ticks first_create = 0;  ///< meaningful when creations > 0
  Ticks last_begin = 0;
  /// Creations per construct made while the backlog stood at or above
  /// max(16, 4 x thread count): the storm's source rather than an
  /// innocent bystander.
  std::map<RegionHandle, std::uint64_t> elevated_creations;
};

/// Serialized stretches: some thread sits in a taskwait while at most
/// one thread executes a task.
struct TaskwaitSerialization {
  std::uint64_t taskwaits = 0;  ///< taskwait_begin events
  Ticks time = 0;               ///< total serialized time
  /// Start of the longest serialized stretch that ended in the trace.
  Ticks longest_start = 0;
  /// Serialized time per construct of the one task still executing
  /// (stretches with no task executing are charged to none).
  std::map<RegionHandle, Ticks> by_construct;
};

struct TraceAnalysis {
  std::vector<TaskLifetime> tasks;  ///< completed instances, by begin time
  std::vector<ThreadUsage> threads;

  Ticks total_active = 0;            ///< sum of task fragment time
  DurationStats queue_latency;       ///< per instance: begin - created
  DurationStats instance_fragments;  ///< fragments per instance

  // Synchronization decomposition (§VII).
  Ticks sync_total = 0;       ///< non-executing time inside taskwait/barrier
  Ticks sync_management = 0;  ///< short gaps: switch/dequeue management
  Ticks sync_waiting = 0;     ///< long gaps: no work available
  /// (management at sync points) / (task execution time).
  [[nodiscard]] double management_to_execution_ratio() const noexcept {
    return total_active == 0 ? 0.0
                             : static_cast<double>(sync_management) /
                                   static_cast<double>(total_active);
  }

  /// The task structure the chain below (and diagnose, whatif) query.
  TaskForest forest;
  // Longest dependency chain (creation tree), by active time, summed
  // over parallel regions (TaskForest::creation_chain).
  Ticks critical_chain_time = 0;
  int critical_chain_length = 0;  ///< instances on the chain

  // Pattern facts (diagnose thresholds them).
  Ticks time_span = 0;  ///< last event time - first event time
  CreationBacklog backlog;
  TaskwaitSerialization serialization;
};

/// Run all analyses over a trace.
[[nodiscard]] TraceAnalysis analyze_trace(const Trace& trace,
                                          const AnalysisOptions& options = {});

/// Human-readable report: per-construct table + decomposition + threads.
[[nodiscard]] std::string render_analysis(const TraceAnalysis& analysis,
                                          const RegionRegistry& registry);

/// Compact textual timeline (one line per thread, one glyph per time
/// bucket: '#' executing tasks, '.' idle/waiting, 'm' mixed).  Debugging
/// and teaching aid, paper Vampir-style visualization in miniature.
[[nodiscard]] std::string render_timeline(const Trace& trace,
                                          std::size_t buckets = 80);

}  // namespace taskprof::trace
