// The real-thread overhead ladder.  Each step adds one layer on top of
// the previous one, with the same kernels, team size and seed (files go
// to the current directory):
//   1 bare rt::RealRuntime            5 + telemetry::Registry (TimedHooks)
//   2 no-op rt::SchedulerHooks        6 + SnapshotFlusher
//   3 Instrumentor (Fig. 12)          7 + IngestFlushSink -> IngestDaemon
//   4 + TraceRecorder via FanoutHooks
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bots/kernel.hpp"
#include "ingest/daemon.hpp"
#include "probes.hpp"

namespace perfbench {

inline constexpr int kLadderSteps = 7;

class Ladder {
 public:
  /// `socket` names the daemon's socket; `daemon` is the in-process
  /// daemon behind it (for the exact-totals check).  Both must outlive
  /// the ladder.
  Ladder(const WorkloadSpec& spec, std::uint64_t seed,
         taskprof::ingest::IngestDaemon& daemon, Results& results);

  /// One pass over the workload's kernels at `step` (1..7).  Appends the
  /// samples ladder.s<step>.run_s (kernels only) and .pass_s (through
  /// finalize, aggregate, flushes and the rendered reports).
  void pass(int step);

  /// The traced pass: step 7 with every listener wrapped in a timing
  /// probe, spans around each layer call, and the periodic flushes
  /// driven (and timed) from a benchmark thread.
  void traced_pass(SpanLog& log);

 private:
  void run(int step, SpanLog* log);
  void check_checksum(std::size_t kernel, std::uint64_t checksum, int step);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  taskprof::ingest::IngestDaemon& daemon_;
  Results& results_;
  std::vector<std::unique_ptr<taskprof::bots::Kernel>> kernels_;
  std::vector<std::uint64_t> checksums_;  ///< first value seen per kernel
  std::vector<bool> have_checksum_;
  std::uint64_t daemon_visits_ = 0;  ///< daemon aggregate visits so far
};

/// Σ visits over every node of a profile (main tree + task trees).
[[nodiscard]] std::uint64_t total_visits(
    const taskprof::AggregateProfile& profile);

}  // namespace perfbench
