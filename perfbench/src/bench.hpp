// Shared types of the overhead-ladder benchmark program.
//
// The program measures; perfbench/run.py reduces.  Every stage appends raw
// samples (one value per pass or per call) and scalar counts to a Results
// object, and counts each correctness check as one attempted operation.
// main.cpp prints the Results as one JSON document; run.py turns it into
// the medians, tails and ladder differences BENCHMARK.json names.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "common/types.hpp"

namespace perfbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

class SpanLog;

/// Raw measurements and correctness verdicts of one benchmark run.
class Results {
 public:
  void sample(const std::string& name, double value) {
    if (recording_) samples_[name].push_back(value);
  }
  void set(const std::string& name, double value) { values_[name] = value; }
  void meta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// One correctness operation: attempted always, failed unless `ok`.
  void check(bool ok, const std::string& what) {
    expect(ok, [&what] { return what; });
  }
  /// As check(), building the message only on failure (hot loops).
  template <typename Message>
  void expect(bool ok, Message&& message) {
    ++attempted_;
    if (!ok) fail(message());
  }

  /// While off, sample() drops its value (untimed warm-up and memory
  /// passes); checks still count.
  void set_recording(bool on) noexcept { recording_ = on; }

  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::string to_json() const;

 private:
  void fail(const std::string& what);

  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> meta_;
  bool recording_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few failure messages
};

/// One kernel invocation pattern: `regions` consecutive runs (one
/// parallel region each) of `name` at `size`.
struct KernelSpec {
  std::string name;
  taskprof::bots::SizeClass size = taskprof::bots::SizeClass::kTest;
  bool cutoff = false;
  int regions = 1;
};

/// Real-engine team size.  With the flusher thread and the daemon's I/O
/// and merge threads it stays within a 4-core host.
inline constexpr int kTeam = 2;
/// Virtual workers when recording the post-mortem inputs.
inline constexpr int kRecordWorkers = 4;

/// Everything a workload runs.  Each workload runs all three stages so
/// every run reports every end-to-end metric; the stage a workload is
/// about gets the large inputs, and the simulator stage a small fixed
/// load in both.
struct WorkloadSpec {
  std::string name;
  taskprof::Ticks snapshot_interval = 0; ///< ns between ladder flushes
  std::vector<KernelSpec> ladder;        ///< real engine, one pass
  std::vector<KernelSpec> recorded;      ///< post-mortem inputs (sim)
  std::vector<KernelSpec> simulated;     ///< simulator sweep kernels
  std::vector<int> sim_workers;          ///< virtual team sizes swept
  /// Passes of the analysis and simulator stages per round: the small
  /// stages repeat so their medians rest on as many samples as the
  /// ladder's.
  int analysis_repeats = 1;
  int sim_repeats = 1;
};

/// KernelConfig for `spec` with the run's seed: the seed reaches the
/// program only through here (the kernels' generated inputs).
[[nodiscard]] taskprof::bots::KernelConfig kernel_config(
    const KernelSpec& spec, int threads, std::uint64_t seed);

}  // namespace perfbench
