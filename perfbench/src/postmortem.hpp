// Post-mortem analysis stage: inputs recorded on the simulator (the
// virtual clock makes them byte-identical per seed), then analysed from
// disk the way `taskprof_cli --analyze-trace`, `diagnose` and `whatif`
// do it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probes.hpp"

namespace perfbench {

struct PostmortemInputs {
  std::string trace_path;
  std::vector<std::string> snapshot_paths;  ///< one .tpsnap per kernel
  std::uint64_t digest = 0;                 ///< FNV-1a over every file
};

/// Run spec.recorded on a SimRuntime with one Instrumentor per kernel
/// and one TraceRecorder across all of them; write one .tpsnap per
/// kernel and the trace file into the current directory.  Samples
/// trace.write_ms.
[[nodiscard]] PostmortemInputs record_postmortem(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 Results& results);

class Analysis {
 public:
  explicit Analysis(Results& results) : results_(results) {}

  /// One timed pass from the files on disk to every output rendered.
  /// Samples analysis_s and the per-layer parts; checks that the
  /// diagnose and whatif JSON are byte-identical across passes.
  void run(const PostmortemInputs& inputs, SpanLog* log);

 private:
  Results& results_;
  bool have_digest_ = false;
  std::uint64_t digest_ = 0;
};

}  // namespace perfbench
