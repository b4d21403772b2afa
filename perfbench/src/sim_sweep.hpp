// Simulator sweep stage (paper Figs. 13/14 shape): every simulated kernel
// at every virtual team size, bare and instrumented, on SimRuntime.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "probes.hpp"

namespace perfbench {

class SimSweep {
 public:
  SimSweep(const WorkloadSpec& spec, std::uint64_t seed, Results& results)
      : spec_(spec), seed_(seed), results_(results) {}

  /// One sweep.  Samples sim_s, sim.bare_s and sim.profiled_s; checks
  /// self-checks, profile invariants, and that virtual time and
  /// checksums repeat exactly from sweep to sweep.
  void run(SpanLog* log);

 private:
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  Results& results_;
  /// First sweep's (virtual ticks, checksum) per kernel/team/mode.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> reference_;
};

}  // namespace perfbench
