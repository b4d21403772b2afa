#include "sim_sweep.hpp"

#include <memory>

#include "check/invariants.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"

namespace perfbench {

namespace tp = taskprof;

void SimSweep::run(SpanLog* log) {
  Span root(log, "sim");
  const std::uint64_t resumes_before = fiber_resumes();
  double bare_s = 0.0;
  double profiled_s = 0.0;
  std::uint64_t virtual_ticks = 0;
  std::uint64_t tasks = 0;
  std::uint64_t tasks_profiled = 0;
  for (const int workers : spec_.sim_workers) {
    for (const bool instrumented : {false, true}) {
      for (const KernelSpec& ks : spec_.simulated) {
        auto kernel = tp::bots::make_kernel(ks.name);
        tp::RegionRegistry registry;
        tp::rt::SimRuntime sim;
        SpanRuntime runtime(sim, log, "sim.parallel");
        std::unique_ptr<tp::Instrumentor> instr;
        if (instrumented) {
          instr = std::make_unique<tp::Instrumentor>(registry);
          runtime.set_hooks(instr.get());
        }
        const tp::bots::KernelConfig config =
            kernel_config(ks, workers, seed_);
        const auto start = WallClock::now();
        const tp::bots::KernelResult result =
            kernel->run(runtime, registry, config);
        tp::AggregateProfile profile;
        if (instr != nullptr) {
          runtime.set_hooks(nullptr);
          instr->finalize();
          profile = instr->aggregate();
        }
        const double elapsed = seconds_since(start);
        (instrumented ? profiled_s : bare_s) += elapsed;

        const std::string key = ks.name + (ks.cutoff ? "_cutoff" : "") +
                                "/" + std::to_string(workers) +
                                (instrumented ? "/profiled" : "/bare");
        results_.check(result.ok, key + " self-check: " + result.check);
        const auto observed = std::make_pair(
            static_cast<std::uint64_t>(result.stats.parallel_ticks),
            result.checksum);
        const auto [it, first] = reference_.emplace(key, observed);
        if (!first) {
          results_.check(it->second == observed,
                         key + " virtual time or checksum changed between "
                               "sweeps");
        }
        if (instr != nullptr) {
          const tp::check::InvariantReport verdict =
              tp::check::check_profile(profile, registry, &result.stats);
          results_.check(verdict.ok(),
                         key + " check_profile: " + verdict.to_string());
          tasks_profiled += result.stats.tasks_executed;
        } else {
          tasks += result.stats.tasks_executed;
        }
        virtual_ticks += static_cast<std::uint64_t>(result.stats.parallel_ticks);
      }
    }
  }
  results_.sample("sim_s", bare_s + profiled_s);
  results_.sample("sim.bare_s", bare_s);
  results_.sample("sim.profiled_s", profiled_s);
  results_.set("sim.tasks", static_cast<double>(tasks));
  results_.set("sim.tasks_profiled", static_cast<double>(tasks_profiled));
  results_.set("sim.virtual_ticks", static_cast<double>(virtual_ticks));
  results_.set("fiber.switches",
               static_cast<double>(fiber_resumes() - resumes_before));
}

}  // namespace perfbench
