// taskprof_ladder_bench: measures one workload of the overhead-ladder
// benchmark and prints its raw samples, counts and check verdicts as one
// JSON document on stdout.  perfbench/run.py builds this program, runs
// it, and reduces the document to the metrics BENCHMARK.json names.
//
//   taskprof_ladder_bench --workload fine_tasks --seed 1 --seconds 10
//       --trace 0 [--full-ladder 0] [--check-ladder 0] --workdir DIR
//
// --trace 1 adds the traced pass; --full-ladder 1 runs all seven ladder
// steps in every round (the per-layer ladder differences need them);
// --check-ladder 1 runs steps 2, 4, 5 and 6 once, untimed, after the
// rounds of a process that runs only the end-to-end steps.
//
// All files (snapshots, the trace, the daemon socket) live in DIR, which
// must exist; the program changes into it so the socket path stays short.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ingest/daemon.hpp"
#include "ladder.hpp"
#include "postmortem.hpp"
#include "probes.hpp"
#include "sim_sweep.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace tp = taskprof;
using tp::bots::SizeClass;

namespace {

constexpr tp::Ticks kMs = 1'000'000;

// Small fixed loads for the stages a workload is not about: every run
// reports every end-to-end metric.
const std::vector<KernelSpec> kSmallRecorded = {
    {"fib", SizeClass::kTest, false, 1},
    {"health", SizeClass::kTest, false, 1}};
const std::vector<KernelSpec> kSmallSimulated = {
    {"fib", SizeClass::kTest, false, 1}};
const std::vector<int> kSmallSimWorkers = {1, 4};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // Non-cut-off recursion: millions of ~50 ns hook events per run, one
      // region per kernel, so per-event costs dominate.
      {"fine_tasks", 20 * kMs,
       {{"fib", SizeClass::kSmall, false, 1},
        {"nqueens", SizeClass::kSmall, false, 1},
        {"health", SizeClass::kSmall, false, 1}},
       kSmallRecorded, kSmallSimulated, kSmallSimWorkers, 3, 3},
      // Analysis from disk of a trace and snapshots recorded on the
      // simulator.  The ladder runs coarse-grained kernels: few hook
      // events, so the profiler's per-event costs hardly show.
      {"postmortem", 20 * kMs,
       {{"sort", SizeClass::kSmall, false, 1},
        {"sparselu", SizeClass::kSmall, false, 1},
        {"fft", SizeClass::kSmall, false, 1},
        {"alignment", SizeClass::kSmall, false, 1}},
       {{"fib", SizeClass::kTest, false, 4},
        {"nqueens", SizeClass::kTest, false, 2},
        {"health", SizeClass::kTest, false, 4},
        {"floorplan", SizeClass::kTest, false, 4},
        {"sort", SizeClass::kTest, false, 1},
        {"sparselu", SizeClass::kTest, false, 1},
        {"fft", SizeClass::kTest, false, 1},
        {"alignment", SizeClass::kTest, false, 1}},
       kSmallSimulated, kSmallSimWorkers, 2, 3},
  };
  return all;
}

void json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void json_number(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const char* size_name(SizeClass size) {
  switch (size) {
    case SizeClass::kTest: return "test";
    case SizeClass::kSmall: return "small";
    case SizeClass::kMedium: return "medium";
  }
  return "?";
}

std::string describe(const std::vector<KernelSpec>& kernels) {
  std::string out;
  for (const KernelSpec& k : kernels) {
    if (!out.empty()) out += ",";
    out += k.name + (k.cutoff ? "_cutoff" : "") + ":" + size_name(k.size);
    if (k.regions > 1) out += "x" + std::to_string(k.regions);
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool full_ladder = false;
  bool check_ladder = false;
  std::string workdir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--full-ladder") {
        args.full_ladder = value == "1";
      } else if (key == "--check-ladder") {
        args.check_ladder = value == "1";
      } else if (key == "--workdir") {
        args.workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.workdir.empty() &&
         args.seconds > 0.0;
}

/// Starts a new resident-set high-water episode; false when the kernel
/// does not allow resetting it (then only the whole-run peak is known).
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// A "Vm...:  N kB" field of /proc/self/status in MiB: "VmRSS" (now) or
/// "VmHWM" (high-water mark since start or the last reset_peak_rss()).
/// Falls back to getrusage's whole-run peak where /proc is unreadable.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    const std::size_t len = std::strlen(field);
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      long kb = 0;
      if (std::strncmp(line, field, len) == 0 && line[len] == ':' &&
          std::sscanf(line + len + 1, "%ld", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Each process runs at least this many rounds, whatever --seconds says.
constexpr int kMinRounds = 2;
/// Rounds of the memory phase, per process.
constexpr int kMemoryRounds = 2;

}  // namespace

void Results::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

std::string Results::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) os << ',';
    json_string(os, failures_[i]);
  }
  os << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ',';
      json_number(os, values[i]);
    }
    os << ']';
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_number(os, value);
  }
  os << "},\"meta\":{";
  first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) os << ',';
    first = false;
    json_string(os, key);
    os << ':';
    json_string(os, value);
  }
  os << "}}";
  return os.str();
}

tp::bots::KernelConfig kernel_config(const KernelSpec& spec, int threads,
                                     std::uint64_t seed) {
  tp::bots::KernelConfig config;
  config.threads = threads;
  config.size = spec.size;
  config.cutoff = spec.cutoff;
  config.seed = seed;
  return config;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (chdir(args.workdir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter %s: %s\n", args.workdir.c_str(),
                 std::strerror(errno));
    return 2;
  }
  Results results;
  results.meta("workload", spec->name);
  results.meta("seed", std::to_string(args.seed));
  results.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  results.meta("team", std::to_string(kTeam));
  results.meta("build_type", PERFBENCH_BUILD_TYPE);
  results.meta("ladder_kernels", describe(spec->ladder));
  results.meta("recorded_kernels", describe(spec->recorded));
  results.meta("simulated_kernels", describe(spec->simulated));
  std::string workers;
  for (const int w : spec->sim_workers) {
    workers += (workers.empty() ? "" : ",") + std::to_string(w);
  }
  results.meta("sim_workers", workers);
  results.meta("snapshot_interval_ms",
               std::to_string(spec->snapshot_interval / kMs));

  // Set-up: daemon start, a warm-up pass through every ladder layer, and
  // recording the post-mortem inputs.
  const auto setup_start = WallClock::now();
  tp::ingest::DaemonOptions options;
  options.socket_path = "ingest.sock";
  options.shards = 1;
  tp::ingest::IngestDaemon daemon(options);
  daemon.start();
  auto ladder = std::make_unique<Ladder>(*spec, args.seed, daemon, results);
  results.set_recording(false);
  ladder->pass(kLadderSteps);  // warm-up: every layer once, untimed
  results.set_recording(true);
  const PostmortemInputs inputs = record_postmortem(*spec, args.seed, results);
  results.sample("setup_s", seconds_since(setup_start));
  results.meta("postmortem_input_digest", std::to_string(inputs.digest));

  Analysis analysis(results);
  SimSweep sim(*spec, args.seed, results);
  // Rounds: the three end-to-end steps (1, 3, 7) in alternating order,
  // then the analysis and simulator stages.  With --full-ladder 1 a round
  // first runs every ladder step once, also in alternating order: steps
  // 2, 4, 5 and 6 feed only the per-layer ladder differences, so runs
  // that report end-to-end metrics spend their time on the steps those
  // metrics read.  Interleaving keeps slow drifts of the host out of the
  // step-to-step differences and out of bare-vs-profiled.
  const auto start = WallClock::now();
  int rounds = 0;
  while (rounds < kMinRounds || seconds_since(start) < args.seconds) {
    const bool forward = rounds % 2 == 0;
    if (args.full_ladder) {
      for (int i = 0; i < kLadderSteps; ++i) {
        ladder->pass(forward ? i + 1 : kLadderSteps - i);
      }
    }
    // After a full ladder the end-to-end steps run in the opposite order.
    const bool ascending = forward != args.full_ladder;
    const int end_to_end[] = {1, 3, kLadderSteps};
    for (int i = 0; i < 3; ++i) {
      ladder->pass(end_to_end[ascending ? i : 2 - i]);
    }
    for (int i = 0; i < spec->analysis_repeats; ++i) {
      analysis.run(inputs, nullptr);
    }
    for (int i = 0; i < spec->sim_repeats; ++i) sim.run(nullptr);
    ++rounds;
  }
  results.set("rounds", rounds);
  if (args.check_ladder && !args.full_ladder) {
    // Steps 2, 4, 5 and 6 once each, untimed, so that the checksum check
    // spans all seven steps in every run.
    results.set_recording(false);
    for (const int step : {2, 4, 5, 6}) ladder->pass(step);
    results.set_recording(true);
  }

  if (args.trace) {
    SpanLog log;
    ladder->traced_pass(log);
    for (const auto& [name, s] : log.self_seconds_under("pass")) {
      results.set("self_ms." + name, s * 1e3);
    }
    // The traced stages' own timings are not samples of the stage.
    results.set_recording(false);
    analysis.run(inputs, &log);
    sim.run(&log);
    for (const auto& [name, s] : log.self_seconds_under("analysis")) {
      results.set("self_ms." + name, s * 1e3);
    }
    for (const auto& [name, s] : log.self_seconds_under("sim")) {
      results.set("self_ms." + name, s * 1e3);
    }
  }

  // Peak memory, measured last and untimed: rounds of the heaviest pass
  // of each stage (ladder step 7, analysis, simulator).  Each pass is
  // measured as the resident memory it adds: its high-water mark minus
  // the resident set at its start.  The process's own resident set is
  // left out because it is not the program's: glibc caches the stacks of
  // exited threads, and what is cached after the timed rounds differs by
  // 45 MB from process to process.  glibc's mmap threshold is fixed and
  // free memory trimmed before every pass, so buffers the program frees
  // leave the process and each pass starts from the same state.  A
  // round's sample is its largest pass.
  results.set_recording(false);
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  bool reset_ok = true;
  auto growth = [&](auto&& pass) {
    malloc_trim(0);
    const double start = status_mb("VmRSS");
    reset_ok = reset_peak_rss() && reset_ok;
    pass();
    return status_mb("VmHWM") - start;
  };
  std::vector<double> round_peaks;
  for (int i = 0; i < kMemoryRounds; ++i) {
    round_peaks.push_back(
        std::max({growth([&] { ladder->pass(kLadderSteps); }),
                  growth([&] { analysis.run(inputs, nullptr); }),
                  growth([&] { sim.run(nullptr); })}));
  }
  results.set_recording(true);
  if (reset_ok) {
    for (const double mb : round_peaks) results.sample("peak_rss_mb", mb);
  } else {
    // Without a resettable high-water mark only the whole run's peak is
    // known; report that, and say so.
    results.sample("peak_rss_mb", status_mb("VmHWM"));
  }
  results.meta("peak_rss_scope", reset_ok ? "largest pass" : "whole run");

  const tp::ingest::DaemonStats stats = daemon.stats();
  results.set("ingest.frames", static_cast<double>(stats.frames_received));
  results.set("ingest.queue_stalls", static_cast<double>(stats.queue_stalls));
  ladder.reset();
  daemon.stop();

  std::fputs(results.to_json().c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--full-ladder 0|1] [--check-ladder 0|1] --workdir DIR\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "taskprof_ladder_bench: %s\n", error.what());
    return 1;
  }
}
