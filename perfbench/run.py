#!/usr/bin/env python3
"""Overhead-ladder benchmark for TaskProf: build, run one workload, report.

    python3 perfbench/run.py --workload fine_tasks --seed 1 --seconds 40 --trace 0

Run from the repository root.  Builds perfbench/ (which compiles the
libraries from src/) into .bench_build/perfbench, runs the measuring
program taskprof_ladder_bench on the workload, and prints every metric
BENCHMARK.json names for the chosen mode
(--trace 0: end-to-end, --trace 1: per-layer), one per line with its unit,
then one JSON object as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See perfbench/README.md for the workloads, metrics and predictions.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import stats  # noqa: E402  (perfbench/stats.py)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
EXE = os.path.join(BUILD_DIR, "taskprof_ladder_bench")
# A run pools the samples of several measuring processes, each given an equal
# share of --seconds: slow or fast states hold for long stretches of a
# process (profiled_s on recurring_regions ran at about 0.13 s in some
# runs and 0.16 s in others while plain_s did not move), so one process
# is one draw of such a state, not a measurement of the program.
# End-to-end timings are the mean of the processes' medians.
PROCESSES = 6
PROCESS_TIMEOUT_S = 55


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("TaskProf sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "taskprof_ladder_bench"],
                   stdout=sys.stderr, check=True)


def run_process(args, seconds, trace, check_ladder):
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "%.3f" % seconds, "--trace", str(trace),
             "--full-ladder", str(args.trace),
             "--check-ladder", str(int(check_ladder)), "--workdir", workdir],
            stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("taskprof_ladder_bench exited with %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def pooled_run(args):
    """Run PROCESSES measuring processes and pool them into one document: samples
    concatenated, checks summed, counts from the last (traced) process.  Cross-process checks: the simulator-recorded
    inputs and the diagnose/whatif outputs are byte-identical per seed."""
    last = PROCESSES - 1
    docs = [run_process(args, args.seconds / PROCESSES,
                        args.trace if i == last else 0, i == last)
            for i in range(PROCESSES)]
    pooled = {"attempted": 0, "failed": 0, "failures": [], "samples": {},
              "per_process": [doc["samples"] for doc in docs],
              "values": dict(docs[-1]["values"]), "meta": dict(docs[-1]["meta"])}
    for doc in docs:
        pooled["attempted"] += doc["attempted"]
        pooled["failed"] += doc["failed"]
        pooled["failures"] += doc["failures"]
        for name, values in doc["samples"].items():
            pooled["samples"].setdefault(name, []).extend(values)
    pooled["values"]["rounds"] = sum(doc["values"]["rounds"] for doc in docs)
    for key in ("postmortem_input_digest", "postmortem_output_digest"):
        pooled["attempted"] += 1
        if len({doc["meta"][key] for doc in docs}) != 1:
            pooled["failed"] += 1
            pooled["failures"].append("%s differs between processes" % key)
    return pooled


def derive(doc):
    """All metrics this benchmark knows, by name, from the measuring program's raw
    samples (S), counts (V) and the ladder structure.  Returns
    (metrics, notes) where notes describe sample counts and tails."""
    S, V = doc["samples"], doc["values"]
    m, notes = {}, {}

    def med(name):
        notes[name + ".n"] = len(S[name])
        return stats.median(S[name])

    def process_mean(name):
        notes[name + ".n"] = len(S[name])
        groups = [p[name] for p in doc["per_process"]]
        notes[name + ".process_medians"] = [stats.median(g) for g in groups]
        return stats.mean_of_medians(groups)

    def tail(name):
        p, value = stats.tail(S[name])
        notes[name + ".tail_percentile"] = p
        return value

    # End to end.  Each process sets up once: setup_s is the median of the
    # set-ups.
    m["setup_s"] = med("setup_s")
    pass_s = {k: process_mean("ladder.s%d.pass_s" % k) for k in (1, 3, 7)}
    m["plain_s"] = pass_s[1]
    m["profiled_s"] = pass_s[3]
    m["full_stack_s"] = pass_s[7]
    m["analysis_s"] = process_mean("analysis_s")
    m["sim_s"] = process_mean("sim_s")
    # Memory rounds: each sample is one round's largest pass.  Their mean,
    # because a pass's peak jumps by a power-of-two step whenever the
    # schedule pushes one thread's trace buffer past a doubling; the
    # median or maximum of a dozen samples flips between those steps.
    notes["peak_rss_mb.n"] = len(S["peak_rss_mb"])
    m["peak_rss_mb"] = stats.mean(S["peak_rss_mb"])
    if "rt.events" not in V:
        return m, notes

    # Per layer (needs the traced pass and the full ladder).  Ladder
    # differences use the kernels-only run time of each step, per hook
    # event.
    events = V["rt.events"]
    run_s = {k: med("ladder.s%d.run_s" % k) for k in range(1, 8)}

    def per_event(hi, lo):
        return (run_s[hi] - run_s[lo]) / events * 1e9

    m["rt.tasks"] = V["rt.tasks"]
    m["rt.events"] = events
    m["rt.steals"] = V["rt.steals"]
    m["rt.regions"] = V["rt.regions"]
    m["rt.plain_ns_per_task"] = run_s[1] / V["rt.tasks"] * 1e9
    m["rt.region_entry_us_p50"] = med("rt.region_entry_us")
    m["rt.region_entry_us_tail"] = tail("rt.region_entry_us")
    m["rt.hook_dispatch_ns_per_event"] = per_event(2, 1)

    m["measure.ns_per_event"] = per_event(3, 2)
    for kind in ("create", "begin", "end", "switch", "taskwait", "barrier"):
        m["measure.ns_per_event." + kind] = V["measure.inband_ns." + kind]
    m["measure.inband_ns_per_event"] = V["measure.inband_ns_per_event"]
    m["measure.region_us"] = V["measure.region_us"]
    m["measure.finalize_ms"] = med("measure.finalize_ms")
    m["measure.aggregate_ms"] = med("measure.aggregate_ms")
    m["measure.nodes"] = V["measure.nodes"]
    m["measure.bytes"] = V["measure.bytes"]
    m["measure.overhead_ratio"] = pass_s[3] / pass_s[1]

    m["report.render_ms"] = med("report.render_ms")
    m["report.postmortem_render_ms"] = med("report.postmortem_render_ms")

    m["trace.ns_per_event"] = per_event(4, 3)
    m["trace.inband_ns_per_event"] = V["trace.inband_ns_per_event"]
    m["trace.bytes_per_event"] = V["trace.bytes_per_event"]
    m["trace.write_ms"] = med("trace.write_ms")
    m["trace.load_ms"] = med("trace.load_ms")
    m["trace.analysis_ms"] = med("trace.analysis_ms")

    m["telemetry.ns_per_event"] = per_event(5, 4)
    m["telemetry.inband_ns_per_event"] = V["telemetry.inband_ns_per_event"]

    m["snapshot.ns_per_event"] = per_event(6, 5)
    m["snapshot.capture_ms_p50"] = med("snapshot.capture_ms")
    m["snapshot.flushes"] = med("snapshot.flushes")
    m["snapshot.bytes_p50"] = med("snapshot.bytes")
    m["snapshot.load_ms"] = med("snapshot.load_ms")
    m["snapshot.merge_ms"] = med("snapshot.merge_ms")

    m["ingest.ns_per_event"] = per_event(7, 6)
    m["ingest.send_ms_p50"] = med("ingest.ship_ms")
    m["ingest.send_ms_tail"] = tail("ingest.ship_ms")
    m["ingest.bytes_per_delta"] = med("ingest.delta_bytes")
    m["ingest.delta_to_rebase_ratio"] = med("ingest.delta_to_rebase")
    m["ingest.frames"] = V["ingest.frames"]
    m["ingest.queue_stalls"] = V["ingest.queue_stalls"]

    m["diagnose.ms"] = med("diagnose.ms")
    m["whatif.build_ms"] = med("whatif.build_ms")
    m["whatif.rank_ms"] = med("whatif.rank_ms")

    m["sim.ns_per_task"] = med("sim.bare_s") / V["sim.tasks"] * 1e9
    m["sim.ns_per_task_profiled"] = (med("sim.profiled_s") /
                                     V["sim.tasks_profiled"] * 1e9)
    m["sim.virtual_ticks"] = V["sim.virtual_ticks"]
    m["fiber.switches"] = V["fiber.switches"]

    # Tracing overhead: the traced full-stack pass against the untraced
    # step-7 median, beside the two per-event measures of the profiler.
    m["tracing.overhead_ms"] = (V["traced.pass_s"] - pass_s[7]) * 1e3
    m["tracing.overhead_ratio"] = V["traced.pass_s"] / pass_s[7]
    m["tracing.overhead_ns_per_event"] = ((V["traced.pass_s"] - pass_s[7]) /
                                          events * 1e9)
    m["traced.profiled_ms"] = V["traced.pass_s"] * 1e3
    for name, value in V.items():
        if name.startswith("self_ms."):
            m[name] = value
    return m, notes


def self_time_check(doc):
    """The traced pass's span self times must add up to the pass."""
    V = doc["values"]
    main_thread = ("pass", "kernel.run", "rt.parallel", "measure.finalize",
                   "measure.aggregate", "trace.take", "snapshot.flush_final",
                   "ingest.ship", "report.render")
    total = sum(V.get("self_ms." + n, 0.0) for n in main_thread)
    pass_ms = V["traced.pass_s"] * 1e3
    return abs(total - pass_ms) <= 0.01 * pass_ms + 0.01


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit("unknown workload %r" % args.workload)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()
    doc = pooled_run(args)
    metrics, notes = derive(doc)

    attempted, failed = doc["attempted"], doc["failed"]
    failures = list(doc["failures"])
    out = {}
    for spec in wanted:
        attempted += 1
        value = metrics.get(spec["name"])
        if value is None or not math.isfinite(value):
            failed += 1
            failures.append("metric %s missing or not finite" % spec["name"])
            continue
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if args.trace:
        attempted += 1
        if not self_time_check(doc):
            failed += 1
            failures.append("traced self times do not sum to the traced pass")

    meta = dict(doc["meta"])
    meta.update(notes)
    meta["rounds"] = doc["values"]["rounds"]
    meta["processes"] = PROCESSES
    meta["attempted"] = attempted
    meta["failed"] = failed
    print("# " + json.dumps(meta, sort_keys=True))
    for f in failures:
        print("# FAILED: " + f)
    for name, entry in out.items():
        print("%-36s %16.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError, ValueError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
