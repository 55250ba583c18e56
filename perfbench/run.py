#!/usr/bin/env python3
"""otpdb-bench: the repository's end-to-end benchmark.

Builds perfbench/otpdb_bench from the repository's sources (Release, into
.bench_build/), runs one workload for a given wall-clock time and prints every
metric by name and unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload rmw-lan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rmw-lan --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest --seed 1 --second-seed 777

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the spans of one job to .bench_build/traces/). --selftest runs
every workload, checks determinism, the latency cross-check against
ReplicaMetrics and a second seed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "otpdb_bench")

WORKLOADS = ["rmw-lan", "tpcc-wan-durable", "scale32", "overload-conservative"]
# Workloads on which no request is ever refused, so the benchmark's own
# latency (from the first due time) must equal ReplicaMetrics' (from the
# admitted attempt) exactly.
XCHECK_WORKLOADS = {"rmw-lan", "tpcc-wan-durable", "scale32"}

# slo_rate_tps (rmw-lan): the highest of these per-site offered rates whose
# commit p99 stays within SLO_P99_MS and whose in-flight backlog does not grow
# (last quarter of the load window / first quarter <= SLO_BACKLOG_GROWTH).
SLO_RATES = [400, 450, 500, 550, 600, 650]
SLO_P99_MS = 100.0
SLO_BACKLOG_GROWTH = 2.0
SLO_SITES = 4  # rmw-lan's site count: slo_rate_tps is cluster-wide

JOB_TIMEOUT_S = 170
MAX_RUN_S = 150  # stop starting jobs after this, whatever --seconds says


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "cluster.h")):
        log("otpdb sources not found under %s/src: nothing to build" % ROOT)
        sys.exit(2)
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)


def run_job(workload, seed, trace=False, rate=None, sims=None, setups=None, spans=None):
    """Runs one job (one process) and returns its parsed JSON line."""
    os.makedirs(os.path.join(BUILD, "data"), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--data-dir", os.path.join(BUILD, "data")]
    if trace:
        cmd.append("--trace")
    if rate is not None:
        cmd += ["--rate", str(rate)]
    if sims is not None:
        cmd += ["--sims", str(sims)]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    if spans is not None:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr)
        log("job failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
        sys.exit(1)
    return json.loads(lines[-1])


def run_jobs(workload, seed, seconds, trace):
    """Repeats jobs until `seconds` of wall time have passed (at least two).
    With trace, traced and untraced jobs alternate. Returns (untraced, traced)."""
    untraced, traced, durations = [], [], []
    start = time.monotonic()
    while True:
        job_start = time.monotonic()
        if trace and len(traced) <= len(untraced):
            spans = os.path.join(BUILD, "traces", "%s-seed%d.spans.jsonl" % (workload, seed))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            traced.append(run_job(workload, seed, trace=True, spans=spans))
        else:
            untraced.append(run_job(workload, seed))
        now = time.monotonic()
        durations.append(now - job_start)
        enough = len(untraced) >= (1 if trace else 2) and len(traced) >= (1 if trace else 0)
        # Stop when another job would end more than half a job past the mark.
        if enough and (now - start + statistics.mean(durations) / 2 >= seconds
                       or now - start >= MAX_RUN_S):
            return untraced, traced


def check_jobs(jobs):
    """Every job passed its checks, and the simulated-time results of all
    jobs of one seed are bit-identical (the simulator is deterministic)."""
    problems = []
    for job in jobs:
        problems += job["violations"]
    reference = json.dumps(jobs[0]["sim"], sort_keys=True)
    if any(json.dumps(j["sim"], sort_keys=True) != reference for j in jobs[1:]):
        problems.append("simulated-time results differ between jobs of one seed")
    return problems


def slo_rate(seed):
    """slo_rate_tps on rmw-lan, probing rates upwards until one misses."""
    best, problems = 0.0, []
    for rate in SLO_RATES:
        job = run_job("rmw-lan", seed, rate=rate, sims=1, setups=1)
        problems += job["violations"]
        sim = job["sim"]
        met = (sim["commit_p99_ms"] <= SLO_P99_MS
               and sim["backlog_growth"] <= SLO_BACKLOG_GROWTH)
        log("slo probe %d txn/s/site: p99 %.2f ms, backlog growth %.2f -> %s"
            % (rate, sim["commit_p99_ms"], sim["backlog_growth"], "met" if met else "missed"))
        if not met:
            break
        best = float(rate * SLO_SITES)
    return best, problems


def self_times(spans_path):
    """Per span name: count, total and self wall ms (self = duration minus the
    part covered by child spans)."""
    names, durations, child_ns = [], [], []
    with open(spans_path) as f:
        for line in f:
            span = json.loads(line)
            names.append(span["name"])
            durations.append(span["end_ns"] - span["start_ns"])
            child_ns.append(0)
            if span["parent"] >= 0:
                child_ns[span["parent"]] += durations[-1]
    table = {}
    for name, dur, covered in zip(names, durations, child_ns):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur / 1e6
        row[2] += max(0, dur - covered) / 1e6
    return table


def pooled(jobs, key):
    """All per-simulation (or per-set-up) values of `key` across jobs."""
    return [v for j in jobs for v in j["wall"][key]]


def end_to_end(jobs):
    sim = jobs[0]["sim"]
    return {
        "commit_p50_ms": (sim["commit_p50_ms"], "ms"),
        "commit_p99_ms": (sim["commit_p99_ms"], "ms"),
        "commit_p999_ms": (sim["commit_p999_ms"], "ms"),
        "goodput_tps": (sim["goodput_tps"], "txn/s"),
        "wall_ms_per_sim_s": (statistics.median(pooled(jobs, "wall_ms_per_sim_s")), "ms"),
        "setup_s": (statistics.median(pooled(jobs, "setup_ms")) / 1e3, "s"),
        "peak_rss_mb": (statistics.median(j["wall"]["peak_rss_mb"] for j in jobs), "MiB"),
    }


def per_layer(traced, untraced, slo):
    metrics = {}
    for name in traced[0]["layers"]:
        unit = UNITS.get(name, "count")
        metrics[name] = (statistics.median(j["layers"][name] for j in traced), unit)
    sim = traced[0]["sim"]
    metrics["failed_frac"] = (sim["failed_frac"], "ratio")
    metrics["query_p99_ms"] = (sim["query_p99_ms"], "ms")
    metrics["commit_samples"] = (float(sim["commit_samples"]), "count")
    metrics["slo_rate_tps"] = (slo, "txn/s")
    # Per simulation, at the reference host speed like wall_ms_per_sim_s.
    sim_s = traced[0]["sim"]["sim_s"] / traced[0]["sims"]
    overhead = (statistics.median(pooled(traced, "wall_ms_per_sim_s"))
                - statistics.median(pooled(untraced, "wall_ms_per_sim_s"))) * sim_s
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["host.reference_ms"] = (statistics.median(pooled(untraced, "reference_ms")), "ms")
    metrics["host.raw_wall_ms_per_sim_s"] = (
        statistics.median(pooled(untraced, "raw_wall_ms_per_sim_s")), "ms")
    metrics["host.raw_setup_s"] = (statistics.median(pooled(untraced, "raw_setup_ms")) / 1e3, "s")
    return metrics


UNITS = {
    "sim.run_wall_ms": "ms", "sim.events_per_commit": "count", "sim.slice_growth": "ratio",
    "sim.rounds_per_sim_s": "1/s", "sim.active_site_frac": "ratio",
    "net.deliveries_per_commit": "count", "abcast.fast_path_frac": "ratio",
    "abcast.rounds_per_instance": "count", "abcast.msgs_per_instance": "count",
    "abcast.opt_to_gap_ms": "ms", "abcast.suspicions": "count", "core.submit_ns": "ns",
    "core.commit_wait_ms": "ms", "core.useful_exec_frac": "ratio",
    "core.reorders_per_kcommit": "count", "core.shed_frac": "ratio",
    "core.deadline_drops": "count", "query.retries_per_query": "count",
    "db.commits_per_fsync": "count", "db.wal_bytes_per_commit": "B", "db.checkpoint_kib": "KiB",
    "db.live_versions": "count", "checker.wall_ms": "ms",
    "workload.retries_per_update": "count",
}


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print("  %-28s %16.6g %s" % (name, value, unit))


def result_line(correct, jobs, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": sum(j["sim"]["generated"] for j in jobs),
        "failed": sum(j["sim"]["lost"] for j in jobs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def measure(args):
    build()
    slo, problems = 0.0, []
    if args.trace and args.workload == "rmw-lan":
        slo, problems = slo_rate(args.seed)
    untraced, traced = run_jobs(args.workload, args.seed, args.seconds, args.trace)
    jobs = untraced + traced
    problems += check_jobs(jobs)
    sim = jobs[0]["sim"]
    print("otpdb-bench %s seed %d: %d untraced + %d traced jobs of %d simulations, "
          "%.1f simulated s each" % (args.workload, args.seed, len(untraced), len(traced),
                                     jobs[0]["sims"], sim["sim_s"]))
    print("  client operations %d, done %d, refused %d, lost %d; commit samples %d"
          % (sim["generated"], sim["done"], sim["refused"], sim["lost"], sim["commit_samples"]))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    e2e = end_to_end(untraced)
    extras = {"failed_frac": (sim["failed_frac"], "ratio")}
    if sim["query_samples"]:
        extras["query_p99_ms"] = (sim["query_p99_ms"], "ms")
    print_table("end-to-end (tracing off):", {**e2e, **extras})
    if not args.trace:
        print(result_line(not problems, jobs, e2e))
        return
    layers = per_layer(traced, untraced, slo)
    print_table("per-layer (traced run):", layers)
    spans = os.path.join(BUILD, "traces", "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
    print("spans of the last traced job: %s" % os.path.relpath(spans, ROOT))
    print("  %-16s %9s %12s %12s" % ("span", "count", "total ms", "self ms"))
    for name, (count, total, self_ms) in self_times(spans).items():
        print("  %-16s %9d %12.3f %12.3f" % (name, count, total, self_ms))
    print(result_line(not problems, jobs, layers))


def selftest(args):
    """Determinism, the latency cross-check and a second seed, on every
    workload. Exits non-zero when any of them fails."""
    build()
    failures = []
    rows = []
    for workload in WORKLOADS:
        first = run_job(workload, args.seed)
        again = run_job(workload, args.seed)
        other = run_job(workload, args.second_seed)
        for label, job in (("seed %d" % args.seed, first), ("seed %d" % args.second_seed, other)):
            failures += ["%s %s: %s" % (workload, label, v) for v in job["violations"]]
        if json.dumps(first["sim"], sort_keys=True) != json.dumps(again["sim"], sort_keys=True):
            failures.append("%s: simulated-time metrics differ across runs of one seed"
                            % workload)
        xcheck = first["xcheck"]["equal"] and other["xcheck"]["equal"]
        if workload in XCHECK_WORKLOADS and not xcheck:
            failures.append("%s: own latency != ReplicaMetrics (%s)"
                            % (workload, first["xcheck"]))
        print("%s: own p50/p99 %.6f/%.6f ms, ReplicaMetrics %.6f/%.6f ms -> %s"
              % (workload, first["sim"]["commit_p50_ms"], first["sim"]["commit_p99_ms"],
                 first["xcheck"]["replica_p50_ms"], first["xcheck"]["replica_p99_ms"],
                 "equal" if xcheck else "differ"))
        for job in (first, other):
            s = job["sim"]
            rows.append((workload, job["seed"], s["commit_p50_ms"], s["commit_p99_ms"],
                         s["commit_p999_ms"], s["commit_samples"], s["goodput_tps"],
                         s["failed_frac"], s["query_p99_ms"]))
    print("| workload | seed | p50 ms | p99 ms | p99.9 ms | samples | goodput txn/s "
          "| failed_frac | query p99 ms |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print("| %s | %d | %.3f | %.3f | %.3f | %d | %.1f | %.4f | %.3f |" % r)
    for f in failures:
        print("SELFTEST FAILED: " + f)
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--second-seed", type=int, default=777)
    args = parser.parse_args()
    if args.selftest:
        selftest(args)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
