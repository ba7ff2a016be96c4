#!/usr/bin/env python3
"""The grgad benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload amlpublic --seed 1 --seconds 15 --trace 0

Run it from the repository root. It builds the library, the `grgad` CLI and
the benchmark runner into .bench_build/ (the first run compiles; later runs
reuse the build), runs one workload at GRGAD_THREADS = 1, checks the
program's outputs, and prints every metric by name and unit, a provenance
line, and last a JSON object {"correct", "attempted", "failed", "metrics"}.
A workload is a dataset; each runs the same session on it (build, train,
serve reads, churn, kill -9 and restart), so each reports every metric.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and the tracing overhead (traced minus untraced, per end-to-end
metric) and leaves the spans in .bench_build/results/ as Chrome trace JSON.
Each run's full result is also kept in .bench_build/results/ for compare.py.

Exits non-zero when the sources are missing, the build or a run fails, or an
output check fails (with "correct": false on the last line).
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

BUILD = ".bench_build"
# One library thread in the runner and the daemon. On a shared host the
# hypervisor steals CPU time in spells; a 4-thread parallel region then waits
# for its slowest vCPU, and a read's latency swings several-fold from run to
# run. Single-threaded, steal slows the work in proportion.
THREADS = "1"
RUNNER_TIMEOUT_S = 170

WORKLOADS = ("simml", "amlpublic")

# End-to-end metrics, reported with --trace 0 (names and units as declared
# in BENCHMARK.json).
E2E = ["setup_s", "peak_rss_mb", "run_s", "cr", "auc", "read_p50_ms",
       "write_p50_ms", "refresh_p50_ms", "churn_ops_per_s", "recover_s"]
# Tail metrics: measured by the same untraced pass, but declared per-layer
# (no bound) and reported with --trace 1, because tails swing first and most
# when the host is contended (see README.md). Each is the percentile
# benchlib.tail_percentile chooses for its sample count in a run of
# BENCHMARK.json's run_seconds.
TAIL = {"read_p90_ms": 90.0, "write_p99_ms": 99.0, "refresh_p90_ms": 90.0}
# Metrics whose traced-minus-untraced difference is the tracing overhead:
# every timed one (quality and memory are checked, not timed).
NOT_TIMED = {"cr", "auc", "peak_rss_mb"}

CHURN_WRITE, CHURN_REFRESH = (0, 1), 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---- build ------------------------------------------------------------------

def check_sources():
    needed = ["CMakeLists.txt", "src", "tools/grgad_cli.cc",
              "perfbench/CMakeLists.txt", "perfbench/runner.cc",
              "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        die("run from the repository root; missing: " + ", ".join(missing))


def build():
    """Configures (a no-op when nothing changed), then builds the runner and
    the grgad CLI."""
    jobs = str(nproc())
    cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("cmake configure failed", 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed", 1)
    return (os.path.join(BUILD, "perfbench_runner"),
            os.path.join(BUILD, "grgad", "grgad"))


# ---- provenance -------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_flags():
    flags = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    flags["build_type"] = line.split("=", 1)[1].strip()
        path = os.path.join(BUILD, "grgad", "CMakeFiles", "grgad.dir",
                            "flags.make")
        with open(path) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    flags["cxx_flags"] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return flags


def source_digest():
    """sha256 over the sources the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt"] + sorted(
        glob.glob("src/**/*", recursive=True) + glob.glob("tools/*") +
        glob.glob("perfbench/*.cc") + glob.glob("perfbench/CMakeLists.txt"))
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):  # Not a clone: an enclosing repo is not ours.
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # the guest times being already inside user and nice.
    return fields[7], sum(fields[:8])


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two cpu_ticks(): a
    timed metric moves with it, so every result records it."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def provenance(isa, threads):
    return {"cpu_model": cpu_model(), "nproc": nproc(), "isa": isa,
            "grgad_threads": threads, **build_flags(), "commit": commit(),
            "source_digest": source_digest()}


# ---- reduction: raw runner output -> metrics ----------------------------------

def median(values):
    return statistics.median(values)


def tail(values, name, checks):
    """The TAIL percentile of `values`; notes in `checks` when fewer than 10
    samples lie beyond it (a run shorter than run_seconds does that)."""
    p = TAIL[name]
    if (benchlib.tail_percentile(len(values)) or 0) < p:
        checks.setdefault("short_tails", []).append("%s: %d samples"
                                                    % (name, len(values)))
    return benchlib.percentile(values, p)


def reduce_pass(p, checks):
    """End-to-end and tail metrics of one pass, its operation count and its
    failed operations (a non-ok, refused, lost or mismatched request)."""
    reads = [r for ph in p["phases"] for r in ph["requests"]]
    ref = next(ph for ph in p["phases"] if ph["kind"] == "reference")["requests"]
    read_lat = [r[3] - r[1] for r in ref if r[3] >= 0]
    churn = p["churn"]
    writes = [r[1] for r in churn if r[0] in CHURN_WRITE]
    refreshes = [r[1] for r in churn if r[0] == CHURN_REFRESH]
    checks["fingerprint"] = benchlib.fingerprint(p["groups"], p["score_bits"])
    checks["lateness_p99_ms"] = 1e3 * benchlib.percentile(
        [r[2] - r[1] for r in ref], 99.0)
    checks["backlog_ms"] = 1e3 * (max(r[3] for r in ref) - max(r[1] for r in ref))
    checks["read_status_counts"] = {str(k): sum(1 for r in reads if r[4] == k)
                                    for k in range(4)}
    checks["probe_mismatches"] = p["probe_mismatches"]
    metrics = {"setup_s": median(p["setup_s"]),
               "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
               "run_s": p["run_s"], "cr": p["cr"], "auc": p["auc"],
               "read_p50_ms": 1e3 * benchlib.percentile(read_lat, 50.0),
               "read_p90_ms": 1e3 * tail(read_lat, "read_p90_ms", checks),
               "write_p50_ms": 1e3 * benchlib.percentile(writes, 50.0),
               "write_p99_ms": 1e3 * tail(writes, "write_p99_ms", checks),
               "refresh_p50_ms": 1e3 * benchlib.percentile(refreshes, 50.0),
               "refresh_p90_ms": 1e3 * tail(refreshes, "refresh_p90_ms", checks),
               "churn_ops_per_s": len(churn) / p["session_s"],
               "recover_s": median(p["recover_s"])}
    failed = (sum(1 for r in reads if r[4] != 0) +
              sum(1 for r in churn if r[2] != 0) + int(p["probe_mismatches"]))
    # The training run counts as one operation.
    return metrics, 1 + len(reads) + len(churn) + int(p["probes"]), failed


def load_spans(path):
    """Chrome trace events grouped by span name; each event gains "self",
    its duration minus the part its children cover."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    own = benchlib.self_times(events)
    spans = {}
    for e in events:
        e["self"] = own[e["args"]["id"]]
        spans.setdefault(e["name"], []).append(e)
    return spans


def print_span_summary(spans):
    print("%-32s %8s %12s %12s" % ("span", "count", "median ms", "self ms"))
    for name in sorted(spans):
        events = spans[name]
        print("%-32s %8d %12.4f %12.4f" % (
            name, len(events), 1e-3 * median([e["dur"] for e in events]),
            1e-3 * median([e["self"] for e in events])))


def dur(spans, name, scale):
    """Median duration of the named spans, in seconds times `scale`."""
    return scale * 1e-6 * median([e["dur"] for e in spans[name]])


def arg_values(spans, name, key):
    return [e["args"][key] for e in spans[name]]


DETECTORS = ("ecod", "iforest", "knn", "lof", "ensemble")


def layers(spans, p):
    """Per-layer metrics of the traced pass `p`."""
    epochs = p["epochs"]
    out = {
        "data.build_s": dur(spans, "data.build", 1),
        "gae.anchor_stage_s": dur(spans, "gae.anchor_stage", 1),
        "gae.anchors": median(arg_values(spans, "gae.anchor_stage", "anchors")),
        "sampling.candidate_stage_s": dur(spans, "sampling.candidate_stage", 1),
        "sampling.candidates": median(
            arg_values(spans, "sampling.candidate_stage", "candidates")),
        "gcl.embedding_stage_s": dur(spans, "gcl.embedding_stage", 1),
        "gcl.epoch_ms": dur(spans, "gcl.embedding_stage", 1e3) / epochs,
        "od.scoring_stage_s": dur(spans, "od.scoring_stage", 1),
        "tensor.arena_heap_allocs": median(
            arg_values(spans, "core.pipeline", "arena_heap_allocs")),
        "graph.workspace_heap_allocs": median(
            arg_values(spans, "sampling.candidate_stage",
                       "workspace_heap_allocs")),
    }
    execute, self_ms = [], []
    for det in DETECTORS:
        od = dur(spans, "od.rescore." + det, 1e3)
        ex = dur(spans, "serve.execute.rescore." + det, 1e3)
        out["od.rescore_ms." + det] = od
        execute += [e["dur"] for e in spans["serve.execute.rescore." + det]]
        self_ms.append(ex - od)
    out["serve.execute_ms.rescore"] = 1e-3 * median(execute)
    out["serve.execute_ms.what-if"] = dur(spans, "serve.execute.what-if", 1e3)
    out["serve.self_ms"] = statistics.mean(self_ms)
    out["serve.queue_wait_ms_p90"] = 1e3 * benchlib.percentile(
        p["queue_wait_s"], 90.0)
    out["serve.batch_mean_size"] = p["batch_mean_size"]
    out["serve.queue_peak_depth"] = p["queue_peak_depth"]

    fanout = arg_values(spans, "sampling.mark", "fanout")
    reused = sum(arg_values(spans, "core.refresh", "reused"))
    dirty = sum(arg_values(spans, "core.refresh", "dirty"))
    fsyncs = arg_values(spans, "serve.wal_append", "fsyncs")
    out.update({
        "data.build_share_of_recover": out["data.build_s"] / median(p["recover_s"]),
        "graph.apply_edge_us": dur(spans, "graph.apply_edge", 1e6),
        "sampling.mark_us": dur(spans, "sampling.mark", 1e6),
        "sampling.fanout_mean": statistics.mean(fanout),
        "core.refresh_ms": dur(spans, "core.refresh", 1e3),
        "core.refresh_reuse_ratio": reused / (reused + dirty),
        "serve.wal_append_us": dur(spans, "serve.wal_append", 1e6),
        "serve.wal_fsyncs_per_write": sum(fsyncs) / len(fsyncs),
        "serve.snapshot_save_ms": dur(spans, "serve.snapshot_save", 1e3),
        "serve.snapshot_load_ms": dur(spans, "serve.snapshot_load", 1e3),
        "serve.recovery_replay_ms": dur(spans, "serve.recovery_replay", 1e3),
        "serve.replayed_records": median(
            arg_values(spans, "serve.recovery_replay", "replayed_records")),
    })
    return out


def check_correct(checks, failed):
    """Output checks beyond per-operation failures: training is
    deterministic, so the traced pass must reproduce the untraced one."""
    problems = []
    if failed:
        problems.append("%d failed operations" % failed)
    prints = {c["fingerprint"] for c in checks}
    if len(prints) != 1:
        problems.append("training fingerprints differ across passes: %s"
                        % sorted(prints))
    return problems


# ---- main ---------------------------------------------------------------------

def run_workload(runner, grgad, args, work):
    out = os.path.join(work, "raw.json")
    cmd = [runner, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--grgad", grgad, "--work", work, "--out", out]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The runner's daemons die with it; make sure of it, then wait for
        # the whole process group to be gone.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    if code != 0:
        die("runner %s" % ("timed out" if code is None else "exited %d" % code), 1)
    with open(out) as f:
        return json.load(f)


def load_manifest():
    """Units by metric name, and the metric names each --trace reports."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return units, {0: [m["name"] for m in bench["end_to_end"]],
                   1: [m["name"] for m in bench["per_layer"]]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_sources()
    # A TERM (say, from a timeout) unwinds through the clean-up below, which
    # stops the runner and its daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units, declared = load_manifest()
    runner, grgad = build()
    os.environ["GRGAD_THREADS"] = THREADS
    work = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ticks = cpu_ticks()
        raw = run_workload(runner, grgad, args, work)
        steal = steal_share(ticks, cpu_ticks())
        passes = raw["passes"]
        results, checks = [], []
        for p in passes:
            c = {}
            results.append(reduce_pass(p, c))
            checks.append(c)
        e2e, attempted, failed = results[0]
        failed_all = sum(r[2] for r in results)
        attempted_all = sum(r[1] for r in results)
        problems = check_correct(checks, failed_all)

        if args.trace:
            spans = load_spans(raw["trace_file"])
            print_span_summary(spans)
            metrics = layers(spans, passes[1])
            traced = results[1][0]
            for name in TAIL:
                metrics[name] = e2e[name]
            for name in E2E + list(TAIL):
                if name not in NOT_TIMED:
                    metrics["overhead." + name] = traced[name] - e2e[name]
            attempted, failed = attempted_all, failed_all
        else:
            metrics = {name: e2e[name] for name in E2E}
            for name in TAIL:
                print("%-32s %14.6g %s (per-layer, unbounded)"
                      % (name, e2e[name], units[name]))
        if sorted(metrics) != sorted(declared[args.trace]):
            die("metrics %s differ from BENCHMARK.json's %s" % (
                sorted(metrics), sorted(declared[args.trace])), 1)

        prov = provenance(raw["isa"], THREADS)
        for name, value in metrics.items():
            print("%-32s %14.6g %s" % (name, value, units[name]))
        for c in checks:
            for key in ("lateness_p99_ms", "backlog_ms", "short_tails",
                        "fingerprint", "probe_mismatches"):
                if key in c:
                    print("check %-26s %s" % (key, c[key]))
        print("check %-26s %s" % ("host_steal_share", steal))
        for problem in problems:
            print("MISMATCH " + problem)
        print("provenance " + json.dumps(prov, sort_keys=True))

        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
        results_dir = os.path.join(BUILD, "results")
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, "%s-seed%d-trace%d-%d" % (
            args.workload, args.seed, args.trace, time.time_ns()))
        with open(stem + ".json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "seconds": args.seconds,
                       "provenance": prov, "checks": checks,
                       "host_steal_share": steal,
                       "tails": {n: e2e[n] for n in TAIL},
                       "result": result}, f, indent=1, default=str)
        if args.trace:
            shutil.copy(raw["trace_file"], stem + ".trace.json")
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
