#!/usr/bin/env python3
"""Compares two result sets of the grgad benchmark, standard library only.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result files written by run.py (by default
.bench_build/results/), or single result files. For each workload and each
metric it prints the median and quartiles of both sets and, for end-to-end
metrics, the verdict against the bound BENCHMARK.json fixes: "regressed"
when NEW's median is worse than BASE's by more than the bound, "unresolved"
when BASE's own spread is wider than the bound and NEW does not beat every
BASE run, else "ok". Per-layer metrics have no bound and get no verdict.
Exits 1 when any end-to-end metric regressed.
"""

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def load(path):
    """{(workload, trace): {metric: [values...]}} from result files."""
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    sets = {}
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            doc = json.load(f)
        key = (doc["workload"], doc["trace"])
        for metric, m in doc["result"]["metrics"].items():
            sets.setdefault(key, {}).setdefault(metric, []).append(m["value"])
    return sets


def fmt(v):
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    base, new = load(args.base), load(args.new)

    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "new median [q1, q3]", "change", "bound", "verdict"]
    rows = []
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for metric in sorted(set(base[key]) & set(new[key])):
            spec = e2e.get(metric) or layers.get(metric)
            if spec is None:
                continue
            b, n = base[key][metric], new[key][metric]
            bq, nq = benchlib.quartiles(b), benchlib.quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            bound, verdict = "", ""
            if metric in e2e:
                bound = "%.0f%%" % (100 * spec["bound"])
                verdict = benchlib.verdict(b, n, spec["bound"], spec["better"])
                regressed |= verdict == "regressed"
            rows.append([workload, metric, spec["unit"],
                         "%s [%s, %s] n=%d" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2]), len(b)),
                         "%s [%s, %s] n=%d" % (fmt(nq[1]), fmt(nq[0]), fmt(nq[2]), len(n)),
                         "%+.1f%%" % (100 * change), bound, verdict])

    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
