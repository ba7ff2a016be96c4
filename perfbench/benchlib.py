"""Statistics and rules shared by run.py, compare.py and their tests.

Standard library only. Every rule the benchmark reports by lives here once:
nearest-rank percentiles and the percentile choice, the output fingerprint,
span self time, and the verdict of one metric against its bound.
"""

import math
import statistics

# Percentiles a tail latency may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10  # Samples that must lie beyond a reported percentile.


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first so that 99.9% of 10000 is 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when not even the median qualifies."""
    best = None
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when all equal)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(q2)


def fnv1a64(data):
    """64-bit FNV-1a, the same function as the library's Fnv1a64."""
    h = 0xcbf29ce484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def fingerprint(groups, score_bits):
    """Hex fingerprint of one pipeline output: the candidate groups in order
    and each score's IEEE-754 bit pattern (16 hex digits), so any change of
    membership, order or a single score bit changes it."""
    lines = ["g " + " ".join(str(int(m)) for m in g) for g in groups]
    lines.append("s " + " ".join(b.lower() for b in score_bits))
    return "%016x" % fnv1a64(("\n".join(lines) + "\n").encode())


def self_times(events):
    """Self time of each Chrome trace "X" event, in its own units: its
    duration minus the part of it its child events (args.parent) cover."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(e["args"]["id"], []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[e["args"]["id"]] = e["dur"] - covered
    return out


def verdict(base, new, bound, better):
    """Compares two sets of runs of one metric on one workload.

    "regressed" when the new median is worse than the base median by more
    than `bound` (a share of the base median); "unresolved" when the base's
    own spread exceeds the bound and the new runs do not all beat every base
    run; else "ok".
    """
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if worse_by > bound:
        return "regressed"
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "ok"
