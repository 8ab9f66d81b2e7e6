"""One benchmark sample, run in a fresh single-threaded Python process.

A fresh process pays what a CLI run pays: the import, the sieve build and
cold caches.  The sample times that set-up, runs the workload on the ready
store, and prints one JSON line: timings, peak memory, the host-speed probe
(timed before and after, outside both timings), and the digest of every
output block.

    python3 bench/child.py --workload verify-all --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def host_probe() -> float:
    """Seconds for a fixed pure-Python kernel of the kinds of work gapcheck
    does: strided writes and a find walk over a 1 MB bytearray, big-integer
    and Fraction arithmetic, dict updates.  It never changes, so it measures
    the host's speed at the moment, not the program's."""
    t0 = perf_counter()
    n = 1 << 20
    seg = bytearray([1]) * n
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        seg[p::p] = b"\x00" * ((n - p - 1) // p + 1)
    pos, found = seg.find(1), 0
    while pos >= 0 and found < 60_000:
        found += 1
        pos = seg.find(1, pos + 1)
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(isqrt(i * 10 ** 20 + 7), i + 1)
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    probe_before = host_probe()
    t0 = perf_counter()
    gc = workloads.import_library(SRC)
    t_imported = perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    phases = workloads.Phases(tracer.span if tracer else None)
    limit = workloads.store_limit(gc, args.workload)
    t_build = perf_counter()
    store = phases.run("build_store", gc.primes.build_store, limit)
    t_ready = perf_counter()

    info: dict = {}
    blocks = workloads.run(gc, args.workload, store, args.seed, phases, info)
    t_end = perf_counter()
    trace = tracer.snapshot() if tracer else None

    probe_after = host_probe()
    workloads.check_band(store, info, blocks)

    out = {
        "setup_s": (t_imported - t0) + (t_ready - t_build),
        "run_s": t_end - t_ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": (probe_before + probe_after) / 2,
        "phases": phases.durations,
        "blocks": [b.as_dict() for b in blocks],
        "info": info,
        "trace": trace,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
