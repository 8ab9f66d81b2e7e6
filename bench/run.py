"""Benchmark entry point: repeated fresh-process samples of one workload.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Each sample is a new single-threaded Python process (bench/child.py); one
runs at a time.  Samples repeat until the next one would overrun --seconds
(at least MIN_SAMPLES).  Every output block is checked against
bench/golden.json; a mismatch, a false claim flag or an exception counts as
failed ops.

--trace 0 prints the end-to-end metrics: medians over samples, with times
scaled to a reference host speed (see PROBE_REF_S).  --trace 1
alternates untraced and traced samples, prints the per-layer metrics of the
traced ones and the tracing overhead, and fails unless the trace's counts
cross-check exactly.  Raw samples, quartiles and spans go to bench/out/.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# The host's speed drifts by up to 2x over minutes (contention from outside
# this machine's view; CPU time tracks wall time).  Reported times are
# therefore scaled to a host on which the fixed probe kernel in child.py
# takes PROBE_REF_S: seconds * PROBE_REF_S / probe seconds, sample by sample.
PROBE_REF_S = 0.04
MIN_SAMPLES = 3
MIN_TRACED = 2
HARD_STOP_S = 150       # start no sample after this many seconds
RUN_LIMIT_S = 170       # kill a sample still running then: a run must end within 180 s


class BenchError(RuntimeError):
    pass


def run_sample(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    # a fixed hash seed keeps set and dict layouts, and so timings, alike
    # across samples; gapcheck must come from this checkout's src/
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample still running after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_blocks(sample: dict, workload: str, seed: int, golden: dict) -> tuple[int, int, list]:
    """(attempted ops, failed ops, problems) for one sample against golden digests."""
    expected = dict(golden["fixed"])
    expected.update({n: golden["seeded"].get(n) for n in workloads.seeded_names(workload, seed)})
    attempted = failed = 0
    problems = []
    seen = set()
    for b in sample["blocks"]:
        seen.add(b["name"])
        want = expected.get(b["name"])
        ops = b["ops"]
        if b["error"]:
            ops = max(ops, want["ops"] if want else 1)
            problem = b["error"]
        elif want is None:
            problem = "no golden digest"
        elif b["digest"] != want["digest"]:
            problem = "digest differs from golden"
        else:
            problem = None
        attempted += ops
        if problem:
            failed += ops
            problems.append(f"{b['name']}: {problem}")
        elif b["claim_fail"]:
            failed += b["claim_fail"]
            problems.append(f"{b['name']}: {b['claim_fail']} false claim(s)")
    for name in sorted(set(expected) - seen):
        ops = expected[name]["ops"] if expected[name] else 1
        problems.append(f"{name}: block missing")
        attempted += ops
        failed += ops
    return attempted, failed, problems


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Run samples until the time is up; returns (untraced, traced) samples."""
    plan = (False, True) if trace else (False,)
    need = MIN_TRACED if trace else MIN_SAMPLES
    untraced, traced, walls = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced_sample in plan:
            (traced if traced_sample else untraced).append(run_sample(
                workload, seed, traced_sample, start + RUN_LIMIT_S - time.monotonic()))
        walls.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(walls) >= need and elapsed + statistics.median(walls) > seconds:
            return untraced, traced
        if elapsed > HARD_STOP_S:
            if len(walls) < need:
                raise BenchError(f"only {len(walls)} samples in {HARD_STOP_S} s")
            return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "gapcheck" / "__init__.py").is_file():
            raise BenchError(f"no gapcheck sources under {ROOT / 'src'}")
        # byte-compile once so no sample pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, capture_output=True, timeout=120)
        golden = json.loads((BENCH / "golden.json").read_text())["workloads"][args.workload]
        untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for s in untraced + traced:
        a, f, problems = check_blocks(s, args.workload, args.seed, golden)
        s.update(attempted_ops=a, failed_ops=f, failed_ops_ratio=f / a, problems=problems,
                 run_norm_s=s["run_s"] * PROBE_REF_S / s["probe_s"],
                 setup_norm_s=s["setup_s"] * PROBE_REF_S / s["probe_s"])
        attempted += a
        failed += f
        for p in problems[:5]:
            print(f"bench: {args.workload} seed {args.seed}: {p}", file=sys.stderr)

    summary = {name: summarize([s[name] for s in untraced])
               for name in ("run_norm_s", "setup_norm_s", "run_s", "setup_s",
                            "peak_rss_mb", "probe_s", "failed_ops_ratio")}
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "cores": os.cpu_count(), "summary": summary,
           "verify_digests": sorted({s["info"]["verify_digest"] for s in untraced
                                     if "verify_digest" in s["info"]}),
           "samples": [{**{k: v for k, v in s.items() if k not in ("blocks", "trace")},
                        "info": {k: v for k, v in s["info"].items() if k != "reports"}}
                       for s in untraced]}

    correct = failed == 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, trace_doc, mismatches = layers.report(traced, summary["run_s"]["median"])
        for m in mismatches:
            print(f"bench: trace cross-check: {m}", file=sys.stderr)
        if trace_doc["unwrapped"]:
            print(f"bench: not found, so not traced (reads 0): "
                  f"{', '.join(trace_doc['unwrapped'])}", file=sys.stderr)
        correct = correct and not mismatches
        trace_doc.update(workload=args.workload, seed=args.seed, metrics=metrics,
                         cross_check_failures=mismatches)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace_doc))
        out_metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                       for name, value in metrics.items()}
    else:
        out_metrics = {name: {"value": summary[key]["median"], "unit": unit}
                       for name, key, unit in (("run_s", "run_norm_s", "s"),
                                               ("setup_s", "setup_norm_s", "s"),
                                               ("peak_rss_mb", "peak_rss_mb", "MB"))}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
