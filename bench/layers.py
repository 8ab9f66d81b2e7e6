"""Per-layer metrics of the traced run, and the cross-checks on its counts.

Layer names follow the modules: primes, window, exact, checkers, intervals,
twin, accum.  Times are medians over the traced samples; counts must agree
exactly between traced samples (a difference means a wrapper missed a
namespace or the work is not deterministic).  A layer a workload does not
call reads 0.
"""

from __future__ import annotations

import statistics

_EXACT = ("sign_1rad", "sign_2rad", "exact_sign", "cmp_root", "floor_root",
          "frac_root", "rootexpr_ops")
_CATALOGS = ("catalog_floor", "catalog_gaps", "catalog_parts", "catalog_twins")
_INTERVALS = ("square_reports", "power_reports", "pow2_ladder", "brocard_reports")

# name -> (unit, better)
METRICS: dict[str, tuple[str, str]] = {
    "primes.build_s": ("s", "lower"),
    "primes.iter_primes.calls": ("count", "lower"),
    "primes.iter_primes.yielded": ("count", "lower"),
    "primes.iter_primes.s": ("s", "lower"),
    "primes.iter_primes.ns_per_prime": ("ns", "lower"),
    "primes.bulk_pi.calls": ("count", "lower"),
    "primes.bulk_pi.points": ("count", "lower"),
    "primes.bulk_pi.s": ("s", "lower"),
    "primes.is_prime_u64.calls": ("count", "lower"),
    "primes.is_prime_u64.s": ("s", "lower"),
    "primes.is_prime_u64.hit_ratio": ("ratio", "higher"),
    "primes.query.calls": ("count", "lower"),
    "primes.query.s": ("s", "lower"),
    "primes.segment.calls": ("count", "lower"),
    "primes.segment.s": ("s", "lower"),
    "window.windows.yielded": ("count", "lower"),
    "window.windows.s": ("s", "lower"),
    "window.windows.first_s": ("s", "lower"),
    **{f"exact.{k}.{f}": (u, "lower") for k in _EXACT for f, u in (("calls", "count"), ("s", "s"))},
    "exact.ladder.64": ("count", "lower"),
    "exact.ladder.128": ("count", "lower"),
    "exact.ladder.256": ("count", "lower"),
    "exact.undecided": ("count", "lower"),
    "checkers.evaluate.calls": ("count", "lower"),
    "checkers.evaluate.s": ("s", "lower"),
    "checkers.evaluate.us_per_window": ("us", "lower"),
    **{f"checkers.{c}.s": ("s", "lower") for c in _CATALOGS},
    "checkers.engine.self_s": ("s", "lower"),
    "checkers.serialize_s": ("s", "lower"),
    **{f"intervals.{f}.self_s": ("s", "lower") for f in _INTERVALS},
    "twin.alpha_ledger.self_s": ("s", "lower"),
    "twin.ln_interval.calls": ("count", "lower"),
    "twin.ln_interval.s": ("s", "lower"),
    "twin.same_floor_pairs.self_s": ("s", "lower"),
    "accum.scan.self_s": ("s", "lower"),
    "accum.records": ("count", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
UNITS = {name: unit for name, (unit, _) in METRICS.items()}


def _sample_metrics(sample: dict) -> tuple[dict, dict]:
    """(layer metrics, per-checker us per window) of one traced sample."""
    tr = sample["trace"]
    stats, counters = tr["stats"], tr["counters"]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def total(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    def self_s(key):
        return stats.get(key, [0, 0.0, 0.0])[2]

    phases = sample["phases"]
    windows_evaluated = sample["info"].get("windows_evaluated", 0)
    m = {"primes.build_s": phases.get("build_store", 0.0)}
    yielded = counters.get("primes.iter_primes.yielded", 0)
    m.update({
        "primes.iter_primes.calls": calls("primes.iter_primes"),
        "primes.iter_primes.yielded": yielded,
        "primes.iter_primes.s": total("primes.iter_primes"),
        "primes.iter_primes.ns_per_prime":
            total("primes.iter_primes") / yielded * 1e9 if yielded else 0.0,
        "primes.bulk_pi.calls": calls("primes.bulk_pi"),
        "primes.bulk_pi.points": counters.get("primes.bulk_pi.points", 0),
        "primes.bulk_pi.s": total("primes.bulk_pi"),
    })
    tests = calls("primes.is_prime_u64")
    m.update({
        "primes.is_prime_u64.calls": tests,
        "primes.is_prime_u64.s": total("primes.is_prime_u64"),
        "primes.is_prime_u64.hit_ratio":
            counters.get("primes.is_prime_u64.hits", 0) / tests if tests else 0.0,
        "primes.query.calls": calls("primes.query"),
        "primes.query.s": total("primes.query"),
        "primes.segment.calls": calls("primes.segment"),
        "primes.segment.s": total("primes.segment"),
        "window.windows.yielded": counters.get("window.windows.yielded", 0),
        "window.windows.s": total("window.windows"),
        "window.windows.first_s": tr["first_s"].get("window.windows", 0.0),
    })
    for k in _EXACT:
        m[f"exact.{k}.calls"] = calls(f"exact.{k}")
        m[f"exact.{k}.s"] = total(f"exact.{k}")
    for bits in (64, 128, 256):
        m[f"exact.ladder.{bits}"] = counters.get(f"exact.ladder.{bits}", 0)
    m["exact.undecided"] = counters.get("exact.undecided", 0)

    per_checker = {}
    by_catalog = dict.fromkeys(_CATALOGS, 0.0)
    eval_calls = 0
    eval_s = 0.0
    for cid, module in tr["checker_module"].items():
        key = f"eval:{cid}"
        eval_calls += calls(key)
        eval_s += total(key)
        by_catalog[module] = by_catalog.get(module, 0.0) + total(key)
        if windows_evaluated:
            per_checker[cid] = total(key) / windows_evaluated * 1e6
    m.update({
        "checkers.evaluate.calls": eval_calls,
        "checkers.evaluate.s": eval_s,
        "checkers.evaluate.us_per_window":
            eval_s / windows_evaluated * 1e6 if windows_evaluated else 0.0,
    })
    for c in _CATALOGS:
        m[f"checkers.{c}.s"] = by_catalog[c]
    m["checkers.engine.self_s"] = self_s("checkers.run_many")
    m["checkers.serialize_s"] = phases.get("serialize", 0.0) + phases.get("checkpoint_json", 0.0)
    for f in _INTERVALS:
        m[f"intervals.{f}.self_s"] = self_s(f"intervals.{f}")
    m.update({
        "twin.alpha_ledger.self_s": self_s("twin.alpha_ledger"),
        "twin.ln_interval.calls": calls("twin.ln_interval"),
        "twin.ln_interval.s": total("twin.ln_interval"),
        "twin.same_floor_pairs.self_s": self_s("twin.same_floor_pairs"),
        "accum.scan.self_s": self_s("accum.scan"),
        "accum.records": counters.get("accum.records", 0),
        "trace.run_s": sample["run_s"],
    })
    return m, per_checker


def _counts(sample: dict) -> dict:
    tr = sample["trace"]
    out = {f"{k}.calls": v[0] for k, v in tr["stats"].items()}
    out.update(tr["counters"])
    return out


def _cross_checks(sample: dict, metrics: dict) -> list[str]:
    bad = []
    info = sample["info"]
    tallied = sum(c["holds"] + c["fails"] + c["undecided"]
                  for c in info.get("reports", {}).values())
    if metrics["checkers.evaluate.calls"] != tallied:
        bad.append(f"checkers.evaluate.calls {metrics['checkers.evaluate.calls']} != "
                   f"holds+fails+undecided {tallied}")
    want = info.get("streamed_windows", 0)
    if metrics["window.windows.yielded"] != want:
        bad.append(f"window.windows.yielded {metrics['window.windows.yielded']} != "
                   f"streamed range {want}")
    return bad


def report(traced: list[dict], untraced_run_s: float) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics, trace document, cross-check failures)."""
    per_sample = [_sample_metrics(s) for s in traced]
    mismatches = []
    for i, (s, (m, _)) in enumerate(zip(traced, per_sample)):
        mismatches += [f"sample {i}: {b}" for b in _cross_checks(s, m)]
    first = _counts(traced[0])
    for i, s in enumerate(traced[1:], 1):
        other = _counts(s)
        diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        if diff:
            mismatches.append(f"traced samples 0 and {i} differ in counts: {', '.join(diff[:8])}")

    metrics = {}
    for name in METRICS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m, _ in per_sample]
        metrics[name] = values[0] if METRICS[name][0] == "count" else statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_run_s
    checkers_us = {cid: statistics.median(pc[cid] for _, pc in per_sample)
                   for cid in per_sample[0][1]}
    doc = {"untraced_run_s": untraced_run_s,
           "unwrapped": traced[0]["trace"]["unwrapped"],
           "checker_us_per_window": dict(sorted(checkers_us.items(),
                                                key=lambda kv: -kv[1])),
           "samples": [{"layers": m, "spans": s["trace"]["spans"], "counts": _counts(s)}
                       for s, (m, _) in zip(traced, per_sample)]}
    return metrics, doc, mismatches
