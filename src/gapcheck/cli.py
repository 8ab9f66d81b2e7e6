"""Command-line frontend: catalog listing, checker runs with resumable
manifests, window dumps, and the square/power/twin/accumulation tables.

Exit codes: 0 all green, 1 an unexpected FAIL, 2 any UNDECIDED_PRESENT,
3 usage error.  All report bodies are deterministic; wall-clock data lives
only in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import __version__
from .accum import accum_scan, parse_target, special_scans, write_accum_csv
from .checkers import RunOpts, Verdict, catalog, check_checkpoint, registry, run_many
from .intervals import pow2_ladder, power_reports, square_reports, write_square_csv
from .primes import build_store
from .twin import alpha_ledger, write_ledger_csv
from .window import dump_windows_csv

EXIT_OK, EXIT_FAIL, EXIT_UNDECIDED, EXIT_USAGE = 0, 1, 2, 3
POWERS_BUDGET = 10 ** 8     # `powers`: the sieve cap and the (n+1)^k budget
POWERS_POW2_K_MAX = 20      # `powers`: the ladder's top power of two


def limit_for_index(n: int) -> int:
    """A sieve limit comfortably covering p_{n+2} (sizing only; all
    verification arithmetic downstream is exact)."""
    if n < 6:
        return 1000
    if n > 10 ** 15:
        # far past the sieve budget, where float(n) can overflow: an integer
        # bound, as p_m < m (ln m + ln ln m) < m log2(m) for every m >= 6
        return (n + 2) * (n + 2).bit_length()
    x = float(n + 2)
    est = x * (math.log(x) + math.log(math.log(x)))
    return max(10 ** 4, int(est * 1.2))


def _exit_code(reports) -> int:
    verdicts = {r.verdict for r in reports}
    if Verdict.FAIL in verdicts:
        return EXIT_FAIL
    if Verdict.UNDECIDED_PRESENT in verdicts:
        return EXIT_UNDECIDED
    return EXIT_OK


def _report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def cmd_list(args) -> int:
    for spec in catalog():
        print(f"{spec.id:28s} {spec.kind.value:14s} [{spec.source}] {spec.title}")
    return EXIT_OK


def _emit_reports(reports, fmt):
    if fmt == "json":
        for r in reports:
            print(r.to_json())
    elif fmt == "csv":
        print("id,verdict,holds,fails,undecided,out_of_domain,detail")
        for r in reports:
            detail = ""
            if r.violations:
                detail = "violations:" + ";".join(map(str, r.violations[:64]))
            elif r.survey:
                detail = "survey:" + ";".join(map(str, r.survey[:64]))
            c = r.counts
            print(f"{r.checker_id},{r.verdict.value},{c.holds},{c.fails},"
                  f"{c.undecided},{c.out_of_domain},{detail}")
    else:
        for r in reports:
            c = r.counts
            extra = ""
            if r.violations:
                extra = f" violations={r.violations[:16]}"
            elif r.survey:
                extra = f" survey={r.survey[:16]}"
            flag = " (conjecture)" if r.conjecture else ""
            print(f"{r.checker_id:28s} {r.verdict.value:22s} holds={c.holds} "
                  f"fails={c.fails} undecided={c.undecided} "
                  f"ood={c.out_of_domain}{extra}{flag}")


def cmd_verify(args) -> int:
    t0 = time.time()
    if args.witnesses < 0:
        print(f"--witnesses must be 0 (unlimited) or a positive cap, "
              f"not {args.witnesses}", file=sys.stderr)
        return EXIT_USAGE
    resume = None
    if args.resume:
        for given, option in ((args.checker, "--checker"), (args.n_lo, "--n-lo")):
            if given is not None:
                print(f"{option} does not apply to --resume: the checkpoint "
                      f"fixes the checkers and the start", file=sys.stderr)
                return EXIT_USAGE
        with open(args.resume) as fh:
            manifest = json.load(fh)
        resume = check_checkpoint(manifest.get("checkpoint")
                                  if type(manifest) is dict else manifest)
        ids = resume["ids"]
        n_lo = resume["next_n"]
        if args.n_hi is None or args.n_hi < n_lo:
            print("--n-hi must extend a resumed range", file=sys.stderr)
            return EXIT_USAGE
    else:
        if args.checker in (None, "all"):
            ids = sorted(registry())
        else:
            ids = args.checker.split(",")
            if "" in ids:
                print(f"empty checker id in --checker {args.checker!r}", file=sys.stderr)
                return EXIT_USAGE
            unknown = [c for c in ids if c not in registry()]
            if unknown:
                print(f"unknown checker id(s): {','.join(unknown)}", file=sys.stderr)
                return EXIT_USAGE
        n_lo = 1 if args.n_lo is None else args.n_lo
    n_hi = args.n_hi if args.n_hi is not None else 1000
    store = build_store(limit_for_index(n_hi))
    opts = RunOpts(witness_cap=None if args.witnesses == 0 else args.witnesses)
    reports, checkpoint = run_many(ids, store, n_lo, n_hi, opts, resume=resume)

    ordered = [reports[cid] for cid in sorted(reports)]
    _emit_reports(ordered, args.format)

    if args.manifest_out:
        manifest = {
            "tool_version": __version__,
            "command": " ".join(args.argv),
            "store_limit": store.limit,
            "range": [checkpoint["n_lo"], n_hi],
            "checkers": sorted(reports),
            "digests": {cid: _report_digest(reports[cid]) for cid in reports},
            "wall_time_s": round(time.time() - t0, 3),
            "checkpoint": checkpoint,
        }
        with open(args.manifest_out, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
    return _exit_code(ordered)


def cmd_squares(args) -> int:
    store = build_store((args.n_hi + 1) ** 2 + 10)
    ok = True
    reports = []
    for rep in square_reports(store, args.n_lo, args.n_hi, keep_primes=False):
        reports.append(rep)
        ok = ok and rep.legendre and rep.two_primes and rep.oppermann_lo \
            and rep.oppermann_hi and rep.cumulative and rep.half_claims_ok \
            and rep.first_prime_floor_D_even
    write_square_csv(reports, sys.stdout)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_powers(args) -> int:
    # the rows need (n_hi + 1)^k and the ladder 2^20, within the budget.  At
    # n_hi >= 1 every exponent past the budget's bit length overshoots it, so
    # a huge --k costs no huge power; power_reports refuses n_hi < 1 and k < 2
    top = (max(args.n_hi, 1) + 1) ** min(args.k, POWERS_BUDGET.bit_length())
    store = build_store(min(POWERS_BUDGET, max(2 ** POWERS_POW2_K_MAX, top)))
    ok = all(row.increment_ok and row.lower_bound_ok and row.identity_ok
             for row in pow2_ladder(store, POWERS_POW2_K_MAX))
    for rep in power_reports(store, args.k, 1, args.n_hi, budget=POWERS_BUDGET):
        print(rep.to_json())
        if not rep.budget_hit:
            ok = ok and rep.total_ok and rep.cumulative_ok
            if rep.subintervals_claimed:
                ok = ok and rep.per_interval_ok
    return EXIT_OK if ok else EXIT_FAIL


def cmd_twins(args) -> int:
    store = build_store(limit_for_index(args.n_hi))
    rows = list(alpha_ledger(store, args.n_hi))
    write_ledger_csv(rows, sys.stdout)
    ok = all(r.identity_ok and r.sandwich_ok for r in rows)
    ok = ok and all(r.q92_holds for r in rows if r.n >= 5)
    ok = ok and all(r.dusart_holds for r in rows if r.n >= 6)
    ok = ok and all(r.abstract_holds for r in rows if r.n >= 6)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_accum(args) -> int:
    if args.h is not None and args.family != "h_fixed":
        raise ValueError("--h applies only to --family h_fixed")
    if args.family:
        for given, option in ((args.r, "--r"), (args.sign, "--sign"), (args.c, "--c")):
            if given is not None:
                raise ValueError(f"{option} does not apply to --family")
        h = 1 if args.h is None else args.h
        records = special_scans(args.family, N_max=args.n_max, h=h)
    else:
        target = parse_target("1/3" if args.r is None else args.r)
        records = accum_scan(target, args.sign or "+",
                             c=1 if args.c is None else args.c, N_max=args.n_max)
    write_accum_csv(records, sys.stdout)
    return EXIT_OK if all(r.ok for r in records) else EXIT_FAIL


def cmd_windows(args) -> int:
    store = build_store(limit_for_index(args.n_hi))
    dump_windows_csv(store, args.n_lo, args.n_hi, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapcheck",
        description="Exact verification of finitely checkable prime-gap claims.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the checker catalog").set_defaults(fn=cmd_list)

    v = sub.add_parser("verify", help="run checkers over an index range")
    v.add_argument("--checker", default=None,
                   help="checker id, comma list, or 'all' (default: all; "
                        "not with --resume)")
    v.add_argument("--n-lo", type=int, default=None,
                   help="first index (default: 1; not with --resume)")
    v.add_argument("--n-hi", type=int, default=None)
    v.add_argument("--format", choices=("table", "json", "csv"), default="table")
    v.add_argument("--witnesses", type=int, default=32,
                   help="witness cap per report (0 = unlimited)")
    v.add_argument("--resume", default=None, help="manifest to continue")
    v.add_argument("--manifest-out", default=None, help="write a run manifest")
    v.set_defaults(fn=cmd_verify)

    q = sub.add_parser("squares", help="square-window counts and claims")
    q.add_argument("--n-lo", type=int, default=2)
    q.add_argument("--n-hi", type=int, required=True)
    q.set_defaults(fn=cmd_squares)

    p = sub.add_parser("powers", help="k-th power window counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.set_defaults(fn=cmd_powers)

    t = sub.add_parser("twins", help="twin-count ledger and question surveys")
    t.add_argument("--n-hi", type=int, required=True)
    t.set_defaults(fn=cmd_twins)

    a = sub.add_parser("accum", help="accumulation-point scans")
    a.add_argument("--r", default=None,
                   help="rational target a/b (default: 1/3; not with --family)")
    a.add_argument("--sign", choices=("+", "-"), default=None,
                   help="sign before c (default: +; not with --family)")
    a.add_argument("--c", type=int, default=None,
                   help="constant c (default: 1; not with --family)")
    a.add_argument("--n-max", type=int, default=10 ** 4)
    a.add_argument("--family",
                   choices=("h_fixed", "near_half_minus", "near_half_plus",
                            "top_family"), default=None)
    a.add_argument("--h", type=int, default=None,
                   help="h of --family h_fixed (default 1)")
    a.set_defaults(fn=cmd_accum)

    wsub = sub.add_parser("windows", help="dump per-index window integers as CSV")
    wsub.add_argument("--n-lo", type=int, default=1)
    wsub.add_argument("--n-hi", type=int, required=True)
    wsub.set_defaults(fn=cmd_windows)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; this tool reserves 2 for Undecided
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    args.argv = argv   # the manifest records the command as parsed
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
