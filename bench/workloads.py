"""The benchmark's workloads: fixed sizes, the inputs a seed picks, and the
library calls one sample makes.

Each workload mirrors a CLI command family.  A sample calls the same public
functions the command calls, serializes every result with the library's own
writer (or, where the library has none, with sorted-key JSON of the result's
fields), and hashes what it wrote.  One hashed unit is a *block*; the ops of a
block are its reports, table rows, ledger rows or accum records.

This module imports nothing from gapcheck: the sample process times that
import as part of set-up, so the library arrives as the `gc` namespace.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from math import gcd, isqrt
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# -- fixed sizes -------------------------------------------------------------------

VERIFY_N_HI = 600            # verify-all: every checker over n = 1..600
TABLES_LIMIT = 20_000_000    # tables: 10 sieve segments, more than the 8 the LRU holds
BAND_WIDTH = 12              # square_reports rows per sample
# Every start puts the band's squares 40-51% into the same 2^21-integer sieve
# segment, near the top of the store.  square_reports scans each window's
# segment from its start, so this keeps the cost equal across seeds.
BAND_STARTS = range(4440, 4455)
POWER_KS = (3, 5)            # one explicit subinterval scheme, one equal-step scheme
POW2_K_MAX = 24
BROCARD_N_HI = 300
LEDGER_N_HI = 8000
ACCUM_N_MAX = 20_000
# one numerator per denominator is seed-picked; equal denominators keep the
# number of candidates each scan tests the same across seeds
ACCUM_DENOMINATORS = (3, 5, 7, 11)
FAMILY_N_MAX = 10_000
FAMILIES = ("h_fixed", "near_half_minus", "near_half_plus", "top_family")

WORKLOADS = ("verify-all", "tables", "ledger-accum")


def import_library(src: Path) -> SimpleNamespace:
    """Import gapcheck from `src` the way the CLI loads it (every layer)."""
    sys.path.insert(0, str(src))
    import gapcheck.cli
    if not Path(gapcheck.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"gapcheck imported from {gapcheck.__file__}, not {src}")
    return SimpleNamespace(cli=gapcheck.cli, checkers=gapcheck.checkers,
                           intervals=gapcheck.intervals, twin=gapcheck.twin,
                           accum=gapcheck.accum, primes=gapcheck.primes)


class HashSink:
    """A file-like object that hashes what a writer writes, keeping nothing."""

    def __init__(self):
        self._h = hashlib.sha256()

    def write(self, text: str) -> int:
        self._h.update(text.encode())
        return len(text)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class Block:
    name: str
    digest: str
    ops: int
    claim_fail: int = 0          # ops whose claim flag or verdict is false
    error: str | None = None     # the block raised or failed a cross-check

    def as_dict(self) -> dict:
        return asdict(self)


def _json_rows(rows, sink) -> None:
    for row in rows:
        sink.write(json.dumps(asdict(row), sort_keys=True, separators=(",", ":")))
        sink.write("\n")


class Phases:
    """Durations of the named steps of one sample; `on_span` sees each step
    as it opens and closes (the traced run records spans through it)."""

    def __init__(self, on_span=None):
        self.durations: dict[str, float] = {}
        self._on_span = on_span

    def run(self, name: str, fn, *args, **kwargs):
        if self._on_span is not None:
            self._on_span(name, True)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.durations[name] = self.durations.get(name, 0.0) + perf_counter() - t0
            if self._on_span is not None:
                self._on_span(name, False)


def _guarded(blocks: list, name: str, phases: Phases, phase: str, fn, *args) -> None:
    """Run one block's job as a phase; an exception becomes a failed block
    (the runner counts it with the golden op count) instead of a crash."""
    try:
        blocks.append(phases.run(phase, fn, *args))
    except Exception as exc:  # noqa: BLE001 - counted as failed ops
        blocks.append(Block(name, "", 0, error=repr(exc)))


# -- seed-picked inputs ----------------------------------------------------------


def verify_split(seed: int) -> int:
    """Resume split point: the first run covers 1..split."""
    return random.Random(seed).randint(1, VERIFY_N_HI - 1)


def band_start(seed: int) -> int:
    return random.Random(seed).choice(BAND_STARTS)


def accum_targets(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.choice([a for a in range(1, b) if gcd(a, b) == 1]), b)
            for b in ACCUM_DENOMINATORS]


def all_accum_targets() -> list[tuple[int, int]]:
    return [(a, b) for b in ACCUM_DENOMINATORS for a in range(1, b) if gcd(a, b) == 1]


def band_name(n_lo: int) -> str:
    return f"squares[{n_lo}..{n_lo + BAND_WIDTH - 1}]"


def accum_name(a: int, b: int, sign: str) -> str:
    return f"accum[{a}/{b},{sign}]"


def seeded_names(workload: str, seed: int) -> list[str]:
    """Names of the blocks whose input the seed picks."""
    if workload == "tables":
        return [band_name(band_start(seed))]
    if workload == "ledger-accum":
        return [accum_name(a, b, sign) for a, b in accum_targets(seed) for sign in "+-"]
    return []


# -- store sizes -------------------------------------------------------------------


def store_limit(gc, workload: str) -> int:
    if workload == "verify-all":   # as cmd_verify sizes it
        return max(gc.cli.limit_for_index(VERIFY_N_HI), 10 ** 7)
    if workload == "tables":
        return TABLES_LIMIT
    return max(gc.cli.limit_for_index(LEDGER_N_HI), 10 ** 6)   # as cmd_twins


# -- verify-all ----------------------------------------------------------------------


def verify_blocks(gc, store, split: int, phases: Phases, info: dict) -> list[Block]:
    """All checkers over 1..VERIFY_N_HI as a run plus a resume from `split`,
    the checkpoint passing through JSON as it does through a manifest."""
    ids = sorted(gc.checkers.registry())
    opts = gc.checkers.RunOpts()
    _, ckpt = phases.run("run_many.first", gc.checkers.run_many, ids, store, 1, split, opts)
    ckpt = phases.run("checkpoint_json", lambda: json.loads(json.dumps(ckpt)))
    reports, _ = phases.run("run_many.resume", gc.checkers.run_many, ids, store,
                            split + 1, VERIFY_N_HI, opts, resume=ckpt)

    def serialize():
        bad = {gc.checkers.Verdict.FAIL, gc.checkers.Verdict.UNDECIDED_PRESENT}
        out = []
        for cid in sorted(reports):
            rep = reports[cid]
            text = rep.to_json()
            out.append(Block(f"report[{cid}]", hashlib.sha256(text.encode()).hexdigest(),
                             1, int(rep.verdict in bad)))
        return out

    blocks = phases.run("serialize", serialize)
    info["reports"] = {cid: reports[cid].counts.as_dict() for cid in reports}
    # windows the engine streams: one before each range (from n = 2) and one after
    info["streamed_windows"] = (split + 1) + (VERIFY_N_HI + 2 - split)
    info["windows_evaluated"] = VERIFY_N_HI
    info["verify_digest"] = hashlib.sha256(
        "".join(b.digest for b in blocks).encode()).hexdigest()
    return blocks


# -- tables ----------------------------------------------------------------------


def square_block(gc, store, n_lo: int, n_hi: int, info: dict) -> Block:
    iv = gc.intervals
    rows = list(iv.square_reports(store, n_lo, n_hi, keep_primes=False))
    sink = HashSink()
    iv.write_square_csv(rows, sink)
    bad = sum(not (r.legendre and r.two_primes and r.oppermann_lo and r.oppermann_hi
                   and r.cumulative and r.half_claims_ok and r.first_prime_floor_D_even)
              for r in rows)
    info["band"] = (n_lo, n_hi, sum(r.prime_count for r in rows))
    return Block(band_name(n_lo), sink.hexdigest(), len(rows), bad)


def _power_block(gc, store, k: int) -> Block:
    n_hi = _iroot(store.limit, k) - 1       # (n_hi + 1)^k stays within the store
    sink = HashSink()
    bad = 0
    rows = 0
    for rep in gc.intervals.power_reports(store, k, 1, n_hi, budget=store.limit):
        sink.write(rep.to_json() + "\n")
        rows += 1
        ok = rep.total_ok and rep.cumulative_ok and not rep.budget_hit
        if rep.subintervals_claimed:
            ok = ok and rep.per_interval_ok
        bad += not ok
    return Block(f"powers[k={k}]", sink.hexdigest(), rows, bad)


def _pow2_block(gc, store) -> Block:
    rows = gc.intervals.pow2_ladder(store, POW2_K_MAX)
    sink = HashSink()
    _json_rows(rows, sink)
    bad = sum(not (r.increment_ok and r.lower_bound_ok and r.identity_ok) for r in rows)
    return Block(f"pow2[{POW2_K_MAX}]", sink.hexdigest(), len(rows), bad)


def _brocard_block(gc, store) -> Block:
    rows = gc.intervals.brocard_reports(store, 1, BROCARD_N_HI)
    sink = HashSink()
    _json_rows(rows, sink)
    return Block(f"brocard[1..{BROCARD_N_HI}]", sink.hexdigest(), len(rows),
                 sum(not r.ok for r in rows))


def _twin_pairs_block(gc, store) -> Block:
    sink = HashSink()
    rows = bad = 0
    for p, p2, N in gc.twin.same_floor_consecutive_twin_pairs(store, store.limit):
        sink.write(f"{p},{p2},{N}\n")
        rows += 1
        bad += not (isqrt(p) == isqrt(p2) == N and 31 * p > 25 * p2)
    return Block(f"twin_pairs[{store.limit}]", sink.hexdigest(), rows, bad)


def _iroot(x: int, k: int) -> int:
    r = int(round(x ** (1.0 / k)))
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def tables_blocks(gc, store, n_lo: int, phases: Phases, info: dict) -> list[Block]:
    blocks: list[Block] = []
    _guarded(blocks, band_name(n_lo), phases, "square_reports",
             square_block, gc, store, n_lo, n_lo + BAND_WIDTH - 1, info)
    for k in POWER_KS:
        _guarded(blocks, f"powers[k={k}]", phases, f"power_reports.k{k}",
                 _power_block, gc, store, k)
    _guarded(blocks, f"pow2[{POW2_K_MAX}]", phases, "pow2_ladder", _pow2_block, gc, store)
    _guarded(blocks, f"brocard[1..{BROCARD_N_HI}]", phases, "brocard_reports",
             _brocard_block, gc, store)
    _guarded(blocks, f"twin_pairs[{store.limit}]", phases, "twin_pairs",
             _twin_pairs_block, gc, store)
    return blocks


def check_band(store, info: dict, blocks: list[Block]) -> None:
    """Check the band's summed prime counts against pi at its ends (squares
    are not prime, so the windows tile the open interval exactly); a
    mismatch fails the band's block."""
    if "band" not in info:
        return
    n_lo, n_hi, total = info["band"]
    want = store.pi((n_hi + 1) ** 2) - store.pi(n_lo * n_lo)
    if total != want:
        for block in blocks:
            if block.name == band_name(n_lo):
                block.error = f"rows sum to {total} primes, pi says {want}"


# -- ledger-accum ------------------------------------------------------------------


def _ledger_block(gc, store) -> Block:
    rows = list(gc.twin.alpha_ledger(store, LEDGER_N_HI))
    sink = HashSink()
    gc.twin.write_ledger_csv(rows, sink)
    bad = sum(not (r.identity_ok and r.sandwich_ok
                   and (r.n < 5 or r.q92_holds)
                   and (r.n < 6 or (r.dusart_holds and r.abstract_holds)))
              for r in rows)
    return Block(f"ledger[1..{LEDGER_N_HI}]", sink.hexdigest(), len(rows), bad)


def _accum_block(gc, name: str, records) -> Block:
    sink = HashSink()
    gc.accum.write_accum_csv(records, sink)
    return Block(name, sink.hexdigest(), len(records), sum(not r.ok for r in records))


def accum_scan_block(gc, a: int, b: int, sign: str) -> Block:
    records = gc.accum.accum_scan(gc.accum.RationalTarget(a, b), sign, N_max=ACCUM_N_MAX)
    return _accum_block(gc, accum_name(a, b, sign), records)


def family_block(gc, kind: str) -> Block:
    return _accum_block(gc, f"family[{kind}]",
                        gc.accum.special_scans(kind, N_max=FAMILY_N_MAX))


def ledger_accum_blocks(gc, store, targets, phases: Phases, info: dict) -> list[Block]:
    blocks: list[Block] = []
    _guarded(blocks, f"ledger[1..{LEDGER_N_HI}]", phases, "alpha_ledger",
             _ledger_block, gc, store)
    info["streamed_windows"] = LEDGER_N_HI
    for a, b in targets:
        for sign in "+-":
            _guarded(blocks, accum_name(a, b, sign), phases, "accum_scan",
                     accum_scan_block, gc, a, b, sign)
    for kind in FAMILIES:
        _guarded(blocks, f"family[{kind}]", phases, "special_scans", family_block, gc, kind)
    return blocks


def run(gc, workload: str, store, seed: int, phases: Phases, info: dict) -> list[Block]:
    """One sample's work on a ready store; returns its hashed blocks."""
    if workload == "verify-all":
        split = verify_split(seed)
        info["split"] = split
        try:
            return verify_blocks(gc, store, split, phases, info)
        except Exception as exc:  # noqa: BLE001 - every report counts as failed
            return [Block(f"report[{cid}]", "", 1, error=repr(exc))
                    for cid in sorted(gc.checkers.registry())]
    if workload == "tables":
        return tables_blocks(gc, store, band_start(seed), phases, info)
    return ledger_accum_blocks(gc, store, accum_targets(seed), phases, info)
