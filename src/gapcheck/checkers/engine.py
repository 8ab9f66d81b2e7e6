"""Checker evaluation engine: streams GapWindows, tallies outcomes, emits reports.

Evaluation is deterministic: the same (ids, range, opts) always produce
byte-identical serialized reports on any store that holds the window after
the range (p_{n_hi+2}); on a store whose last window is n_hi, checkers that
need the next window count that one out of domain.  Long ranges can be split:
the engine returns a JSON-able checkpoint from which a later run continues,
on the same or a larger sieve, and the merged result equals a single
uninterrupted run.  A checkpoint records the witness cap and the tool
version; resuming under another cap or from another version raises
ValueError.

Per run, each spec's evaluate, domain and tally are bound once.  A spec's
static filters (n_min, needs_prev, needs_next) are tested only on edge
windows: those below the largest n_min of the run, or missing their
predecessor or successor.  Elsewhere none of them can exclude a window, so
only `domain` is called; out_of_domain counts are as if every filter were
tested on every window.  A checker that raises is isolated: its error is
noted, that window counts as undecided and every later one as out of domain,
so the report is UNDECIDED_PRESENT unless its counts already fail it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import __version__
from ..primes import PrimeStore
from ..window import windows
from .types import (HOLD, CheckReport, CheckerSpec, Counts, Kind, Outcome, Triple,
                    Verdict, registry)


SURVEY_CAP = 10000   # indices a SURVEY report lists before noting truncation


@dataclass
class RunOpts:
    witness_cap: int | None = 32


@dataclass
class EvalContext:
    store: PrimeStore
    opts: RunOpts
    n_lo: int
    n_hi: int


@dataclass
class _Tally:
    counts: Counts = field(default_factory=Counts)
    witnesses: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    survey: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    state: dict = field(default_factory=dict)
    error: str | None = None

    def as_json(self) -> dict:
        return {"counts": self.counts.as_dict(), "witnesses": self.witnesses,
                "violations": self.violations, "survey": self.survey,
                "notes": self.notes, "state": self.state, "error": self.error}

    @classmethod
    def from_json(cls, d: dict) -> "_Tally":
        t = cls()
        c = d["counts"]
        t.counts = Counts(c["holds"], c["fails"], c["undecided"], c["out_of_domain"])
        t.witnesses = list(d["witnesses"])
        t.violations = list(d["violations"])
        t.survey = list(d["survey"])
        t.notes = list(d["notes"])
        t.state = dict(d["state"])
        t.error = d.get("error")
        return t


def _cap_text(cap) -> str:
    return "unlimited" if cap is None else str(cap)


def _witness(tally: _Tally, cap, w, note):
    if cap is None or len(tally.witnesses) < cap:
        entry = w.snapshot()
        if note:
            entry["note"] = note
        tally.witnesses.append(entry)


def _record(spec: CheckerSpec, tally: _Tally, cap, w, out: Outcome):
    """Tally one outcome; run_many counts a plain HOLD from a non-SURVEY
    checker itself, without calling this."""
    if out.res == "hold":
        tally.counts.holds += 1
        if spec.kind is Kind.SURVEY:
            if len(tally.survey) < SURVEY_CAP:
                tally.survey.append(w.n)
            else:
                if "survey truncated" not in tally.notes:
                    tally.notes.append("survey truncated")
            _witness(tally, cap, w, out.note)
    elif out.res == "miss":
        tally.counts.fails += 1
    elif out.res == "violate":
        tally.counts.fails += 1
        tally.violations.append(w.n)
        _witness(tally, cap, w, out.note)
    elif out.res == "hard":
        tally.counts.fails += 1
        tally.notes.append(f"hard violation at n={w.n}: {out.note}")
        _witness(tally, cap, w, out.note)
        tally.error = tally.error or f"hard violation at n={w.n}"
    else:  # pragma: no cover
        raise ValueError(f"bad outcome {out!r} from {spec.id}")


def _verdict(spec: CheckerSpec, tally: _Tally, n_lo: int, n_hi: int) -> Verdict:
    c = tally.counts
    # a hard violation or a finalize error fails the report; a checker that
    # raised counted its window undecided and is judged on its counts
    if tally.error and not c.undecided:
        return Verdict.FAIL
    if spec.kind is Kind.EXCEPTION_SET:
        expected = {e for e in spec.expected_exceptions if n_lo <= e <= n_hi}
        got = set(tally.violations)
        if got - expected:
            return Verdict.FAIL
        if c.undecided:
            return Verdict.UNDECIDED_PRESENT
        if got != expected:
            return Verdict.FAIL  # an expected exception failed to materialize
        return Verdict.EXCEPTIONS_CONFIRMED
    if spec.kind in (Kind.UNIVERSAL, Kind.EQUIVALENCE):
        if c.fails:
            return Verdict.FAIL
        if c.undecided:
            return Verdict.UNDECIDED_PRESENT
        return Verdict.PASS
    if c.undecided:
        return Verdict.UNDECIDED_PRESENT
    return Verdict.SURVEY_RESULT if spec.kind is Kind.SURVEY else Verdict.TREND_RESULT


def _assemble(spec: CheckerSpec, tally: _Tally, ctx: EvalContext) -> CheckReport:
    extra: dict = {}
    if spec.finalize is not None and tally.error is None:
        try:
            spec.finalize(ctx, tally.state, extra)
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            tally.error = f"finalize error: {exc!r}"
            tally.notes.append(tally.error)
    rep = CheckReport(
        checker_id=spec.id,
        n_lo=ctx.n_lo,
        n_hi=ctx.n_hi,
        counts=tally.counts,
        verdict=_verdict(spec, tally, ctx.n_lo, ctx.n_hi),
        conjecture=spec.conjecture,
        witnesses=tally.witnesses,
        violations=sorted(set(tally.violations)),
        survey=tally.survey,
        extra=extra,
        notes=tally.notes,
    )
    return rep


def run_many(ids, store: PrimeStore, n_lo: int, n_hi: int,
             opts: RunOpts | None = None, resume: dict | None = None):
    """Evaluate several checkers in one pass over [n_lo, n_hi].

    Returns (reports: {id: CheckReport}, checkpoint: dict).  Passing a prior
    checkpoint as `resume` continues it; the final reports are identical to a
    single uninterrupted run over the union range.
    """
    opts = opts or RunOpts()
    reg = registry()
    specs = []
    for cid in ids:
        if cid not in reg:
            raise KeyError(f"unknown checker id: {cid}")
        specs.append(reg[cid])

    if resume is not None:
        if sorted(resume["ids"]) != sorted(ids):
            raise ValueError("checkpoint does not match this run")
        if "sieve_edge" not in resume:
            # older checkpoints record only their limit, not whether they
            # stopped at the sieve's edge: resume them on the same sieve
            if resume.get("store_limit") != store.limit:
                raise ValueError("checkpoint does not match this run")
        elif resume["sieve_edge"]:
            raise ValueError("checkpoint was taken at the end of its sieve; "
                             "rerun it with a larger limit to resume")
        if resume["next_n"] != n_lo:
            raise ValueError(
                f"checkpoint continues at n={resume['next_n']}, not {n_lo}")
        # the cap decides which witnesses the first part kept; a checkpoint
        # written before the cap was recorded resumes as it always did
        if "witness_cap" in resume and resume["witness_cap"] != opts.witness_cap:
            raise ValueError(
                f"checkpoint was taken with witness cap "
                f"{_cap_text(resume['witness_cap'])}, this run has "
                f"{_cap_text(opts.witness_cap)}; resume with the same --witnesses")
        # another version may tally differently; a checkpoint written before
        # the version was recorded resumes as it always did
        if "tool_version" in resume and resume["tool_version"] != __version__:
            raise ValueError(
                f"checkpoint was written by gapcheck {resume['tool_version']}, "
                f"this is gapcheck {__version__}; rerun the range from its start")
        tallies = {cid: _Tally.from_json(resume["per"][cid]) for cid in ids}
        report_lo = resume["n_lo"]
    else:
        tallies = {cid: _Tally() for cid in ids}
        for cid in ids:
            spec = reg[cid]
            if spec.state_init is not None:
                tallies[cid].state = spec.state_init()
        report_lo = n_lo

    ctx = EvalContext(store=store, opts=opts, n_lo=report_lo, n_hi=n_hi)

    # stream one window before and after the range when available
    start = max(1, n_lo - 1)
    want_end = n_hi + 1
    end = want_end if want_end + 1 <= store.prime_count else n_hi
    stream = windows(store, start, end)
    prev = None
    cur = next(stream)
    if cur.n < n_lo:
        prev, cur = cur, next(stream)
    nxt = next(stream, None)

    # Per checker, bound once per run: (spec, tally, counts, state, evaluate,
    # domain, fast).  fast: a plain HOLD only needs its count bumped.
    live = [(spec, tallies[cid], tallies[cid].counts, tallies[cid].state,
             spec.evaluate, spec.domain, spec.kind is not Kind.SURVEY)
            for cid, spec in zip(ids, specs)]
    # n_min, needs_prev and needs_next can only exclude an edge window: one
    # below the largest n_min, or one missing its predecessor or successor
    n_edge = max((spec.n_min for spec in specs), default=1)
    cap = opts.witness_cap
    while True:
        tri = Triple(prev, cur, nxt)
        edge = cur.n < n_edge or prev is None or nxt is None
        for spec, tally, counts, state, evaluate, domain, fast in live:
            if tally.error:
                counts.out_of_domain += 1
                continue
            try:
                if ((edge and (cur.n < spec.n_min
                               or (spec.needs_prev and prev is None)
                               or (spec.needs_next and nxt is None)))
                        or (domain is not None and not domain(ctx, tri))):
                    counts.out_of_domain += 1
                    continue
                out = evaluate(ctx, tri, state)
                if out is HOLD and fast:
                    counts.holds += 1
                else:
                    _record(spec, tally, cap, cur, out)
            except Exception as exc:  # noqa: BLE001 - isolate failing checker
                tally.error = f"checker error at n={cur.n}: {exc!r}"
                tally.notes.append(tally.error)
                counts.undecided += 1
        if cur.n >= n_hi or nxt is None:
            break
        prev, cur, nxt = cur, nxt, next(stream, None)

    checkpoint = {
        "n_lo": report_lo,
        "next_n": cur.n + 1,
        # the last window had no successor in the sieve, so needs_next
        # checkers skipped it; a continuation would not equal a single run
        "sieve_edge": nxt is None,
        "ids": sorted(ids),
        "witness_cap": opts.witness_cap,
        "tool_version": __version__,
        "per": {cid: tallies[cid].as_json() for cid in ids},
    }
    reports = {cid: _assemble(reg[cid], tallies[cid], ctx) for cid in ids}
    return reports, checkpoint


def run_checker(checker_id: str, store: PrimeStore, n_lo: int, n_hi: int,
                opts: RunOpts | None = None, resume: dict | None = None) -> CheckReport:
    reports, _ = run_many([checker_id], store, n_lo, n_hi, opts, resume)
    return reports[checker_id]


def run_all(store: PrimeStore, n_lo: int, n_hi: int,
            opts: RunOpts | None = None) -> list[CheckReport]:
    """Run the whole catalog over the range; reports sorted by checker id."""
    ids = sorted(registry())
    reports, _ = run_many(ids, store, n_lo, n_hi, opts)
    return [reports[cid] for cid in ids]
