"""Checker evaluation engine: streams GapWindows, tallies outcomes, emits reports.

`run_many` is the one entry point: it evaluates the named checkers over one
index range and returns their reports and a checkpoint.  Evaluation is
deterministic: the same (ids, range, opts) always produce byte-identical
serialized reports.  A checker sees only its windows: its evaluate(tri, st)
gets the window triple and the checker's own state, its finalize(st, extra)
that state and the report's extra dict, and its domain(tri) the triple
alone.  No callback reaches the store or the range.  A spec marked from_one
is decided only on a report that starts at n = 1: on a later start its
n_min for the run is n_hi + 1, so every window counts out of domain.  A run
names each checker at most once.
Every window of the range has both neighbours: the stream runs from the
window before n_lo (from n = 1 when n_lo is 1, where no window precedes) to
the one after n_hi, so the store must hold p_{n_hi+2}, or `windows` raises
CoverageError.  Long ranges can be split: the engine returns a JSON-able
checkpoint from which a later run continues, on the same or a larger sieve,
and the merged result equals a single uninterrupted run.  Nothing the run
does after it takes its checkpoint changes it, and a checkpoint passed in is
only read, so one checkpoint can be resumed from any number of times.  A
checkpoint resumes only under the version that wrote it, with the witness
cap it records, and when every field has the shape and the values this
version writes (`check_checkpoint`); anything else raises ValueError.

Per run, each spec's domain, evaluate, tally and n_min are bound once.  The
engine reads the stream in blocks of up to BLOCK windows and runs
checker-major: each checker evaluates the whole block in n order before the
next checker starts, so one checker's code runs many times in a row.  Each
checker's tally, state, witnesses and violations are still built in n
order, so the block size moves no byte of a report or a checkpoint.  The
windows of a block below a checker's n_min lead the block and count out of
domain untested.  On every later window a checker asks its own domain, so
its work and its report depend on no other checker of the run.
A checker that raises, in its domain or its evaluate, is isolated: its error
is noted, that window counts as undecided and every later one, in this block
and the next, as out of domain, so the report is UNDECIDED_PRESENT unless
its counts already fail it.
"""

from __future__ import annotations

from copy import deepcopy
from itertools import islice

from .. import __version__
from ..primes import PrimeStore
from ..window import windows
from .types import (HOLD, CheckReport, CheckerSpec, Counts, Kind, Outcome, Triple,
                    Verdict, registry)


SURVEY_CAP = 10000   # indices a SURVEY report lists before noting truncation
BLOCK = 32           # windows each checker evaluates in turn before the next checker
_CHECKPOINT_KEYS = {"n_lo", "next_n", "ids", "witness_cap", "tool_version", "per"}
_TALLY_LISTS = ("witnesses", "violations", "survey", "notes")
_TALLY_KEYS = {"counts", "state", "error", *_TALLY_LISTS}
_COUNT_KEYS = {"holds", "fails", "undecided", "out_of_domain"}


class RunOpts:
    witness_cap: int | None

    def __init__(self, witness_cap: int | None = 32):
        self.witness_cap = witness_cap


class _Tally:
    counts: Counts
    witnesses: list
    violations: list
    survey: list
    notes: list
    state: dict
    error: str | None

    def __init__(self, counts: Counts | None = None, witnesses: list | None = None,
                 violations: list | None = None, survey: list | None = None,
                 notes: list | None = None, state: dict | None = None,
                 error: str | None = None):
        self.counts = Counts() if counts is None else counts
        self.witnesses = [] if witnesses is None else witnesses
        self.violations = [] if violations is None else violations
        self.survey = [] if survey is None else survey
        self.notes = [] if notes is None else notes
        self.state = {} if state is None else state
        self.error = error

    def as_json(self) -> dict:
        # a snapshot that shares no object with the tally: a finalize error
        # is noted after the checkpoint is taken, on the report only, and
        # the report's lists and extra are the tally's own
        return {"counts": self.counts.as_dict(),
                "witnesses": [dict(entry) for entry in self.witnesses],
                "violations": list(self.violations), "survey": list(self.survey),
                "notes": list(self.notes), "state": deepcopy(self.state), "error": self.error}

    @classmethod
    def from_json(cls, d: dict) -> "_Tally":
        """The tally of a checkpoint that passed check_checkpoint, in lists
        and a state of its own, so the run leaves the checkpoint as it was."""
        return cls(Counts(**d["counts"]), *(list(d[k]) for k in _TALLY_LISTS),
                   deepcopy(d["state"]), d["error"])


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


def _error(tally: _Tally, w, exc: Exception):
    """Isolate a checker whose domain or evaluate raised on window w."""
    tally.error = f"checker error at n={w.n}: {exc!r}"
    tally.notes.append(tally.error)
    tally.counts.undecided += 1


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


def _assemble(spec: CheckerSpec, tally: _Tally, n_lo: int, n_hi: int) -> CheckReport:
    extra: dict = {}
    if spec.finalize is not None and tally.error is None:
        try:
            spec.finalize(tally.state, extra)
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            tally.error = f"finalize error: {exc!r}"
            tally.notes.append(tally.error)
    rep = CheckReport(
        checker_id=spec.id,
        n_lo=n_lo,
        n_hi=n_hi,
        counts=tally.counts,
        verdict=_verdict(spec, tally, n_lo, n_hi),
        conjecture=spec.conjecture,
        witnesses=tally.witnesses,
        violations=sorted(set(tally.violations)),
        survey=tally.survey,
        extra=extra,
        notes=tally.notes,
    )
    return rep


def check_checkpoint(cp) -> dict:
    """cp, if it has the shape and the values of a checkpoint this version
    wrote; otherwise ValueError naming the first field that does not.
    Callers read no field of a checkpoint before it passes."""
    if type(cp) is not dict:
        raise ValueError("checkpoint is not a JSON object")
    # another version may tally differently or write other keys
    if cp.get("tool_version") != __version__:
        raise ValueError(
            f"checkpoint was written by gapcheck "
            f"{cp.get('tool_version', 'of no recorded version')}, "
            f"this is gapcheck {__version__}; rerun the range from its start")
    if set(cp) != _CHECKPOINT_KEYS:
        raise ValueError("checkpoint does not match this run")
    for key in ("n_lo", "next_n"):
        if type(cp[key]) is not int:
            raise ValueError(f"checkpoint {key} is not an integer")
    if not 1 <= cp["n_lo"] < cp["next_n"]:
        raise ValueError("checkpoint n_lo is not in 1..next_n - 1")
    # each window of n_lo..next_n - 1 adds one to one count of every tally
    done = cp["next_n"] - cp["n_lo"]
    if cp["witness_cap"] is not None and type(cp["witness_cap"]) is not int:
        raise ValueError("checkpoint witness_cap is neither an integer nor null")
    ids = cp["ids"]
    if type(ids) is not list or any(type(cid) is not str for cid in ids):
        raise ValueError("checkpoint ids is not a list of checker ids")
    if type(cp["per"]) is not dict or set(cp["per"]) != set(ids):
        raise ValueError("checkpoint per does not hold one tally per id")
    for cid, t in cp["per"].items():
        if type(t) is not dict or set(t) != _TALLY_KEYS:
            raise ValueError(f"checkpoint per.{cid} is not a tally")
        c = t["counts"]
        if (type(c) is not dict or set(c) != _COUNT_KEYS
                or any(type(v) is not int for v in c.values())):
            raise ValueError(f"checkpoint per.{cid}.counts is not four integer counts")
        if any(v < 0 for v in c.values()) or sum(c.values()) != done:
            raise ValueError(f"checkpoint per.{cid}.counts are not {done} windows "
                             f"split four ways")
        for key in _TALLY_LISTS:
            if type(t[key]) is not list:
                raise ValueError(f"checkpoint per.{cid}.{key} is not a list")
        if type(t["state"]) is not dict:
            raise ValueError(f"checkpoint per.{cid}.state is not a JSON object")
        if t["error"] is not None and type(t["error"]) is not str:
            raise ValueError(f"checkpoint per.{cid}.error is neither a string nor null")
    return cp


def run_many(ids, store: PrimeStore, n_lo: int, n_hi: int,
             opts: RunOpts | None = None, resume: dict | None = None):
    """Evaluate several checkers in one pass over [n_lo, n_hi].

    Returns (reports: {id: CheckReport}, checkpoint: dict).  Passing a prior
    checkpoint as `resume` continues it; the final reports are identical to a
    single uninterrupted run over the union range.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, not n_lo={n_lo}, n_hi={n_hi}")
    if len(set(ids)) < len(ids):
        repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
        raise ValueError(f"checker id(s) given more than once: {','.join(repeated)}")
    opts = opts or RunOpts()
    reg = registry()
    specs = []
    for cid in ids:
        if cid not in reg:
            raise KeyError(f"unknown checker id: {cid}")
        specs.append(reg[cid])

    if resume is not None:
        check_checkpoint(resume)
        if sorted(resume["ids"]) != sorted(ids):
            raise ValueError("checkpoint does not match this run")
        if resume["next_n"] != n_lo:
            raise ValueError(
                f"checkpoint continues at n={resume['next_n']}, not {n_lo}")
        # the cap decided which witnesses the first part kept
        if resume["witness_cap"] != opts.witness_cap:
            raise ValueError(
                f"checkpoint was taken with witness cap "
                f"{_cap_text(resume['witness_cap'])}, this run has "
                f"{_cap_text(opts.witness_cap)}; resume with the same --witnesses")
        tallies = {cid: _Tally.from_json(resume["per"][cid]) for cid in ids}
        report_lo = resume["n_lo"]
    else:
        tallies = {cid: _Tally() for cid in ids}
        for cid in ids:
            spec = reg[cid]
            if spec.state_init is not None:
                tallies[cid].state = spec.state_init()
        report_lo = n_lo

    # stream the window before the range (none before n = 1) and the one after
    stream = windows(store, max(1, n_lo - 1), n_hi + 1)
    prev = next(stream) if n_lo > 1 else None
    cur = next(stream)

    # Per checker, bound once per run: (spec, tally, counts, state, domain,
    # evaluate, fast, n_min).  fast: a plain HOLD only needs its count
    # bumped.  n_min: the spec's, or past the range for a from_one spec on a
    # report that starts after n = 1.
    members = []
    for cid, spec in zip(ids, specs):
        n_min = n_hi + 1 if spec.from_one and report_lo > 1 else spec.n_min
        members.append((spec, tallies[cid], tallies[cid].counts, tallies[cid].state,
                        spec.domain, spec.evaluate, spec.kind is not Kind.SURVEY, n_min))
    cap = opts.witness_cap
    n0 = n_lo
    while n0 <= n_hi:
        # the block: windows n0 .. n0 + k - 1, one Triple each, in n order
        block = []
        for nxt in islice(stream, min(BLOCK, n_hi + 1 - n0)):
            block.append(Triple(prev, cur, nxt))
            prev, cur = cur, nxt
        k = len(block)
        for spec, tally, counts, state, domain, evaluate, fast, n_min in members:
            # windows below n_min lead the block
            lo = min(max(n_min - n0, 0), k)
            ood = lo
            holds = 0
            for i in range(lo, k):
                tri = block[i]
                if tally.error:
                    ood += k - i
                    break
                try:
                    if domain is not None and not domain(tri):
                        ood += 1
                        continue
                    out = evaluate(tri, state)
                    if out is HOLD and fast:
                        holds += 1
                    else:
                        _record(spec, tally, cap, tri.w, out)
                except Exception as exc:  # noqa: BLE001 - isolate failing checker
                    _error(tally, tri.w, exc)
            counts.holds += holds
            counts.out_of_domain += ood
        n0 += k

    checkpoint = {
        "n_lo": report_lo,
        "next_n": n_hi + 1,
        "ids": sorted(ids),
        "witness_cap": opts.witness_cap,
        "tool_version": __version__,
        "per": {cid: tallies[cid].as_json() for cid in ids},
    }
    reports = {cid: _assemble(reg[cid], tallies[cid], report_lo, n_hi) for cid in ids}
    return reports, checkpoint
