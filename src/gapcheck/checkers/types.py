"""Declarative checker specifications and evaluated reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from ..window import GapWindow


class Kind(Enum):
    UNIVERSAL = "UNIVERSAL"
    EXCEPTION_SET = "EXCEPTION_SET"
    EQUIVALENCE = "EQUIVALENCE"
    SURVEY = "SURVEY"
    TREND = "TREND"


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    EXCEPTIONS_CONFIRMED = "EXCEPTIONS_CONFIRMED"
    SURVEY_RESULT = "SURVEY_RESULT"
    TREND_RESULT = "TREND_RESULT"
    UNDECIDED_PRESENT = "UNDECIDED_PRESENT"


class Outcome(NamedTuple):
    """Result of evaluating one index.

    res: 'hold'      - predicate satisfied (for SURVEY: index collected when
                       the collection predicate holds, see Kind docs)
         'miss'      - SURVEY only: evaluated, not collected
         'violate'   - predicate failed; compared against expected exceptions
         'hard'      - a companion clause that tolerates no exceptions failed
    """

    res: str
    note: Optional[str] = None


HOLD = Outcome("hold")
MISS = Outcome("miss")


def violate(note: str | None = None) -> Outcome:
    return Outcome("violate", note)


def hard_fail(note: str | None = None) -> Outcome:
    return Outcome("hard", note)


class Triple(NamedTuple):
    prev: Optional[GapWindow]   # None only at n = 1
    w: GapWindow
    nxt: GapWindow


@dataclass(frozen=True)
class CheckerSpec:
    """One cataloged claim: domain, predicate, kind, expectations."""

    id: str
    kind: Kind
    title: str                    # what is being asserted, in formula form
    source: str                   # statement locus in the source text
    evaluate: Callable            # (triple, state) -> Outcome
    n_min: int = 1
    domain: Optional[Callable] = None   # (triple) -> bool, beyond n_min
    from_one: bool = False        # decided only on a report that starts at n = 1
    expected_exceptions: frozenset = frozenset()
    conjecture: bool = False
    state_init: Optional[Callable] = None   # () -> JSON-able dict
    finalize: Optional[Callable] = None     # (state, report_extra) -> None

    def __post_init__(self):
        if self.kind is not Kind.EXCEPTION_SET and self.expected_exceptions:
            raise ValueError(f"{self.id}: expected_exceptions on non-EXCEPTION_SET")


@dataclass
class Counts:
    holds: int = 0
    fails: int = 0
    undecided: int = 0
    out_of_domain: int = 0

    def as_dict(self) -> dict:
        return {"holds": self.holds, "fails": self.fails,
                "undecided": self.undecided, "out_of_domain": self.out_of_domain}


@dataclass
class CheckReport:
    """Evaluated outcome of one checker over one index range."""

    checker_id: str
    n_lo: int
    n_hi: int
    counts: Counts
    verdict: Verdict
    conjecture: bool = False
    witnesses: list = field(default_factory=list)   # [{'n','p','q','d','note'}]
    violations: list = field(default_factory=list)  # indices (EXCEPTION_SET/EQUIVALENCE)
    survey: list = field(default_factory=list)      # indices collected (SURVEY)
    extra: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "id": self.checker_id,
            "range": [self.n_lo, self.n_hi],
            "counts": self.counts.as_dict(),
            "verdict": self.verdict.value,
            "conjecture": self.conjecture,
            "witnesses": self.witnesses,
        }
        if self.violations:
            out["violations"] = self.violations
        if self.survey:
            out["survey"] = self.survey
        if self.extra:
            out["extra"] = self.extra
        if self.notes:
            out["notes"] = self.notes
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


_REGISTRY: dict[str, CheckerSpec] = {}


def checker(id: str, kind: Kind, title: str, source: str, **kw):
    """Decorator registering an evaluate function as a CheckerSpec."""

    def wrap(fn):
        if id in _REGISTRY:
            raise ValueError(f"duplicate checker id {id}")
        _REGISTRY[id] = CheckerSpec(id=id, kind=kind, title=title, source=source,
                                    evaluate=fn, **kw)
        return fn

    return wrap


def registry() -> dict[str, CheckerSpec]:
    return _REGISTRY
