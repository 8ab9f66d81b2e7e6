"""Claim catalog and evaluation engine.

Importing this package registers every cataloged checker; `catalog()` lists
them, `run_many` evaluates any of them over an index range.
"""

from . import catalog_gaps, catalog_floor, catalog_parts, catalog_twins  # noqa: F401
from .engine import RunOpts, check_checkpoint, run_many
from .types import (CheckReport, CheckerSpec, Counts, Kind, Outcome, Triple,
                    Verdict, registry)


def catalog() -> list[CheckerSpec]:
    """The full checker catalog, sorted by id; stable across runs."""
    return [registry()[k] for k in sorted(registry())]


__all__ = [
    "CheckReport", "CheckerSpec", "Counts", "Kind", "Outcome", "RunOpts",
    "Triple", "Verdict", "catalog", "check_checkpoint", "registry", "run_many",
]
