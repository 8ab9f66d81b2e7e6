"""Call-level tracing for the benchmark's traced run, installed from outside
the library.

Each traced function is replaced by a wrapper in every gapcheck namespace
that holds it: kernel names are bound by `from ..exact import ...` in the
catalog modules, the predicates and accum, so patching `gapcheck.exact` alone
would miss most calls.  Methods are patched on their class; checker
predicates are wrapped by replacing registry entries.

Hot calls are aggregated per key into (calls, total seconds, self seconds):
a call's self time is its duration minus the time of traced calls made
inside it, and total time counts only the outermost active call of a key, so
recursion is not counted twice.  Generators are timed per step.  Coarse calls
also become spans, kept in memory and returned with the sample.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from time import perf_counter

# (module, attribute, key): functions wrapped wherever they are bound
_FUNCTIONS = (
    ("gapcheck.exact", "_sign_1rad", "exact.sign_1rad"),
    ("gapcheck.exact", "_sign_2rad", "exact.sign_2rad"),
    ("gapcheck.exact", "exact_sign", "exact.exact_sign"),
    ("gapcheck.exact", "cmp_root", "exact.cmp_root"),
    ("gapcheck.exact", "floor_root", "exact.floor_root"),
    ("gapcheck.exact", "frac_root", "exact.frac_root"),
    ("gapcheck.exact", "eval_fixed", "exact.eval_fixed"),
    ("gapcheck.primes", "is_prime_u64", "primes.is_prime_u64"),
    ("gapcheck.checkers.engine", "run_many", "checkers.run_many"),
    ("gapcheck.intervals", "pow2_ladder", "intervals.pow2_ladder"),
    ("gapcheck.intervals", "brocard_reports", "intervals.brocard_reports"),
    ("gapcheck.twin", "ln_interval", "twin.ln_interval"),
    ("gapcheck.accum", "accum_scan", "accum.scan"),
    ("gapcheck.accum", "special_scans", "accum.scan"),
)
_GENERATORS = (
    ("gapcheck.window", "windows", "window.windows"),
    ("gapcheck.intervals", "square_reports", "intervals.square_reports"),
    ("gapcheck.intervals", "power_reports", "intervals.power_reports"),
    ("gapcheck.twin", "alpha_ledger", "twin.alpha_ledger"),
    ("gapcheck.twin", "same_floor_consecutive_twin_pairs", "twin.same_floor_pairs"),
)
_STORE_METHODS = (
    ("bulk_pi", "primes.bulk_pi"),
    ("pi", "primes.query"),
    ("is_prime", "primes.query"),
    ("nth_prime", "primes.query"),
    ("next_prime", "primes.query"),
    ("_segment", "primes.segment"),
)
_ROOTEXPR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "scale", "inverse")
_ROOTEXPR_CLASSMETHODS = ("of", "sqrt", "build")
_SPAN_KEYS = {"checkers.run_many", "primes.bulk_pi", "intervals.pow2_ladder",
              "intervals.brocard_reports", "accum.scan"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # key -> [calls, total_s, self_s, active]
        self.counters: dict[str, int] = {}
        self.first_s: dict[str, float] = {}   # generator key -> time to first item
        self.spans: list[dict] = []
        self.unwrapped: list[str] = []
        self.checker_module: dict[str, str] = {}
        self._stack: list[list] = []          # open calls: [start, time in traced callees]
        self._open_spans: list[int] = []

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, opening: bool) -> None:
        """Open or close a span; spans nest, each naming its parent."""
        if opening:
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append({"name": name, "parent": parent,
                               "start": perf_counter(), "end": None})
            self._open_spans.append(len(self.spans) - 1)
        else:
            self.spans[self._open_spans.pop()]["end"] = perf_counter()

    # -- wrappers ------------------------------------------------------------
    # The bookkeeping is inlined: these wrappers run ~10^5-10^7 times a sample.

    def wrap_function(self, key: str, fn, after=None):
        st, stack, clock = self._stat(key), self._stack, perf_counter
        span = self.span if key in _SPAN_KEYS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                span(key, True)
            frame = [clock(), 0.0]
            stack.append(frame)
            st[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                st[3] -= 1
                st[0] += 1
                if not st[3]:
                    st[1] += elapsed
                st[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span:
                    span(key, False)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, key: str, fn):
        """Times each step of the generator; `calls` counts generators made."""
        st, stack, clock = self._stat(key), self._stack, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            st[0] += 1
            n = 0
            try:
                while True:
                    frame = [clock(), 0.0]
                    stack.append(frame)
                    st[3] += 1
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - frame[0]
                        stack.pop()
                        st[3] -= 1
                        if not st[3]:
                            st[1] += elapsed
                        st[2] += elapsed - frame[1]
                        if stack:
                            stack[-1][1] += elapsed
                    if n == 0:
                        self.first_s[key] = self.first_s.get(key, 0.0) + elapsed
                    n += 1
                    yield item
            finally:
                self.bump(key + ".yielded", n)

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace `original` in every loaded gapcheck namespace."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gapcheck" or name.startswith("gapcheck.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        from gapcheck import checkers, exact, primes

        def ladder(args, kwargs, result):
            bits = kwargs.get("frac_bits", args[1] if len(args) > 1 else None)
            self.bump(f"exact.ladder.{bits}")

        def undecided(args, kwargs, result):
            if result is None or result is exact.Cmp.UNDECIDED:
                self.bump("exact.undecided")

        def prime_hits(args, kwargs, result):
            self.bump("primes.is_prime_u64.hits", bool(result))

        def bulk_points(args, kwargs, result):
            self.bump("primes.bulk_pi.points", len(result))

        def records(args, kwargs, result):
            self.bump("accum.records", len(result))

        after = {"exact.eval_fixed": ladder, "exact.cmp_root": undecided,
                 "exact.floor_root": undecided, "primes.is_prime_u64": prime_hits,
                 "accum.scan": records}
        for modname, attr, key in _FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.unwrapped.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self.wrap_function(key, fn, after.get(key)))
        for modname, attr, key in _GENERATORS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.unwrapped.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self.wrap_generator(key, fn))

        store_cls = primes.PrimeStore
        store_cls.iter_primes = self.wrap_generator("primes.iter_primes", store_cls.iter_primes)
        for attr, key in _STORE_METHODS:
            fn = getattr(store_cls, attr, None)
            if fn is None:
                self.unwrapped.append(f"PrimeStore.{attr}")
                continue
            setattr(store_cls, attr, self.wrap_function(
                key, fn, bulk_points if key == "primes.bulk_pi" else None))

        root = exact.RootExpr
        for attr in _ROOTEXPR_METHODS:
            fn = root.__dict__.get(attr)
            if fn is None:
                self.unwrapped.append(f"RootExpr.{attr}")
                continue
            setattr(root, attr, self.wrap_function("exact.rootexpr_ops", fn))
        for attr in _ROOTEXPR_CLASSMETHODS:
            cm = root.__dict__.get(attr)
            if not isinstance(cm, classmethod):
                self.unwrapped.append(f"RootExpr.{attr}")
                continue
            setattr(root, attr, classmethod(
                self.wrap_function("exact.rootexpr_ops", cm.__func__)))

        reg = checkers.registry()
        for cid, spec in list(reg.items()):
            self.checker_module[cid] = spec.evaluate.__module__.rsplit(".", 1)[-1]
            reg[cid] = dataclasses.replace(
                spec, evaluate=self.wrap_function(f"eval:{cid}", spec.evaluate))
        return self

    def snapshot(self) -> dict:
        return {"stats": {k: v[:3] for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "first_s": dict(self.first_s),
                "spans": list(self.spans),
                "checker_module": dict(self.checker_module),
                "unwrapped": list(self.unwrapped)}
