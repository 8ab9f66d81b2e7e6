"""Static checks over the source tree, run with the tier-1 suite.

- Every decision takes plain ints: no module under src/gapcheck imports
  `fractions`.
- The CSV writers format their own lines: no module under src/gapcheck
  imports `csv`.
- No module in src/ or tests/ imports a name it never uses (names listed in
  `__all__` and import lines marked `# noqa: F401` are exports or imported
  for their side effect).
- Every `GapWindow` view is read under src/gapcheck: by code outside the
  views, or by a view that is itself read.
- Every function, method, class and class attribute defined under
  src/gapcheck is read there outside its own definition (a load or a
  keyword argument; a store or an `__all__` entry is not a read; a class
  member is read only as an attribute or a keyword, resolved to its class
  where the reader names it), but for four named survivors that only the
  benchmark and the tests reach.
- Every `CheckerSpec` field is loaded as an attribute under src/gapcheck:
  a field the catalog only passes as a keyword is not read by the program.
- The only dataclasses under src/gapcheck are the three records whose
  dataclass API code outside src/ uses: each one `dataclasses` builds costs
  every command's import.
- Checkers that share a domain share one domain function: a domain
  written twice is duplicate code that can drift apart.
- A checker that reads a window's predecessor starts at n_min >= 2: the
  window at n = 1 is the only one without a predecessor.
- Checkers see only their windows: no module under src/gapcheck/checkers
  but engine.py imports gapcheck.primes, and every registered evaluate
  takes (tri, st), every finalize (st, extra) and every domain (tri).
- The package's `__version__` is pyproject.toml's version.
- No module under src/gapcheck reads `PrimeStore.prime_count`, which counts
  the whole store: the store counts only as far as a query reads.
"""

import ast
import inspect
import re
from pathlib import Path

from oracles import reads

ROOT = Path(__file__).resolve().parent.parent


def _modules(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _src_imports_of(top: str) -> list[str]:
    """path:line of every import of the module top under src/gapcheck."""
    bad = []
    for path, tree in _modules("src/gapcheck"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in modules):
                bad.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return bad


def test_src_imports_no_fractions():
    bad = _src_imports_of("fractions")
    assert not bad, f"fractions imported at {bad}"


def test_src_imports_no_csv():
    bad = _src_imports_of("csv")
    assert not bad, f"csv imported at {bad}"


def _attribute_loads(node, attr: str, fn=None):
    """(innermost enclosing function name or None, receiver source) of every
    load of `.attr` under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr == attr
                and isinstance(child.ctx, ast.Load)):
            yield fn, ast.unparse(child.value)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        yield from _attribute_loads(child, attr, inner)


def test_src_never_counts_the_whole_store():
    """PrimeStore counts its segments only as far as a query reads, and its
    prime_count counts them all, so only tests may read it.  The one
    `.prime_count` read under src/gapcheck is write_square_csv's, of the
    SquareWindowReport field of that name; any other read fails here."""
    found = [(path.name, *load) for path, tree in _modules("src/gapcheck")
             for load in _attribute_loads(tree, "prime_count")]
    assert found == [("intervals.py", "write_square_csv", "rep")]


def _imported(tree, lines) -> dict[str, int]:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for a in node.names:
            if a.name != "*":
                out[a.asname or a.name.split(".")[0]] = node.lineno
    return out


def _used(tree) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    bad = []
    for path, tree in _modules("src", "tests"):
        lines = path.read_text().splitlines()
        used = _used(tree)
        bad += [f"{path.relative_to(ROOT)}:{line} {name}"
                for name, line in _imported(tree, lines).items() if name not in used]
    assert not bad, f"unused imports: {bad}"


def test_every_window_view_has_a_reader():
    """A view is live when code outside the views reads its name as an
    attribute, or a live view does; every view must be live, so a view left
    without a reader is deleted with its last reader."""
    bodies, outside = {}, set()
    for path, tree in _modules("src/gapcheck"):
        inside = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "GapWindow":
                for fn in cls.body:
                    if (isinstance(fn, ast.FunctionDef) and any(
                            isinstance(d, ast.Name) and d.id == "_view"
                            for d in fn.decorator_list)):
                        bodies[fn.name] = {n.attr for n in ast.walk(fn)
                                           if isinstance(n, ast.Attribute)}
                        inside.update(id(n) for n in ast.walk(fn))
        outside.update(n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute) and id(n) not in inside)
    assert len(bodies) > 10
    live = set(bodies) & outside
    grown = True
    while grown:
        reached = set().union(*(bodies[v] for v in live)) & set(bodies)
        grown = not reached <= live
        live |= reached
    assert sorted(set(bodies) - live) == []


# Definitions that nothing under src/gapcheck references, with the reason each
# stays.  They go with the benchmark change that reads the library's own
# counters (ROADMAP item 2).
_SURVIVORS = {
    "intervals.brocard_reports":
        "the benchmark's tables workload and acceptance criterion 04 call it",
    "twin.same_floor_consecutive_twin_pairs":
        "the benchmark's tables workload and acceptance criterion 07 call it",
    "exact.Cmp.UNDECIDED": "bench/tracer.py reads it",
    "intervals.SquareWindowReport.primes":
        "only tests read it; it goes with square_reports' keep_primes, which the "
        "benchmark's tables workload passes",
}


def _definitions(node, prefix, owner=None):
    """(qualified name, name, owning class or None, node) of every function
    and class under node, at any depth, and of every name a class body
    assigns; the owner is the class whose body defines the name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name, owner, child
            if isinstance(child, ast.ClassDef):
                for stmt in child.body:
                    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                    for t in targets:
                        if isinstance(t, ast.Name):
                            yield f"{prefix}{child.name}.{t.id}", t.id, child.name, stmt
            inner = child.name if isinstance(child, ast.ClassDef) else None
            yield from _definitions(child, f"{prefix}{child.name}.", inner)
        else:
            yield from _definitions(child, prefix, owner)


def _reads(node, members: dict, cls=None):
    """(node, name, class or None) for every load of a name or an attribute
    and every keyword argument under node.  An attribute read off self or
    cls in a method of a class C, or off C's name, and a keyword passed in
    a call of C's name, resolve to C where C defines the name; any other
    read leaves the class open (None)."""
    for child in ast.iter_child_nodes(node):
        base = None
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child, child.id, None
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            if isinstance(child.value, ast.Name):
                base = cls if child.value.id in ("self", "cls") else child.value.id
            yield child, child.attr, base if child.attr in members.get(base, ()) else None
        elif isinstance(child, ast.keyword) and child.arg:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                base = node.func.id
            yield child, child.arg, base if child.arg in members.get(base, ()) else None
        yield from _reads(child, members, child.name if isinstance(child, ast.ClassDef) else cls)


def _registered(fn) -> bool:
    """fn is decorated with @checker(...), which registers it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "checker"
               for d in getattr(fn, "decorator_list", ()))


def test_every_definition_has_a_reader():
    """A module-level definition is read when code under src/gapcheck
    outside it loads its name, as a name or an attribute, or passes it as a
    keyword argument, or when @checker registers it.  A class's method or
    attribute is read only through an attribute load or a keyword (a
    CheckerSpec field the catalog sets): an attribute of self or cls in a
    class's own methods or of the class's name, and a keyword in a call of
    the class's name, count for that class alone, so a field is not kept
    alive by another class's field or by a local of the same name.  A store is not a read: a field that code only
    assigns has no reader, and neither does a name that a module only lists
    in `__all__`.  Dunder names are read by Python itself.  Every other
    definition must be read, but for the named survivors, and each survivor
    must still be unread."""
    modules = list(_modules("src/gapcheck"))
    defs = []
    for path, tree in modules:
        parts = path.relative_to(ROOT / "src/gapcheck").with_suffix("").parts
        prefix = ".".join(p for p in parts if p != "__init__")
        defs += _definitions(tree, prefix + "." if prefix else "")
    members: dict[str, set] = {}
    for _, name, owner, _ in defs:
        if owner is not None:
            members.setdefault(owner, set()).add(name)
    readers: dict[str, list] = {}
    for path, tree in modules:
        for n, name, cls in _reads(tree, members):
            readers.setdefault(name, []).append((n, cls))
    assert len(defs) > 300
    unread = []
    for qualname, name, owner, node in defs:
        if name.startswith("__") and name.endswith("__") or _registered(node):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(id(n) not in inside and (owner is None or
                                            not isinstance(n, ast.Name) and cls in (None, owner))
                   for n, cls in readers.get(name, ())):
            unread.append(qualname)
    assert sorted(unread) == sorted(_SURVIVORS)


def test_every_checker_spec_field_is_loaded():
    """A CheckerSpec field lives only if code under src/gapcheck loads it
    as an attribute: the catalog's keyword arguments set a field, and a
    field that only they and the tests touch decides nothing."""
    from dataclasses import fields

    from gapcheck.checkers import CheckerSpec

    loaded = {n.attr for _, tree in _modules("src/gapcheck") for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    names = {f.name for f in fields(CheckerSpec)}
    assert len(names) >= 10
    assert sorted(names - loaded) == []


# The only dataclasses under src/gapcheck: each class `dataclasses` builds
# costs the import about 0.5 ms of generated source and exec, so a record is
# a plain class unless code outside src/ uses the dataclass API on it.
_DATACLASSES = {
    "CheckerSpec",  # tests and bench/tracer.py call dataclasses.replace, tests fields
    "BrocardRow",   # bench/workloads.py hashes asdict(row)
    "Pow2Row",      # bench/workloads.py hashes asdict(row)
}


def _decorator_name(d) -> str:
    if isinstance(d, ast.Call):
        d = d.func
    return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")


def test_only_the_named_records_are_dataclasses():
    """Every @dataclass class under src/gapcheck is one of _DATACLASSES,
    and each of them still is one."""
    found = {node.name for _, tree in _modules("src/gapcheck") for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)}
    assert found == _DATACLASSES


def test_equal_domains_are_one_function():
    """No two registered domains with the same code (co_code, co_consts,
    co_names) are different function objects: each domain is written once,
    so two checkers on the same windows cannot drift apart."""
    from gapcheck.checkers import registry

    seen = {}
    for cid, spec in sorted(registry().items()):
        fn = spec.domain
        if fn is None:
            continue
        code = fn.__code__
        first_id, first_fn = seen.setdefault(
            (code.co_code, code.co_consts, code.co_names), (cid, fn))
        assert first_fn is fn, f"{first_id} and {cid} hold equal domains apart"
    assert len(seen) >= 10


def test_readers_of_prev_start_at_two():
    """Every window the engine evaluates has both neighbours except the
    one at n = 1, which has no predecessor; a checker whose evaluate or
    domain reads tri.prev must exclude it by n_min."""
    from gapcheck.checkers import registry

    readers = {cid: spec.n_min for cid, spec in registry().items() if reads(spec, "prev")}
    assert len(readers) >= 4
    assert {cid: n for cid, n in readers.items() if n < 2} == {}


def _absolute_imports(path, tree) -> list[tuple[int, str]]:
    """(line, dotted module) of every module an import under src/ names,
    relative imports resolved against path; `from m import x` names both m
    and m.x, since x may be a submodule."""
    package = path.relative_to(ROOT / "src").parent.parts
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            out.append((node.lineno, module))
            out += [(node.lineno, f"{module}.{a.name}") for a in node.names]
    return out


def test_checkers_see_only_their_windows():
    """A checker decides from its window triple and its own state: the
    catalogs never reach the prime store, and the engine hands each
    callback only what its protocol names."""
    from gapcheck.checkers import registry

    bad = []
    for path, tree in _modules("src/gapcheck/checkers"):
        if path.name == "engine.py":
            continue
        bad += [f"{path.relative_to(ROOT)}:{line}" for line, module in
                _absolute_imports(path, tree)
                if module == "gapcheck.primes" or module.startswith("gapcheck.primes.")]
    assert not bad, f"gapcheck.primes imported at {bad}"
    # the resolution above does see the engine's import of the store
    engine = ROOT / "src/gapcheck/checkers/engine.py"
    assert any(module.startswith("gapcheck.primes") for _, module in
               _absolute_imports(engine, ast.parse(engine.read_text())))

    def params(fn):
        return list(inspect.signature(fn).parameters)

    specs = registry().values()
    assert len(specs) == 109
    for spec in specs:
        assert params(spec.evaluate) == ["tri", "st"], spec.id
        if spec.finalize is not None:
            assert params(spec.finalize) == ["st", "extra"], spec.id
        if spec.domain is not None:
            assert params(spec.domain) == ["tri"], spec.id
    assert sum(spec.finalize is not None for spec in specs) == 6


def test_version_matches_pyproject():
    """Checkpoints resume only under the version that wrote them, so the
    package and its metadata must name the same one."""
    from gapcheck import __version__

    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__
