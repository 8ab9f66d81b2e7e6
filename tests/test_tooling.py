"""Static checks over the source tree, run with the tier-1 suite.

- The kernel's sign procedures take plain ints: no `_sign_1rad`/`_sign_2rad`
  call in src/gapcheck passes a Fraction built in its arguments.
- No module in src/ or tests/ imports a name it never uses (names listed in
  `__all__` and import lines marked `# noqa: F401` are exports or imported
  for their side effect).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGN_PROCEDURES = {"_sign_1rad", "_sign_2rad"}


def _modules(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _fraction_names(tree) -> set[str]:
    """Names bound to fractions.Fraction: its own name, `as` aliases and
    plain assignments such as `F = Fraction`."""
    names = {"Fraction"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names.update(a.asname or a.name for a in node.names if a.name == "Fraction")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_sign_procedures_get_no_fraction():
    bad = []
    for path, tree in _modules("src/gapcheck"):
        fraction = _fraction_names(tree)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and _called_name(call) in SIGN_PROCEDURES):
                continue
            args = (*call.args, *(k.value for k in call.keywords))
            if any(isinstance(n, ast.Call) and _called_name(n) in fraction
                   for arg in args for n in ast.walk(arg)):
                bad.append(f"{path.relative_to(ROOT)}:{call.lineno}")
    assert not bad, f"Fraction passed to a sign procedure at {bad}"


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
