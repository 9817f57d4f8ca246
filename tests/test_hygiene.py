"""Source hygiene: no module of the package or of the tests imports a name it
never uses.  A re-export marked `# noqa: F401` on its import line is exempt."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    [*(ROOT / "src" / "harvest").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(path: pathlib.Path) -> list[str]:
    """'line name' for each name bound by an import in path and never read."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


PACKAGE = sorted((ROOT / "src" / "harvest").glob("*.py"))
CALLERS = sorted(
    [*PACKAGE, *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _defaulted(fn: ast.FunctionDef):
    """(position or None, name) of each parameter of fn that has a default;
    the position counts from the first argument a caller writes."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = [
        (i - first, a.arg)
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    ]
    out += [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return out


def _passed(calls) -> dict[str, tuple[int, set[str]]]:
    """Per called name: the most positional arguments any call passes (up to
    its first *args) and every keyword any call passes."""
    seen: dict[str, tuple[int, set[str]]] = {}
    for call in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name is None:
            continue
        n_pos = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                break
            n_pos += 1
        most, keywords = seen.get(name, (0, set()))
        seen[name] = (
            max(most, n_pos),
            keywords | {k.arg for k in call.keywords if k.arg is not None},
        )
    return seen


def unset_defaults() -> list[str]:
    """'function.parameter' for each defaulted parameter of a package function
    that no call in the package, the benchmark or the tests passes."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    passed = _passed(
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    )
    unset = []
    for path in PACKAGE:
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            most, keywords = passed.get(fn.name, (0, set()))
            for pos, name in _defaulted(fn):
                if name not in keywords and (pos is None or pos >= most):
                    unset.append(f"{fn.name}.{name}")
    return sorted(unset)


def test_every_default_is_set():
    """A default that no call overrides is a constant in disguise."""
    assert unset_defaults() == []


# Public names that wait for a caller, and why.
DEFERRED = {
    "energy_spd": "the 1-D energy lane of ROADMAP item 3",
    "effective_generalized_potential": "the 1-D energy lane of ROADMAP item 3",
    "simulate_trajectory": "the one-trajectory entry point that the README documents",
}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name that tree reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def uncalled_public_names() -> list[str]:
    """'module.name' for each module-level public function or class of the
    package that no code of the package outside its own definition, no
    acceptance test and no benchmark script reads."""
    outside = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(_names_read(_parse(path)) for path in outside))
    public, read_by = [], {}
    for path in PACKAGE:
        for node in _parse(path).body:
            owner = getattr(node, "name", None)
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not owner.startswith("_"):
                public.append((path.stem, owner))
            for name in _names_read(node):
                read_by.setdefault(name, set()).add(owner)
    return [
        f"{module}.{name}" for module, name in public
        if name not in read and not read_by.get(name, set()) - {name}
    ]


def test_every_public_name_has_a_caller():
    """A public function or class that only tests call is a wrapper to delete,
    and a deferred name that has gained a caller leaves DEFERRED."""
    uncalled = {name.split(".")[1]: name for name in uncalled_public_names()}
    assert [uncalled[n] for n in uncalled if n not in DEFERRED] == []
    assert sorted(set(DEFERRED) - set(uncalled)) == []
