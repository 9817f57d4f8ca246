"""Source hygiene: no module of the package or of the tests imports a name it
never uses (a re-export marked `# noqa: F401` on its import line is exempt),
the package imports nothing but numpy and the standard library, every default
is set somewhere, every public name has a caller, and every committed
benchmark record names what the benchmark measures."""

import ast
import json
import pathlib
import sys

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


# The code outside the package whose calls count as uses: the acceptance
# tests and the benchmark scripts.  A unit test exercises a name; it does not
# use it.
OUTSIDE = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def foreign_imports(path: pathlib.Path) -> list[str]:
    """'line module' for each import in path, at any depth, that is neither
    relative, nor numpy, nor of the standard library."""
    foreign = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                foreign.append(f"{node.lineno} {module}")
    return foreign


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_needs_only_numpy(path):
    """The package's one dependency is numpy; scipy and the rest serve the
    tests alone."""
    assert foreign_imports(path) == []


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
    that no call in the package or OUTSIDE passes."""
    trees = {path: _parse(path) for path in [*PACKAGE, *OUTSIDE]}
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
    """A default that no call overrides, or that only unit tests override, is
    a constant in disguise."""
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


def uncalled_public_names() -> list[str]:
    """'module.name' for each module-level public function or class of the
    package that no code of the package outside its own definition and no
    file of OUTSIDE reads."""
    read = set().union(*(_names_read(_parse(path)) for path in OUTSIDE))
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


def test_bench_records_name_benchmark_metrics():
    """Every committed BENCH_*.json parses, and names only workloads of
    BENCHMARK.json: its runs (the last line that perfbench/run.py prints)
    only end-to-end metrics, and its traced figures only per-layer ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert set(record["runs"]) <= workloads, path.name
        for runs in record["runs"].values():
            for run in runs.values():
                assert set(run["metrics"]) <= end_to_end, path.name
        assert set(record.get("traced", {})) <= workloads, path.name
        for figures in record.get("traced", {}).values():
            for metrics in figures.values():
                assert set(metrics) <= per_layer, path.name
