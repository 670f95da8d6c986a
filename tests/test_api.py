import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twirltomo

SRC = Path(twirltomo.__file__).resolve().parent


def test_star_import_resolves_every_public_name():
    """Every name in twirltomo.__all__ exists, so a star import succeeds,
    and is the object its home module defines under that name."""
    namespace = {}
    exec("from twirltomo import *", namespace)
    for name in twirltomo.__all__:
        assert hasattr(twirltomo, name), name
        assert name in namespace, name
        if name != "__version__":
            home = importlib.import_module(getattr(twirltomo, name).__module__)
            assert namespace[name] is getattr(home, name), name


def _loaded_after(code: str) -> list[str]:
    """The twirltomo modules that a fresh interpreter holds after ``code``."""
    script = (code + "\nimport sys\nprint(sorted(k for k in sys.modules"
              " if k.split('.')[0] == 'twirltomo'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_package_import_loads_no_submodule():
    """``import twirltomo`` loads no submodule; ``dir`` still lists every
    public name and an unknown attribute raises AttributeError."""
    loaded = _loaded_after(
        "import twirltomo\n"
        "assert set(twirltomo.__all__) <= set(dir(twirltomo))\n"
        "assert not hasattr(twirltomo, 'no_such_name')")
    assert loaded == ["twirltomo"]


def test_cli_import_loads_no_protocol():
    """``import twirltomo.cli`` leaves both protocol modules to the verbs."""
    loaded = _loaded_after("import twirltomo.cli")
    assert "twirltomo.seqpt" not in loaded and "twirltomo.localtwirl" not in loaded


@pytest.mark.parametrize("verb, runs, skips", [
    (["local-twirl"], "localtwirl", "seqpt"),
    (["seqpt", "blind"], "seqpt", "localtwirl"),
])
def test_cli_verb_loads_only_its_protocol(tmp_path, verb, runs, skips):
    """A CLI run loads the protocol module of its verb and not the other."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "cnot", "n": 2,
                                "build": [{"named_gate": "CNOT", "qubits": [1, 2]}]}))
    argv = [*verb, "--spec", str(spec), "--out", str(tmp_path / "out"), "--shots", "50"]
    loaded = _loaded_after(f"import twirltomo.cli\nassert twirltomo.cli.main({argv!r}) == 0")
    assert f"twirltomo.{runs}" in loaded and f"twirltomo.{skips}" not in loaded


def _unused_imports(path: Path) -> list[str]:
    """Names an import in ``path`` binds that the module never reads: not
    as a name, not in ``__all__``.  Imports whose lines carry
    ``# noqa: F401`` are kept on purpose and skipped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    """Every module of the package reads every name it imports."""
    unused = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_imports(path)]
    assert not unused, unused


_LAW_KERNELS = ("_transition_table", "_support_laws", "_fidelity_table")


def _stray_kernel_reads(path: Path) -> list[str]:
    """Reads of a law kernel in ``path``, as a name or an attribute, from
    anywhere but ``DenseBackend.laws`` or the kernel's own body."""
    stray = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            allowed = scope[:2] == ("DenseBackend", "laws") or scope[:1] == (name,)
            if name in _LAW_KERNELS and not allowed:
                stray.append(f"{path.name}:{child.lineno} {'.'.join(scope)} reads {name}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return stray


def test_law_kernels_are_read_only_by_laws():
    """Only ``DenseBackend.laws`` reads the three law kernels
    (``_transition_table``, ``_support_laws``, ``_fidelity_table``), so the
    rule that picks a law's source stays in one place; a kernel may call
    itself."""
    stray = [entry for path in sorted(SRC.glob("*.py")) for entry in _stray_kernel_reads(path)]
    assert not stray, stray


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level def, class or assignment whose
    name starts with one underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out
            if name.startswith("_") and not name.startswith("__")]


def _package_reads(trees) -> set[str]:
    """Every name the package reads, as a name or an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_unread_private_definitions():
    """Every module-level private name of the package is read somewhere in
    it: as a name or an attribute in any module (a private helper that only
    tests read belongs in the tests)."""
    trees = _package_trees()
    read = _package_reads(trees)
    unread = [f"{name}:{line} {private}" for name, tree in trees.items()
              for private, line in _private_definitions(tree) if private not in read]
    assert not unread, unread


def test_every_public_definition_is_reached():
    """Every module-level public def or class of the package, and every
    public method of a public class, is read by one of its modules,
    exported in ``twirltomo.__all__``, or wrapped by name by the benchmark
    tracer (``LAYERS`` of ``twirlbench/tracer.py``): a public name that only
    tests reach belongs in the tests.  Dunder methods are exempt."""
    from test_tracer_names import _layers
    trees = _package_trees()
    traced = {name for names in _layers().values() for name in names}
    reached = (_package_reads(trees) | set(twirltomo.__all__)
               | {name.split(".")[0] for name in traced})
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unreached = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*defs, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in reached:
                unreached.append(f"{name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                unreached += [f"{name}:{m.lineno} {node.name}.{m.name}" for m in node.body
                              if isinstance(m, defs) and not m.name.startswith("_")
                              and m.name not in reached
                              and f"{node.name}.{m.name}" not in traced]
    assert not unreached, unreached
