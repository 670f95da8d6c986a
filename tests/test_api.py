import ast
from pathlib import Path

import twirltomo

SRC = Path(twirltomo.__file__).resolve().parent


def test_star_import_resolves_every_public_name():
    """Every name in twirltomo.__all__ exists, so a star import succeeds."""
    namespace = {}
    exec("from twirltomo import *", namespace)
    for name in twirltomo.__all__:
        assert hasattr(twirltomo, name), name
        assert name in namespace, name


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
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
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


def test_no_unread_private_definitions():
    """Every module-level private name of the package is read somewhere in
    it: as a name or an attribute in any module (a private helper that only
    tests read belongs in the tests)."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}:{line} {private}" for name, tree in trees.items()
              for private, line in _private_definitions(tree) if private not in read]
    assert not unread, unread
