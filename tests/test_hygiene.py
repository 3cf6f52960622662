"""Source hygiene: no module under src/ imports a name it never uses, opens
a file for writing outside vocalkit.artifacts or starts processes outside
vocalkit.workers, and every name a demo imports from vocalkit exists."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vocalkit"
MODULES = sorted(SRC.rglob("*.py"))
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each top-level or nested import -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        # quoted annotations such as -> "AudioClip"
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    if path.name == "__init__.py":
        used |= _exported_names(tree)  # package re-exports
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.relative_to(SRC)}: unused imports {unused}"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """Checked without running the demos, which take seconds each."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vocalkit":
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)
            ]
    assert not missing, f"{path.name}: unresolved imports {missing}"



def _write_opens(tree: ast.Module) -> list:
    """(line, mode) of each open(...) call whose literal mode writes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            found += [
                (node.lineno, m.value) for m in modes
                if isinstance(m, ast.Constant) and set(m.value) & set("wax")
            ]
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p != SRC / "artifacts.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_only_artifacts_opens_files_for_writing(path):
    """Every file vocalkit writes goes through vocalkit.artifacts, which
    makes it land whole."""
    writes = _write_opens(ast.parse(path.read_text(), filename=str(path)))
    assert not writes, f"{path.relative_to(SRC)}: opens files for writing at {writes}"


def _pool_uses(tree: ast.Module) -> list:
    """Line of each import of multiprocessing or of a process pool, and of
    each use of ``ProcessPoolExecutor``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                node.lineno for a in node.names
                if a.name.split(".")[0] == "multiprocessing"
                or a.name == "concurrent.futures.process"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing" or module == "concurrent.futures.process":
                found.append(node.lineno)
            found += [node.lineno for a in node.names if a.name == "ProcessPoolExecutor"]
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p != SRC / "workers.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_only_workers_starts_processes(path):
    """Every parallel stage maps its tasks over vocalkit.workers' one fork
    pool."""
    uses = _pool_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.relative_to(SRC)}: imports or starts a process pool at lines {uses}"


def test_the_pool_check_sees_the_pool():
    assert _pool_uses(ast.parse((SRC / "workers.py").read_text()))
