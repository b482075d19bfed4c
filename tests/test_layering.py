"""Import layering of the klvq package, read from its sources with ast.

The modules form an acyclic import graph, every import sits at module
level, no import is hidden behind ``TYPE_CHECKING``, and only ``fileio``
imports ``csv`` or ``json``, so the file formats stay behind one module.
No module imports ``concurrent`` or ``multiprocessing``: a thread comes only
from ``threading``, which numpy already loads, so ``klvq`` adds nothing to
the CLI's start-up imports for it.
Besides the package itself, the modules import only the standard library
and numpy: numpy is the one dependency. Every file is opened with an
explicit encoding, so the locale never picks the codec. README.md names
every name the package exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "klvq"
README = PACKAGE.parent.parent / "README.md"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node):
    """Package modules named by one import statement (relative or absolute)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module:
            return [node.module.split(".")[0]]
        if node.level == 1:
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "klvq":
            rest = node.module.split(".")[1:]
            return rest[:1] if rest else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("klvq.")]
    return []


def import_graph():
    return {
        name: {dep for node in ast.walk(tree) for dep in imported_modules(node) if dep in MODULES}
        for name, tree in MODULES.items()
    }


def test_package_is_found():
    assert {"partition", "quantizer", "kmeans", "divergence", "cli"} <= MODULES.keys()


def test_import_graph_is_acyclic():
    graph = import_graph()
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                pytest.fail("import cycle: " + " -> ".join(path + [dep]))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    for function in ast.walk(MODULES[name]):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{name}.py:{node.lineno} imports inside {function.name}()"
                )


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_type_checking_only_package_import(name):
    for node in ast.walk(MODULES[name]):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for inner in ast.walk(node):
                assert not imported_modules(inner), (
                    f"{name}.py:{inner.lineno} imports a package module under TYPE_CHECKING"
                )


def absolute_imports(tree):
    """(line, top-level module names) of each absolute import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, {node.module.split(".")[0]}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_only_fileio_reads_file_formats(name):
    for lineno, found in absolute_imports(MODULES[name]):
        assert name == "fileio" or not found & {"csv", "json"}, f"{name}.py:{lineno} imports {found}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_threads_come_only_from_threading(name):
    for lineno, found in absolute_imports(MODULES[name]):
        assert not found & {"concurrent", "multiprocessing"}, f"{name}.py:{lineno} imports {found}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_imports_only_the_standard_library_numpy_and_the_package(name):
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy", "klvq"}
    for lineno, found in absolute_imports(MODULES[name]):
        assert found <= allowed, f"{name}.py:{lineno} imports {sorted(found - allowed)}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_file_is_opened_with_an_encoding(name):
    for node in ast.walk(MODULES[name]):
        if isinstance(node, ast.Call):
            called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if called in {"open", "read_text", "write_text"}:
                keywords = {keyword.arg for keyword in node.keywords}
                assert "encoding" in keywords, f"{name}.py:{node.lineno} calls {called}() without encoding="


def test_readme_names_every_exported_name():
    (exports,) = (
        ast.literal_eval(node.value)
        for node in MODULES["__init__"].body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
    )
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    # The identifier a backticked span starts with: `fit`, `fit(dataset, config)`, ...
    named = {match.group(1) for match in re.finditer(r"`([A-Za-z_]\w*)[^`]*`", text)}
    missing = sorted(set(exports) - named)
    assert not missing, f"README.md does not name {missing} in backticks"
