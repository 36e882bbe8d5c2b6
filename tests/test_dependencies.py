"""numpy is the only run-time dependency: the package imports nothing else
outside the standard library and itself. The CLI writes files through one
text writer and one table writer, and records each run in one place."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qprank").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
CLI = next(path for path in SOURCES if path.name == "cli.py")


def nodes_outside(path: Path, functions: tuple[str, ...], match) -> list[str]:
    """Each node of the module at ``path`` that ``match`` accepts and that
    lies outside the functions named."""
    stray = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name in functions
        if not inside and match(node):
            stray.append(f"{node.lineno} {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return stray


def test_imports_are_stdlib_numpy_or_relative():
    assert SOURCES
    stray = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert not stray, f"imports outside the standard library and numpy: {stray}"


def test_cli_writes_files_only_through_its_writers():
    stray = nodes_outside(CLI, ("_write_text", "_write_table"), lambda node: (
        isinstance(node, ast.Name) and node.id in ("open", "csv")
        or isinstance(node, ast.Attribute) and node.attr == "write_text"
        or isinstance(node, ast.alias) and node.name == "csv"
        or isinstance(node, ast.ImportFrom) and node.module == "csv"))
    assert not stray, f"cli.py writes outside _write_text and _write_table: {stray}"


def test_cli_records_runs_only_in_main():
    # main writes each run's summary and config echo, after the subcommand returns
    stray = nodes_outside(CLI, ("main",), lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_echo_config"
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "_summary.json" in node.value))
    assert not stray, f"cli.py records a run outside main: {stray}"
