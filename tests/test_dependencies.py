"""numpy is the only run-time dependency: the package imports nothing else
outside the standard library and itself. The CLI writes files through one
text writer and one table writer, and records each run in one place. Every
definition in the package is used by the package, a method name shared by
several classes is listed, since uses are matched by name, and every
record field is read there: reference code that only tests call lives in
tests/. Importing the CLI loads no module that only some runs need."""

import ast
import os
import subprocess
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
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("_summary.json" in node.value or "_run_config.json" in node.value)))
    assert not stray, f"cli.py records a run outside main: {stray}"


# Definitions that nothing in src/ names, and why they stay.
UNUSED_ALLOWED = {
    "cli.entry": "the console script in pyproject.toml",
    "cli._Parser.error": "argparse calls it on a parse error",
    "walk.SzegedyWalk.norm_sq": "criterion 2 checks the conserved norm with it, and the "
                                "norm-drift report of ROADMAP item 3 will call it",
    "graphs.DirectedGraph.edges": "the rank check of bench/checks.py reads it",
}


def test_every_definition_is_used_elsewhere_in_src():
    # a use is one outside the definition's own body: of a method, an
    # attribute of its name; of a module-level definition, also a name or an
    # import alias. __init__.py's re-exports do not count
    definitions = {}  # qualified name -> (name, node, whether it is a method)
    uses = []  # (name, whether it is an attribute, ids of the definitions enclosing the use)
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = (node.name, node, False)
            if isinstance(node, ast.ClassDef):
                definitions.update(
                    (f"{path.stem}.{node.name}.{item.name}", (item.name, item, True))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))

        def visit(node, enclosing):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                enclosing = enclosing | {id(node)}
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                uses.append((name, isinstance(node, ast.Attribute), enclosing))
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, frozenset())
    assert set(UNUSED_ALLOWED) <= set(definitions), "stale UNUSED_ALLOWED entries"
    unused = [qualified for qualified, (name, node, method) in definitions.items()
              if qualified not in UNUSED_ALLOWED
              and not any(use == name and (attribute or not method) and id(node) not in inside
                          for use, attribute, inside in uses)]
    assert not unused, f"defined in src/qprank but used nowhere else in it: {unused}"


# Method names that two or more classes in src/ define, and why each is
# shared. The check above matches a method's uses by name, so a call of one
# such method counts for every class that defines it.
SHARED_METHODS_ALLOWED = {
    "average": "CesaroModes.average and SzegedyWalk.average are both called: the walk's "
               "closed form calls the first, analysis.importance_vector the second",
}


def test_every_shared_method_name_is_listed():
    owners = {}  # method name -> the classes that define it
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        owners.setdefault(item.name, []).append(f"{path.stem}.{node.name}")
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert set(SHARED_METHODS_ALLOWED) <= set(shared), "stale SHARED_METHODS_ALLOWED entries"
    unlisted = {name: classes for name, classes in shared.items()
                if name not in SHARED_METHODS_ALLOWED}
    assert not unlisted, f"method names defined by several classes in src/qprank: {unlisted}"


# Record fields that nothing in src/ reads, and why they stay.
UNREAD_FIELDS_ALLOWED = {
    "analysis.AttackRun.removed": "the experiment's own record of which hubs fell, which the "
                                  "tests check",
}


def test_every_dataclass_field_is_read_in_src():
    # a record class declares its fields as class-level annotations: a
    # NamedTuple, or a graphs.Frozen class, whose __init__ stores exactly
    # those (tests/test_values.py checks that). Matched by name, as above: a
    # field counts as read when any attribute load in src/ has its name,
    # whatever the object. So a field that shares a name with a read
    # attribute elsewhere (a flag's ``args.<dest>``, say) cannot be seen by
    # this check
    fields = {}  # qualified name -> field name
    loads = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base) in ("NamedTuple", "Frozen") for base in node.bases):
                fields.update((f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
                              for item in node.body if isinstance(item, ast.AnnAssign))
    assert set(UNREAD_FIELDS_ALLOWED) <= set(fields), "stale UNREAD_FIELDS_ALLOWED entries"
    unread = [qualified for qualified, name in fields.items()
              if name not in loads and qualified not in UNREAD_FIELDS_ALLOWED]
    assert not unread, f"record fields in src/qprank that nothing there reads: {unread}"


def test_cli_import_loads_only_what_every_run_needs():
    # dataclasses would generate and compile code at every start-up; the pool
    # and the random generators load on first use, in the runs that need them
    lazy = ("dataclasses", "concurrent.futures", "multiprocessing", "numpy.random")
    probe = f"import sys, qprank.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(CLI.parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", f"importing qprank.cli loads {out.strip()}"
