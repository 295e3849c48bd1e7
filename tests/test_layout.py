"""Every public name in `src/k4verma` has a caller in the engine, the CLI
or the benchmark, and no engine module imports the heavy modules in
SLOW_IMPORTS.

A public top-level `def` or `class`, or a public method, must be named as
a code token somewhere in `src/k4verma` outside its own definition, or in
`perfbench/`.  Names in strings and comments do not count.  A name that
only the tests call belongs in the tests, unless it is a referee listed
in TEST_REFEREES.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "k4verma").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# the tests compare the engine against these; nothing in src/ calls them
TEST_REFEREES = ("solver.theta_ansatz_kernel",)

# every CLI run, benchmark worker and test run imports the engine afresh;
# dataclasses pulls in inspect, ast, dis and tokenize, and each record it
# builds execs generated code
SLOW_IMPORTS = ("dataclasses", "inspect")


def _name_tokens(path: Path) -> list[tuple[str, int]]:
    """Each NAME token of the file with its line number."""
    toks = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [(t.string, t.start[0]) for t in toks if t.type == tokenize.NAME]


def _public_defs(path: Path):
    """Public top-level functions and classes, and the public methods of
    the classes, as AST nodes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (n for n in node.body
                            if isinstance(n, ast.FunctionDef))


def test_every_public_name_has_a_caller():
    tokens = {path: _name_tokens(path) for path in SRC + BENCH}
    uncalled = []
    for path in SRC:
        for node in _public_defs(path):
            if node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in own)
                       for where, toks in tokens.items()
                       for name, line in toks):
                uncalled.append(f"{path.stem}.{node.name}")
    assert sorted(uncalled) == sorted(TEST_REFEREES)


def _slow_imports(source: str) -> list[str]:
    """The SLOW_IMPORTS modules that any import statement of the source
    names, at top level or nested in a function or class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [n for n in names if n.split(".")[0] in SLOW_IMPORTS]
    return found


def test_no_engine_module_imports_a_slow_module():
    assert {p.stem: _slow_imports(p.read_text()) for p in SRC} == \
        {p.stem: [] for p in SRC}


def test_a_slow_import_is_flagged():
    # negative control: top-level, nested and from-imports are all caught
    source = ("from dataclasses import dataclass\n"
              "def f():\n"
              "    import inspect, json\n"
              "class C:\n"
              "    import dataclasses as dc\n")
    assert _slow_imports(source) == ["dataclasses", "inspect", "dataclasses"]
