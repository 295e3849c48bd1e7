"""Every public name in `src/k4verma` has a caller in the engine, the CLI
or the benchmark.

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
