"""Every public name in `src/k4verma` has a caller in the engine, the CLI
or the benchmark, no engine module imports the heavy modules in
SLOW_IMPORTS, no function writes into a module-level dict, list or set,
only `exact` touches the private fields of `ExactScalar`, and the
closed-form bases in `verma` read their signs from the `grassmann` tables.

A public top-level `def` or `class`, or a public method, must be named as
a code token somewhere in `src/k4verma` outside its own definition, or in
`perfbench/`.  Names in strings and comments do not count.  A name that
only the tests call belongs in the tests, unless it is a referee listed
in TEST_REFEREES.
"""

import ast
import builtins
import io
import symtable
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


# methods that write into the container they are called on, and the
# engine's accumulate helpers, which write into their first argument
MUTATORS = ("append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "clear", "remove", "discard")
ACCUMULATORS = ("acc", "axpy", "iaxpy")
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names that the module body binds to a dict, list or set display,
    comprehension or constructor call."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _base_name(node: ast.AST):
    """The name that a chain of subscripts and attributes starts from."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _stray_writes(source: str) -> list[str]:
    """'function: name' for each function that writes into a module-level
    container it does not shadow.  `fresh_solver_caches` empties only
    lru_caches, so a memo kept in such a container leaks the entries that
    one test fills, through a patch, into the tests after it; tables that
    the module body fills at import are fine."""
    tree = ast.parse(source)
    shared = _module_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        own = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        own |= {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        written = []  # a bare name among these is a local, so in own
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.Delete)):
                written += node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                written.append(node.target)
            elif isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in MUTATORS:
                    written.append(f.value)
                elif (isinstance(f, ast.Name) and f.id in ACCUMULATORS
                      and node.args):
                    written.append(node.args[0])
        name = getattr(fn, "name", "<lambda>")
        for target in written:
            base = _base_name(target)
            if base in shared and base not in own:
                found.append(f"{name}: {base}")
    return sorted(set(found))


def test_no_function_writes_into_a_module_level_container():
    assert {p.stem: _stray_writes(p.read_text()) for p in SRC} == \
        {p.stem: [] for p in SRC}


def test_a_stray_memo_is_flagged():
    # negative control: a dict memo, a set, an accumulate helper and a
    # nested list are caught; a table filled at import, a local and a
    # parameter of the same kind are not
    source = ("_MEMO = {}\n"
              "_SEEN: set = set()\n"
              "TABLE = {k: [] for k in range(3)}\n"
              "for _k in range(3):\n"
              "    TABLE[_k].append(_k)\n"
              "def cached(x):\n"
              "    if x not in _MEMO:\n"
              "        _MEMO[x] = x * x\n"
              "    return _MEMO[x]\n"
              "def note(x, rows):\n"
              "    _SEEN.add(x)\n"
              "    acc(TABLE, x, 1)\n"
              "    out = {}\n"
              "    out[x] = rows\n"
              "    rows.append(x)\n"
              "    return out\n"
              "def grow(x):\n"
              "    TABLE[x % 3].append(x)\n"
              "def shadow(_SEEN):\n"
              "    _SEEN.add(1)\n")
    assert _stray_writes(source) == [
        "cached: _MEMO", "grow: TABLE", "note: TABLE", "note: _SEEN"]


# ExactScalar's private int fields; other modules go through its operators
SCALAR_FIELDS = ("_a", "_b", "_d")


def _scalar_field_reads(source: str) -> list[str]:
    """The SCALAR_FIELDS that the source reads or writes as attributes."""
    return sorted(n.attr for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in SCALAR_FIELDS)


def test_only_exact_reads_the_scalar_fields():
    rest = [p for p in SRC if p.stem != "exact"]
    assert {p.stem: _scalar_field_reads(p.read_text()) for p in rest} == \
        {p.stem: [] for p in rest}


def test_a_scalar_field_read_is_flagged():
    # negative control: an int view of a bracket table that reads the
    # scalar's fields
    source = ("def _plain_ints(x, y):\n"
              "    items = _key_bracket_plain(*x, *y)\n"
              "    for k, c in items:\n"
              "        if c._d != 1 or c._b:\n"
              "            raise ArithmeticError(f'{x} {y} {c} {k}')\n"
              "    return tuple((k, c._a) for k, c in items)\n")
    assert _scalar_field_reads(source) == ["_a", "_b", "_d"]


# what the closed-form bases may read at module level: the Grassmann tables
# and helpers, the scalar constructor, the algebra and the mask check; the
# sign of a pair of odd generators lives in grassmann alone
BASE_GLOBALS = {"DERIVE", "EPS", "PAIRS", "PARTIAL", "STAR", "complement",
                "derive_seq", "indices_of", "size", "scal", "an",
                "_check_masks"}


def _globals_read(source: str, func: str) -> set[str]:
    """The module-level names, builtins aside, that the top-level function
    func of the source and the scopes nested in it read."""
    tables = [t for t in symtable.symtable(source, "<source>", "exec")
              .get_children() if t.get_name() == func]
    names = set()
    while tables:
        table = tables.pop()
        names.update(table.get_globals())
        tables += table.get_children()
    return names - set(dir(builtins))


def test_the_closed_form_bases_read_only_the_grassmann_tables():
    source = (ROOT / "src" / "k4verma" / "verma.py").read_text()
    for func in ("_primal_base", "_dual_base"):
        assert _globals_read(source, func) - BASE_GLOBALS == set(), func


def test_a_second_pair_rule_is_flagged():
    # negative control: a base that resolves xi_{j,i} through a sign helper
    # of another module, called in a nested scope, instead of reading STAR
    source = ("def _primal_base(imask, lmask):\n"
              "    terms = [pair_sign(j, i) for i in indices_of(imask)\n"
              "             for j in range(1, 5)]\n"
              "    return tuple(STAR[imask][lmask] for _ in terms)\n")
    assert _globals_read(source, "_primal_base") - BASE_GLOBALS == \
        {"pair_sign"}
