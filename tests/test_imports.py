"""Every name a module imports is used: read in the module, listed in its
__all__, or marked `# noqa: F401` on its own line; and no statement list
imports one name twice, since the second binding hides the first.  Every
private name (_x) a package module defines at module level is read by some
package module.  No linter runs on the sources, so this catches the imports
and helpers a refactor leaves behind, in the package, its tests and
pipebench.

And each rule in RULES is stated at one site: only the rule's owner modules
may hold what its scanner flags.  The comment above each row says why that
rule has one site.  A new single-site rule is one row of the table."""

import ast
from collections.abc import Callable
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import pytest

import skabelund
from skabelund.catalog import KINDS

PACKAGE = Path(skabelund.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    path for folder in ("tests", "pipebench") for path in (ROOT / folder).glob("*.py")
)
PACKAGE_SOURCES = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _imports(node: ast.AST, lines: list[str]) -> list[str]:
    """The names an import statement binds, less those marked noqa."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ):
        return []
    return [
        alias.asname or alias.name.partition(".")[0]
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def unused_imports(source: str) -> list[str]:
    """The imported names of source that nothing uses, in import order; a
    name imported again in the same statement list is listed once more."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [name for node in ast.walk(tree) for name in _imports(node, lines)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    repeated = []
    for node in ast.walk(tree):
        for _, body in ast.iter_fields(node):
            if isinstance(body, list):
                names = [name for stmt in body for name in _imports(stmt, lines)]
                repeated += [name for i, name in enumerate(names) if name in names[:i]]
    return [name for name in imported if name not in used] + repeated


def test_the_check_sees_unused_names():
    assert unused_imports("from operator import attrgetter\n") == ["attrgetter"]
    assert unused_imports("import os.path\nimport re as regex\n") == ["os", "regex"]
    assert unused_imports("from x import (\n    a,\n    b,\n)\nb()\n") == ["a"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from x import a  # noqa: F401\n") == []
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
    assert unused_imports("from x import a\ny: list[a] = []\n") == []
    # twice in one statement list is flagged; once in each of two functions is not
    assert unused_imports("from x import a\nfrom y import (\n    a,\n)\na()\n") == ["a"]
    assert unused_imports("def f():\n    from x import a\n    a()\n\n"
                          "def g():\n    from x import a\n    a()\n") == []


@pytest.mark.parametrize(
    "path",
    SOURCES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private names (_x, not __x__) a module defines at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads: as a name, an attribute or an import."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level private name of sources (module name
    to source text) that no module of sources reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]


def test_the_check_sees_dead_private_names():
    assert dead_private_names({"a": "_x = 1\n_y: int = 2\nprint(_y)\n"}) == ["a:_x"]
    assert dead_private_names({"a": "def _f():\n    pass\n", "b": "from a import _f\n"}) == []
    assert dead_private_names({"a": "class _C:\n    pass\n", "b": "import a\na._C()\n"}) == []
    # a definition is no read, public and dunder names are not checked
    assert dead_private_names({"a": "def _f():\n    _g = 1\n\nclass _C: ...\n"}) == [
        "a:_f",
        "a:_C",
    ]
    assert dead_private_names({"a": "__all__ = []\nx = 1\n"}) == []


def test_every_private_name_of_the_package_is_read():
    assert dead_private_names(PACKAGE_SOURCES) == []


# a rule's scanner: what a node restates of the rule, or nothing (None or "")
Scanner = Callable[[ast.AST], str | None]


def flagged(scan: Scanner, source: str) -> list[str]:
    """"line: what" for each node of source that scan flags, in source order."""
    nodes = [node for node in ast.walk(ast.parse(source)) if scan(node)]
    return [f"{n.lineno}: {scan(n)}" for n in sorted(nodes, key=attrgetter("lineno", "col_offset"))]


def _identifiers(node: ast.AST) -> list[str]:
    """A name, attribute, imported name or alias, argument or definition."""
    fields = ("id", "attr", "name", "asname", "arg")
    return [value for f in fields if isinstance(value := getattr(node, f, None), str)]


def _holding(*words: str) -> Scanner:
    """Scanner: an identifier holding one of words, in any case."""
    return lambda node: next(
        (name for name in _identifiers(node) if any(w in name.lower() for w in words)), None
    )


def _raising(*phrases: str) -> Scanner:
    """Scanner: a phrase a raise's message (its string constants) holds."""

    def scan(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            strings = [part.value for part in ast.walk(node.exc) if isinstance(part, ast.Constant)]
            text = "".join(s for s in strings if isinstance(s, str))
            return next((phrase for phrase in phrases if phrase in text), None)

    return scan


def _family_filter(node):
    """A .family compared with a tuple holding None: is a kind the curve's?"""
    operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    elements = [e for x in operands if isinstance(x, ast.Tuple) for e in x.elts]
    if any(isinstance(x, ast.Attribute) and x.attr == "family" for x in operands) and any(
        isinstance(e, ast.Constant) and e.value is None for e in elements
    ):
        return ast.unparse(node)


GENUS_MODULES = ("genus_ree", "genus_suzuki")
# what the suite reads from KINDS instead: the genus modules, the kinds'
# descriptor classes but SigmaCm (the sample builds triples), N2's orders
RESTATED = {*GENUS_MODULES, "N2_SUBGROUP_ORDERS", *(k.cls.__name__ for k in KINDS)} - {"SigmaCm"}


def _kind_restatement(node):
    """A name imported from a genus module, or an identifier naming a RESTATED."""
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").rpartition(".")[2]
        if module in GENUS_MODULES:
            return ", ".join(f"{module}.{alias.name}" for alias in node.names)
    return next((i for i in _identifiers(node) if i.rpartition(".")[2] in RESTATED), None)


def _float(node):
    """A float literal, a true division (/, /=), math.inf or math.nan, or float."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return repr(node.value)
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "/"
    if isinstance(node, ast.Attribute) and ast.unparse(node) in ("math.inf", "math.nan"):
        return ast.unparse(node)
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return ", ".join(f"math.{a.name}" for a in node.names if a.name in ("inf", "nan"))
    if isinstance(node, ast.Name) and node.id == "float":
        return "float"


def _arith_import(node):
    """What an import takes from skabelund.arith; a relative one is the package's."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        base = ("skabelund" if getattr(node, "level", 0) else None, getattr(node, "module", None))
        names = (".".join(filter(None, (*base, alias.name))) for alias in node.names)
        return ", ".join(name for name in names if f"{name}.".startswith("skabelund.arith."))


_gcd_or_lcm = _holding("gcd", "lcm")


def _oracle_shortcut(node):
    """An import from arith, or an identifier holding gcd or lcm."""
    return _arith_import(node) or _gcd_or_lcm(node)


class Rule(NamedTuple):
    name: str
    scan: Scanner
    modules: tuple[str, ...]  # the package modules scanned
    owners: dict[str, int | None]  # the modules allowed to hit: exact hit count, or None
    bad: dict[str, list[str]]  # snippet -> the hits it must give
    clean: tuple[str, ...]  # snippets that must give none


ALL = tuple(PACKAGE_SOURCES)
# the messages of the kind conditions catalog.check_descriptor checks; a
# divisibility test worded with "divisor" restates one too
KIND_CONDITION_PHRASES = (
    "does not divide", "divisor", "violates 7w | m", "out of range 1..6", "not one of"
)
RULES = (
    # check_descriptor raises every kind condition, so none drifts from it
    Rule("kind-condition", _raising(*KIND_CONDITION_PHRASES), ALL, {"catalog": None}, {
        "def _check_w(m, w):\n"
        "    if m % (7 * w):\n"
        '        raise ValueError(f"w={w} violates 7w | m for m={m}")\n': ["3: violates 7w | m"],
        # singer_block's old test of the block's first triple
        "def _check_block(m, n1, n2):\n"
        '    for name, n in (("n1", n1), ("n2", n2)):\n'
        "        if not (n >= 1 and m % n == 0):\n"
        '            raise ValueError(f"{name}={n} is not a positive divisor of m={m}")\n':
        ["4: divisor"],
        "raise ValueError('x does not divide y')\n": ["1: does not divide"],
    }, clean=("raise ValueError('x must be >= 1, got 0')\n",)),
    # catalog._check_fields checks the fields of every kind, once
    Rule("int-field", _raising("must be int"), ALL, {"catalog": 1}, {
        "def _check_n(h):\n"
        "    if type(h.n) is not int:\n"
        '        raise ValueError(f"descriptor fields must be int, got {h!r}")\n': ["3: must be int"],
    }, clean=("raise ValueError(f's must be an integer, got {s!r}')\n",)),
    # catalog.family_kinds decides which kinds a curve family has
    Rule("family-filter", _family_filter, ALL, {"catalog": None}, {
        # compute_spectrum's comprehension before family_kinds
        "def _kinds(params, family_filter):\n"
        "    return [\n"
        "        kind\n"
        "        for kind in KINDS\n"
        "        if kind.family in (None, params.family) and family_filter in (None, kind.name)\n"
        "    ]\n": ["5: kind.family in (None, params.family)"],
        "ok = (None, family) not in kind.family\n": ["1: (None, family) not in kind.family"],
    }, clean=("ok = name in (None, kind.name)\n", "ok = kind.family is None\n")),
    # the suite's congruence check forms each p-part by its own division loop,
    # so it shares no valuation with the closed forms it checks (singer._p_parts)
    Rule("suite-valuation", _holding("valuation"), ("suite",), {}, {
        "def _capped(p, x, e):\n    return min(arith.valuation(p, x), e)\n": ["2: valuation"],
        "from .arith import valuation as v\nv(2, 4)\n": ["1: valuation"],
        "from .arith import INFINITE_VALUATION\n": ["1: INFINITE_VALUATION"],
    }, clean=('"""a valuation named in a docstring"""\n',)),
    # the suite takes its cases and closed forms from KINDS alone
    Rule("suite-kinds", _kind_restatement, ("suite",), {}, {
        "from .genus_suzuki import genus_b0_cyclic\n": ["1: genus_suzuki.genus_b0_cyclic"],
        "from . import genus_ree\n": ["1: genus_ree"],
        "import skabelund.genus_suzuki\n": ["1: skabelund.genus_suzuki"],
        "from .catalog import N2_SUBGROUP_ORDERS as orders\n": ["1: N2_SUBGROUP_ORDERS"],
        "h = catalog.Psl28(7)\nk = B0Cyclic(1, 5)\n": ["1: Psl28", "2: B0Cyclic"],
    }, clean=('"""genus_ree and N2SkewFull in a docstring"""\nSigmaCm(1, 1, 0)\n',)),
    # every genus and delta is an exact int
    Rule("float", _float, ALL, {}, {
        "import math\n\nINFINITE_VALUATION = math.inf\n": ["3: math.inf"],
        "def _half(x):\n    return x / 2\n": ["2: /"],
        "x = 1.5\ny = 2\ny /= 2\nz = float('nan')\n": ["1: 1.5", "3: /", "4: float"],
        "from math import inf, isqrt\nn = math.nan\n": ["1: math.inf", "2: math.nan"],
    }, clean=("n = 7 // 2\n'''a / in a docstring, 1.5'''\n",)),
    # the oracle recomputes what arith's closed forms give, so it takes
    # nothing from arith and reaches for no gcd or lcm (say m // gcd(x, m))
    Rule("oracle-arith", _oracle_shortcut, ("_kernels", "_ree3", "oracle", "iota"), {}, {
        "from .arith import divisors\n": ["1: skabelund.arith.divisors"],
        "from . import arith\n": ["1: skabelund.arith"],
        "import skabelund.arith\n": ["1: skabelund.arith"],
        "from math import gcd\n": ["1: gcd"],
        "n = m // math.gcd(x, m)\n": ["1: gcd"],
        "period = _lcm(n1, n2)\n": ["1: _lcm"],
    }, clean=('"""m and q-1 share no factor: gcd(m, q-1) = 1."""\n',)),
)


@pytest.mark.parametrize("rule", RULES, ids=attrgetter("name"))
def test_only_the_owners_hit(rule):
    hits = {module: flagged(rule.scan, PACKAGE_SOURCES[module]) for module in rule.modules}
    strays = [f"{m}:{hit}" for m, found in hits.items() if m not in rule.owners for hit in found]
    assert strays == []
    for module, count in rule.owners.items():
        assert count is None or len(hits[module]) == count, hits[module]


# one case per snippet: <rule>-bad<n> must give its hits, <rule>-clean<n> none
@pytest.mark.parametrize(("rule", "snippet", "hits"), [
    pytest.param(rule, snippet, hits, id=f"{rule.name}-{'bad' if hits else 'clean'}{n}")
    for rule in RULES
    for n, (snippet, hits) in enumerate([*rule.bad.items(), *((s, []) for s in rule.clean)], 1)
])
def test_the_rule_sees_each_bad_snippet(rule, snippet, hits):
    assert flagged(rule.scan, snippet) == hits
