"""Every name a module imports is used: read in the module, listed in its
__all__, or marked `# noqa: F401` on its own line; and no statement list
imports one name twice, since the second binding hides the first.  Every
private name (_x) a package module defines at module level is read by some
package module.  No linter runs on the sources, so this catches the imports
and helpers a refactor leaves behind, in the package, its tests and
pipebench.  And a subgroup kind's conditions are raised from catalog.py
only, so no module restates them beside catalog.check_descriptor, and the
int-field rule from one raise there.  And which kinds a curve family has
is decided in catalog.py only (family_kinds): no other package module
compares a .family with a tuple holding None.  And the
oracle suite names no valuation: its congruence check forms each p-part by
its own division loop, so it shares no valuation with the Singer-square
closed forms it checks (singer._p_parts).  And the suite takes its kinds
from KINDS alone: it imports no genus module and names no descriptor class
but SigmaCm and no N2_SUBGROUP_ORDERS.  And no package module brings in
a float (a float literal, true division, math.inf, math.nan or the name
float): every genus and delta is an exact int."""

import ast
from pathlib import Path

import pytest

import skabelund
from skabelund.catalog import KINDS

PACKAGE = Path(skabelund.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    path for folder in ("tests", "pipebench") for path in (ROOT / folder).glob("*.py")
)


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
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


# the messages of the kind conditions catalog.check_descriptor checks; a
# divisibility test worded with "divisor" restates one too
KIND_CONDITION_PHRASES = (
    "does not divide",
    "divisor",
    "violates 7w | m",
    "out of range 1..6",
    "not one of",
)


def raise_texts(source: str) -> list[tuple[int, str]]:
    """(line, message text) of each raise of source with an exception, the
    text being its string constants, f-string parts included."""
    return [
        (
            node.lineno,
            "".join(
                part.value
                for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ),
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]


def kind_condition_raises(sources: dict[str, str]) -> list[str]:
    """module:line of each raise outside catalog whose message text holds a
    kind-condition phrase, in sources (module name to source text)."""
    return [
        f"{module}:{line}"
        for module, source in sources.items()
        if module != "catalog"
        for line, text in raise_texts(source)
        if any(phrase in text for phrase in KIND_CONDITION_PHRASES)
    ]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_check_sees_a_restated_kind_condition():
    sources = _package_sources()
    assert kind_condition_raises({"catalog": sources["catalog"]}) == []
    lines = sources["oracle"].count("\n")
    restated = sources["oracle"] + (
        "\n\ndef _check_w(m, w):\n"
        "    if m % (7 * w):\n"
        '        raise ValueError(f"w={w} violates 7w | m for m={m}")\n'
    )
    assert kind_condition_raises({"oracle": restated}) == [f"oracle:{lines + 5}"]
    assert kind_condition_raises({"a": "raise ValueError('x does not divide y')\n"}) == ["a:1"]
    assert kind_condition_raises({"a": "raise ValueError('x must be >= 1, got 0')\n"}) == []


def test_the_check_sees_a_restated_singer_block_divisor_test():
    """A block-divisor loop in singer, worded "is not a positive divisor
    of", restates what check_descriptor checks of the block's first triple."""
    sources = _package_sources()
    lines = sources["singer"].count("\n")
    restated = sources["singer"] + (
        "\n\ndef _check_block(m, n1, n2):\n"
        '    for name, n in (("n1", n1), ("n2", n2)):\n'
        "        if not (n >= 1 and m % n == 0):\n"
        '            raise ValueError(f"{name}={n} is not a positive divisor of m={m}")\n'
    )
    assert kind_condition_raises({"singer": restated}) == [f"singer:{lines + 6}"]


def test_kind_conditions_are_raised_from_the_catalog_only():
    assert kind_condition_raises(_package_sources()) == []


def test_the_int_field_rule_is_raised_once():
    texts = [text for _, text in raise_texts(_package_sources()["catalog"])]
    assert sum("must be int" in text for text in texts) == 1


def family_filters(sources: dict[str, str]) -> list[str]:
    """module:line of each comparison outside catalog of a .family with a
    tuple holding None (the test of whether a kind is a curve family's), in
    sources (module name to source text)."""
    found = []
    for module, source in sources.items():
        if module == "catalog":
            continue
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(x, ast.Attribute) and x.attr == "family" for x in operands
            ) and any(
                isinstance(x, ast.Tuple)
                and any(isinstance(e, ast.Constant) and e.value is None for e in x.elts)
                for x in operands
            ):
                found.append(f"{module}:{node.lineno}")
    return found


def test_the_check_sees_a_restated_family_filter():
    """compute_spectrum's comprehension before family_kinds is flagged."""
    sources = _package_sources()
    assert family_filters({"catalog": sources["catalog"]}) == []
    lines = sources["spectrum"].count("\n")
    restated = sources["spectrum"] + (
        "\n\ndef _kinds(params, family_filter):\n"
        "    return [\n"
        "        kind\n"
        "        for kind in KINDS\n"
        "        if kind.family in (None, params.family) and family_filter in (None, kind.name)\n"
        "    ]\n"
    )
    assert family_filters({"spectrum": restated}) == [f"spectrum:{lines + 7}"]
    assert family_filters({"a": "ok = (None, family) not in kind.family\n"}) == ["a:1"]
    assert family_filters({"a": "ok = name in (None, kind.name)\n"}) == []
    assert family_filters({"a": "ok = kind.family is None\n"}) == []


def test_a_curves_kinds_are_filtered_in_the_catalog_only():
    assert family_filters(_package_sources()) == []


def valuation_names(source: str) -> list[str]:
    """The identifiers of source (names, attributes, imported names and
    aliases, arguments) that hold "valuation" in any case, sorted."""
    return sorted(
        {
            value
            for node in ast.walk(ast.parse(source))
            for field in ("id", "attr", "name", "asname", "arg")
            if isinstance(value := getattr(node, field, None), str)
            and "valuation" in value.lower()
        }
    )


def test_the_check_sees_a_valuation_readded_to_the_suite():
    source = (PACKAGE / "suite.py").read_text()
    readded = source + "\n\ndef _capped(p, x, e):\n    return min(arith.valuation(p, x), e)\n"
    assert valuation_names(readded) == ["valuation"]
    assert valuation_names("from .arith import valuation as v\nv(2, 4)\n") == ["valuation"]
    assert valuation_names("from .arith import INFINITE_VALUATION\n") == ["INFINITE_VALUATION"]
    assert valuation_names('"""a valuation named in a docstring"""\n') == []


def test_the_suite_names_no_valuation():
    assert valuation_names((PACKAGE / "suite.py").read_text()) == []


GENUS_MODULES = ("genus_ree", "genus_suzuki")
# what the suite reads from KINDS instead: the kinds' descriptor classes but
# SigmaCm (the sample builds triples) and the N2 subgroup orders
KIND_NAMES = {kind.cls.__name__ for kind in KINDS} - {"SigmaCm"} | {"N2_SUBGROUP_ORDERS"}


def kind_restatements(source: str) -> list[str]:
    """What source takes of the kinds besides KINDS, sorted: each name it
    imports from a genus module (as module.name), each genus module it
    imports, and each identifier of KIND_NAMES it holds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if module in GENUS_MODULES:
                    found.add(f"{module}.{alias.name}")
                elif alias.name in GENUS_MODULES or alias.name in KIND_NAMES:
                    found.add(alias.name)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.rpartition(".")[2] in GENUS_MODULES)
        elif isinstance(node, ast.Name) and node.id in KIND_NAMES:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in KIND_NAMES:
            found.add(node.attr)
    return sorted(found)


def test_the_check_sees_a_kind_restated_in_the_suite():
    source = (PACKAGE / "suite.py").read_text()
    readded = source + "\nfrom .genus_suzuki import genus_b0_cyclic\n"
    assert kind_restatements(readded) == ["genus_suzuki.genus_b0_cyclic"]
    assert kind_restatements("from . import genus_ree\nimport skabelund.genus_suzuki\n") == [
        "genus_ree",
        "skabelund.genus_suzuki",
    ]
    assert kind_restatements("from .catalog import N2_SUBGROUP_ORDERS as orders\n") == [
        "N2_SUBGROUP_ORDERS"
    ]
    assert kind_restatements("h = catalog.Psl28(7)\nk = B0Cyclic(1, 5)\n") == ["B0Cyclic", "Psl28"]
    docstring = '"""genus_ree and N2SkewFull in a docstring"""\n'
    assert kind_restatements(docstring + "SigmaCm(1, 1, 0)\n") == []


def test_the_suite_restates_no_kind():
    assert kind_restatements((PACKAGE / "suite.py").read_text()) == []


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each place source brings in a float: a float
    literal, a true division (/ or /=), math.inf or math.nan (read or
    imported), or the name float; in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("inf", "nan")
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name in ("inf", "nan")]
            found += [(node.lineno, f"math.{name}") for name in names]
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
    return sorted(found)


def test_the_check_sees_a_float_readded_to_the_package():
    source = (PACKAGE / "arith.py").read_text()
    lines = source.count("\n")
    readded = source + "\nimport math\n\nINFINITE_VALUATION = math.inf\n"
    assert float_uses(readded) == [(lines + 4, "math.inf")]
    halved = source + "\n\ndef _half(x):\n    return x / 2\n"
    assert float_uses(halved) == [(lines + 4, "/")]
    assert float_uses("x = 1.5\ny = 2\ny /= 2\nz = float('nan')\n") == [
        (1, "1.5"),
        (3, "/"),
        (4, "float"),
    ]
    assert float_uses("from math import inf, isqrt\nn = math.nan\n") == [
        (1, "math.inf"),
        (2, "math.nan"),
    ]
    assert float_uses("n = 7 // 2\n'''a / in a docstring, 1.5'''\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_holds_no_float(path):
    assert float_uses(path.read_text()) == []
