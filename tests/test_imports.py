"""Every imported name is read, and every top-level definition is named elsewhere.

A stdlib ``ast`` pass. An import binding that no expression of its module
reads fails here; ``voxfuse/__init__.py`` is exempt, because its imports are
the package's exports.

Every module-level function or class of ``src/voxfuse/``, and every
non-dunder method of such a class, is named by the program: a file under
``src/`` or ``perfbench/`` (its tests aside). Tests are not callers, the
package's own export list is not a use, and neither is an attribute reached
through a module bound by ``import m`` outside voxfuse (``json.dumps``). So
``src/`` holds only what the program runs; a reference that only tests
compare against lives in ``tests/oracles.py``. ``EXEMPT_DEFINITIONS`` names what stays regardless,
each with its reason.

Every defaulted parameter of a ``src/voxfuse/`` function or method is passed
by some call under ``src/`` or ``perfbench/`` (its tests aside), by keyword
or by position, unless ``EXEMPT`` names the check that needs it. A literal
equal to the default (``f(3)`` for ``def f(k=3)``) does not count: it
changes nothing. It is the parameter counterpart of
``test_config.py::TestLiveKeys``. Calls match by callee name, and a
``*args``/``**kwargs`` call passes everything, so the check can miss a dead
parameter but does not flag one that a call sets to another value.

No module of ``src/voxfuse/`` imports an underscore-prefixed name from
another voxfuse module: a rule two modules need is a public function of one
of them.

Every field of a ``@dataclass`` in ``src/voxfuse/`` is read somewhere under
``src/``, ``tests/`` or ``perfbench/``: an attribute load of its name, or a
string constant equal to it, as ``getattr`` tables such as ``config._SCHEMA``
hold. It is the field counterpart of the parameter check. Reads match by
name, so the check can miss a dead field but does not flag one that is read.

No module of ``src/voxfuse/`` but ``grid`` turns voxel coords into a flat
index by hand: a ``ravel_multi_index`` call, or a product of an extent's
axes 1 and 2 (``dims[1] * dims[2]``, the C-order x stride), fails.
``GridGeometry.flat_index`` and ``GridGeometry.strides`` are the one home of
that rule. The product is matched by shape, so the check can miss a stride
built from renamed axes.

No module of ``src/voxfuse/`` but ``grid`` builds a grid's world extent by
hand: a product of an expression naming ``dims`` (or ``dims_scale1``) and one
naming ``voxel_size`` or ``cell_size`` fails. ``GridGeometry.span``,
``diagonal`` and ``centers`` are the one home of those facts. Names match
as written, so the check can miss a product of local aliases.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "voxfuse").glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# every Python file that may read a dataclass field, the export list aside
READERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import binding that no ``Name`` node in ``source`` reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport a.b\n"
              "from c.d import e as f, g\n"
              "print(g, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (3, "np"), (5, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named(source: str) -> set[str]:
    """Names that ``source`` reads, imports or reaches as an attribute."""
    out = attributes(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def attributes(source: str) -> set[str]:
    """Attribute names that ``source`` reaches, plus its string constants.

    A method is named only this way: ``obj.m``, ``Cls.m`` or a ``getattr``
    table entry, so a local variable of the same name does not count. An
    attribute chain that starts at a name bound by ``import m`` for a module
    ``m`` outside voxfuse (``json.dumps``, ``np.linalg.norm``) names nothing
    of voxfuse, so it does not count either.
    """
    tree = ast.parse(source)
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "voxfuse"}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)  # getattr(module, "name") tables
    return out


def unnamed_definitions(source: str, names: set[str], attrs: set[str]) -> list[tuple[int, str]]:
    """(line, qualname) of each definition of ``source`` that no caller names.

    Covers module-level functions and classes, which match ``names``, and the
    non-dunder methods of module-level classes, which match ``attrs``.
    """
    out = []
    for top in ast.parse(source).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        if top.name not in names:
            out.append((top.lineno, top.name))
        if isinstance(top, ast.ClassDef):
            out.extend((node.lineno, f"{top.name}.{node.name}") for node in top.body
                       if isinstance(node, ast.FunctionDef) and node.name not in attrs
                       and not (node.name.startswith("__") and node.name.endswith("__")))
    return out


def test_checker_flags_unnamed_definitions():
    source = ("def used():\n    pass\n\n\n"
              "class Orphan:\n    pass\n\n\n"
              "class Kept:\n"
              "    def __init__(self):\n        self.called()\n\n"
              "    def called(self):\n        pass\n\n"
              "    def shadowed(self):\n        pass\n\n"
              "    def looked_up(self):\n        pass\n\n"
              "    def dumps(self):\n        pass\n\n\n"
              "def orphan():\n    import json\n    used()\n    shadowed = Kept()\n"
              "    json.dumps(shadowed)\n"
              "    return shadowed, getattr(shadowed, 'looked_up')\n")
    assert unnamed_definitions(source, named(source), attributes(source)) == [
        (5, "Orphan"), (16, "Kept.shadowed"), (22, "Kept.dumps"), (26, "orphan")]


# The program: src/ and perfbench/ outside perfbench's own tests. Tests are
# not callers, and the package's export list is not a use.
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts)
PROGRAM = [p for p in CALLERS if p.name != "__init__.py"]

# a module, or module.qualname, that the program does not name but keeps
EXEMPT_DEFINITIONS = {
    "losses": "the paper's training objective, which A08 checks; the program does not train",
    "cli._Parser.error": "argparse calls it on a bad command line",
}


@cache
def names_in_program() -> tuple[frozenset[str], frozenset[str]]:
    sources = [p.read_text(encoding="utf-8") for p in PROGRAM]
    return (frozenset().union(*map(named, sources)),
            frozenset().union(*map(attributes, sources)))


def unnamed_in(path: Path) -> list[str]:
    """``module.qualname`` of each definition in ``path`` that the program does not name."""
    return [f"{path.stem}.{qualname}" for _, qualname in unnamed_definitions(
        path.read_text(encoding="utf-8"), *names_in_program())]


def exempts(key: str, name: str) -> bool:
    """Whether the ``EXEMPT_DEFINITIONS`` key ``key`` covers ``module.qualname``."""
    return key in (name, name.partition(".")[0])


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_definition_is_named(path):
    """A definition only tests reach is not the program: delete it or move it to oracles."""
    assert [name for name in unnamed_in(path)
            if not any(exempts(key, name) for key in EXEMPT_DEFINITIONS)] == []


def test_every_definition_exemption_is_needed():
    """An exempt module or definition that the program now names, or that is gone."""
    unnamed = [name for path in PACKAGE for name in unnamed_in(path)]
    assert sorted(key for key in EXEMPT_DEFINITIONS
                  if not any(exempts(key, name) for name in unnamed)) == []


# (module, qualname, parameter) that no program call passes but a check needs
EXEMPT = {
    ("cli", "main", "argv"): "the console entry point; the CLI tests call main(argv)",
    ("fusion", "fuse", "residual"): "A04 fuses with residual=False",
    ("fusion", "DeformableAttnParams.seeded", "query_conditioned"): "A04",
}


# stands for an expression that is not a literal, so it equals no default
NOT_LITERAL = object()


def literal(node: ast.expr):
    """The value of a literal expression (``3``, ``"a"``, ``(1, 2)``), else ``NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return NOT_LITERAL


def same_literal(a, b) -> bool:
    """Two literals written alike: equal and of one type, so ``1`` is not ``1.0`` or ``True``."""
    return a is not NOT_LITERAL and type(a) is type(b) and a == b


def defaulted_parameters(source: str) -> list[tuple[int, str, str, int | None, object]]:
    """(line, qualname, parameter, position, default) of each defaulted parameter.

    Covers module-level functions and the methods of module-level classes.
    ``position`` counts the arguments a caller writes, so ``self`` and
    ``cls`` are dropped; it is None for a keyword-only parameter. ``default``
    is the default's :func:`literal` value.
    """
    out = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            defs = [(top.name, top, False)]
        elif isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{node.name}", node,
                     not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list))
                    for node in top.body if isinstance(node, ast.FunctionDef)]
        else:
            continue
        for qualname, node, bound in defs:
            positional = (node.args.posonlyargs + node.args.args)[int(bound):]
            first = len(positional) - len(node.args.defaults)
            out.extend((arg.lineno, qualname, arg.arg, i, literal(default))
                       for i, (arg, default) in enumerate(
                           zip(positional[first:], node.args.defaults), first))
            out.extend((arg.lineno, qualname, arg.arg, None, literal(default))
                       for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                       if default is not None)
    return out


def call_sites(source: str) -> list[tuple[str | None, list, dict, bool]]:
    """(callee, positional values, keyword values, starred) of each call in ``source``.

    The callee is the called name or attribute, so ``f(x)`` and ``m.f(x)``
    both match ``f``. Each passed value is its :func:`literal` value. A call
    with ``*args`` or ``**kwargs`` is starred.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            out.append((callee, [literal(a) for a in node.args],
                        {k.arg: literal(k.value) for k in node.keywords}, starred))
    return out


def unpassed_parameters(source: str, calls) -> list[tuple[int, str, str]]:
    """(line, qualname, parameter) of each defaulted parameter that no call passes.

    A function or method matches the calls of its own name, ``__init__`` those
    of its class. A starred call passes every parameter; a literal equal to
    the default passes nothing.
    """
    def passes(pos, param, default, args, keywords, starred):
        if starred:
            return True
        if param in keywords:
            return not same_literal(keywords[param], default)
        return pos is not None and pos < len(args) and not same_literal(args[pos], default)

    out = []
    for line, qualname, param, pos, default in defaulted_parameters(source):
        owner, _, name = qualname.rpartition(".")
        callee = owner if name == "__init__" else name
        if not any(c == callee and passes(pos, param, default, args, keywords, starred)
                   for c, args, keywords, starred in calls):
            out.append((line, qualname, param))
    return out


def test_checker_flags_unpassed_parameters():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
              "class K:\n"
              "    def __init__(self, x=0):\n        pass\n\n"
              "    def m(self, y=0, z=0):\n        pass\n\n"
              "    @staticmethod\n"
              "    def s(w=0):\n        pass\n\n\n"
              "def g(p=3, q='a', r=1, t=(1, 2), u=None):\n    pass\n\n\n"
              "f(0, 2, d=4)\nK(5)\nobj.m(1)\nK.s(*args)\n"
              "g(3, q='a', r=1.0, t=(1, 3), u=v)\n")
    # b=1 is passed as 2 and d=3 as 4; g's p and q only ever get their own
    # defaults, while r (1.0 is not 1), t (another tuple) and u (not a
    # literal) get other values
    assert unpassed_parameters(source, call_sites(source)) == [
        (1, "f", "c"), (9, "K.m", "z"), (17, "g", "p"), (17, "g", "q")]


@cache
def unpassed_in_package() -> frozenset[tuple[str, str, str]]:
    calls = [c for p in CALLERS for c in call_sites(p.read_text(encoding="utf-8"))]
    return frozenset((path.stem, qualname, param) for path in PACKAGE
                     for _, qualname, param in unpassed_parameters(
                         path.read_text(encoding="utf-8"), calls))


def test_every_defaulted_parameter_is_passed():
    """A parameter that only tests set is a setting the program never changes: delete it."""
    assert sorted(unpassed_in_package() - set(EXEMPT)) == []


def test_every_exemption_is_needed():
    """An exempt parameter whose function is gone, or that a program call now passes."""
    assert sorted(set(EXEMPT) - unpassed_in_package()) == []


def dataclass_fields(source: str) -> list[tuple[int, str, str]]:
    """(line, class, field) of each annotated field of a module-level ``@dataclass``."""
    out = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef):
            continue
        # @dataclass or @dataclass(...)
        if "dataclass" in {getattr(getattr(d, "func", d), "id", None) for d in top.decorator_list}:
            out.extend((node.lineno, top.name, node.target.id) for node in top.body
                       if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
    return out


def read_names(source: str) -> set[str]:
    """Attribute names that ``source`` loads, plus its string constants."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_fields(source: str, reads: set[str]) -> list[tuple[int, str, str]]:
    """(line, class, field) of each dataclass field of ``source`` not in ``reads``."""
    return [f for f in dataclass_fields(source) if f[2] not in reads]


def test_checker_flags_unread_fields():
    source = ("from dataclasses import dataclass, field\n\n\n"
              "@dataclass(frozen=True)\n"
              "class A:\n    kept: int\n    dead: int = 0\n    looked_up: int = 1\n\n\n"
              "@dataclass\n"
              "class B:\n    written: list = field(default_factory=list)\n\n\n"
              "class Plain:\n    ignored: int = 0\n\n\n"
              "def use(a, b):\n    b.written = [a.kept]\n    return getattr(a, 'looked_up')\n")
    assert unread_fields(source, read_names(source)) == [(7, "A", "dead"), (13, "B", "written")]


@cache
def reads_in_readers() -> frozenset[str]:
    return frozenset().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_dataclass_field_is_read(path):
    """A field nothing reads stores a value for no one: delete it."""
    assert unread_fields(path.read_text(encoding="utf-8"), reads_in_readers()) == []


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore-prefixed name imported from a voxfuse module."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "voxfuse")
            for alias in node.names if alias.name.startswith("_")]


def test_checker_flags_private_imports():
    source = ("from ._x import a\nfrom .occlusion import _walk, pixel_rays\n"
              "from . import _private\nfrom voxfuse.grid import _AXIS_BITS\n"
              "from numpy import _core\nimport voxfuse._y\n")
    assert private_imports(source) == [(2, "_walk"), (3, "_private"), (4, "_AXIS_BITS")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "voxfuse").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_name_crosses_modules(path):
    """A rule another module needs is public: rename it rather than import its private name."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def _axis(node: ast.expr):
    """The leading constant index of a subscript (1 for ``d[1]`` and ``d[1, 0]``), else None."""
    index = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
    return index.value if isinstance(index, ast.Constant) else None


def hand_linearisations(source: str) -> list[tuple[int, str]]:
    """(line, code) of each voxel linearisation built outside ``grid``.

    That is a call of ``ravel_multi_index``, or a product of axes 1 and 2 of
    one extent (``dims[1] * dims[2]``), which is the C-order x stride.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            hit = name == "ravel_multi_index"
        else:
            hit = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                   and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript)
                   and ast.unparse(node.left.value) == ast.unparse(node.right.value)
                   and {_axis(node.left), _axis(node.right)} == {1, 2})
        if hit:
            out.append((node.lineno, ast.unparse(node)))
    return out


def test_checker_flags_hand_linearisations():
    source = ("a = np.ravel_multi_index(tuple(c.T), dims)\n"
              "b = dims[1, 0] * dims[2, 0]\n"
              "c = g.dims[2] * g.dims[1]\n"
              "d = dims[0] * dims[1] * dims[2]\n"
              "e = a[1] * b[2]\n"
              "f = np.unravel_index(k, dims)\n")
    assert hand_linearisations(source) == [
        (1, "np.ravel_multi_index(tuple(c.T), dims)"), (2, "dims[1, 0] * dims[2, 0]"),
        (3, "g.dims[2] * g.dims[1]")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "grid.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_one_home_for_the_flat_index(path):
    """A voxel's flat index is ``GridGeometry.flat_index``/``strides``: call them, do not rebuild them."""
    assert hand_linearisations(path.read_text(encoding="utf-8")) == []


EXTENT_NAMES = {"dims", "dims_scale1"}
CELL_NAMES = {"voxel_size", "cell_size"}


def _names_in(node: ast.expr) -> set[str]:
    """Every name and attribute name that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def hand_extents(source: str) -> list[tuple[int, str]]:
    """(line, code) of each product of an extent and a cell edge, the world span built by hand."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = _names_in(node.left), _names_in(node.right)
            if any(a & EXTENT_NAMES and b & CELL_NAMES for a, b in (sides, sides[::-1])):
                out.append((node.lineno, ast.unparse(node)))
    return out


def test_checker_flags_hand_extents():
    source = ("a = np.asarray(geom.dims) * geom.voxel_size\n"
              "b = g.cell_size * dims[:, None]\n"
              "c = np.asarray(g.dims_scale1, dtype=float) * g.voxel_size\n"
              "d = lo + (cell + 1) * h\n"
              "e = g.span * 0.5 + g.cell_size\n"
              "f = dims * h\n"
              "k = 2.0 * geom.voxel_size\n")
    assert hand_extents(source) == [
        (1, "np.asarray(geom.dims) * geom.voxel_size"), (2, "g.cell_size * dims[:, None]"),
        (3, "np.asarray(g.dims_scale1, dtype=float) * g.voxel_size")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "grid.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_one_home_for_the_world_extent(path):
    """A grid's extent in meters is ``GridGeometry.span``: read it, do not rebuild it."""
    assert hand_extents(path.read_text(encoding="utf-8")) == []
