"""Every definition, constant and defaulted parameter in the package is
reached from outside the tests.

A top-level function or class, or a non-dunder method of a top-level class,
in ``src/editstop`` must be referenced somewhere other than its own body: by
an AST ``Name`` or ``Attribute`` that reads it in another part of the
package (not ``__init__.py``, which only re-exports), or anywhere in
``bench/``, whose quoted tracing targets count too. ``ALLOWED`` names the exceptions: test
oracles and code a later change wires in or deletes.

Each defaulted parameter of such a function or method must be passed by
some call outside its own body, in the package (not ``__init__.py``) or in
``bench/``. Calls are matched by the name they call. A call passes the
parameter when it names it as a keyword, fills its position, or passes
``*`` or ``**`` arguments. ``ALLOWED_PARAMETERS`` names the exceptions.

Each defaulted ``init`` field of a package dataclass must be set by some
construction in the package (not ``__init__.py``) or in ``bench/``: a call
of the class's name, or a ``cls(...)`` call inside the class, that names
the field as a keyword, fills its position, or passes ``*`` or ``**``
arguments. ``ClassVar`` constants and ``field(init=False)`` state are not
fields of ``__init__``. ``ALLOWED_FIELDS`` names the exceptions, a whole
class or one ``Class.field``.

Each ``init`` field of a package dataclass must be read: some ``Attribute``
node in the package (not ``__init__.py``) or in ``bench/`` must load its
name. Reads are matched by name. A field no code reads is state only tests
see. ``ALLOWED_READS`` names the exceptions, each a ``Class.field``.

Each module-level constant (an upper-case name a top-level assignment
binds) must be read outside its own statement: in another part of the
package (not ``__init__.py``), in its own module, or in ``bench/``. A
constant only tests read belongs with the tests.
"""

from __future__ import annotations

import ast
import functools
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE_DIR = os.path.join(ROOT, "src", "editstop")
BENCH_DIR = os.path.join(ROOT, "bench")

ALLOWED = {
    "pseudo_gradient": "the per-pair oracle of acceptance criterion 02",
    "kl_divergence": "the unmatched KL of acceptance criterion 03",
    "freeze_safety": "the freeze bound of acceptance criterion 07",
    "probe_coupling_pooled": "the pooled coupling probe of acceptance criterion 07",
    "from_distribution": "the object margin of acceptance criteria 05 and 06, and the"
    " object-path oracle of the decode's MarginReport.from_row",
    "argmax_token": "criterion 05's argmax of a future distribution",
}

ALLOWED_PARAMETERS = {
    "main.argv": "the CLI's test hook: tests pass an argument list for sys.argv",
    "pseudo_gradient.config": "acceptance criterion 02 passes the modules it checks",
    "cmd_infer.policy_kind": "the desk_run fixture in tests/test_acceptance.py passes it",
    "score_frame.mode": "the object-path scoring that tests and their oracles call",
    "score_frame.tau_blk": "the object-path scoring that tests and their oracles call",
}

ALLOWED_FIELDS = {
    "PseudoGradConfig.modules": "acceptance criterion 02 passes the modules it checks",
}

ALLOWED_READS = {
    "TokenFreezeState.frozen_value": "acceptance criterion 07 pins each frozen token to it",
    "CouplingEstimate.probe_magnitude": "the probe step of criterion 07's coupling estimate",
    "CouplingEstimate.samples": "the probe count of criterion 07's coupling estimate",
    "FreezeSafetyReport.bound": "the coupling term of criterion 07's safety verdict",
}

DOTTED = re.compile(r"[A-Za-z_][\w.]*")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions and classes, and the non-dunder methods of the
    classes, each with its node."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((f"{node.name}.{item.name}", item))
    return found


def constants(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-level constants, each with the statement that binds it."""
    found = []
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        found += [
            (t.id, node) for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
        ]
    return found


def references(tree: ast.Module, strings: bool = False) -> list[tuple[str, int]]:
    """Each name a ``Name`` or ``Attribute`` node reads, with its line; with
    ``strings``, also each part of a dotted identifier written as a string."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                refs += [(part, node.lineno) for part in node.value.split(".")]
    return refs


def unreached(package: dict[str, str], bench: dict[str, str], defined=definitions) -> list[str]:
    """The names ``defined`` finds in ``package`` (path -> source) that no
    other code there, and nothing in ``bench`` (path -> source), refers to."""
    trees = {path: ast.parse(src, filename=path) for path, src in package.items()}
    outside = {
        name
        for path, src in bench.items()
        for name, _ in references(ast.parse(src, filename=path), strings=True)
    }
    sites: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        if os.path.basename(path) != "__init__.py":
            for name, line in references(tree):
                sites.setdefault(name, []).append((path, line))
    missing = []
    for path, tree in trees.items():
        for qualname, node in defined(tree):
            name = qualname.rpartition(".")[2]
            lo, hi = node.lineno, node.end_lineno
            if name not in outside and not any(
                other != path or not lo <= line <= hi for other, line in sites.get(name, ())
            ):
                missing.append(qualname)
    return sorted(missing)


def defaulted_parameters(node: ast.AST, method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter of a function node, with the index of the
    positional argument that fills it in a call (None if keyword-only).
    A method's ``self`` or ``cls`` is not filled by position."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    ):
        positional = positional[1:]
    found = [
        (arg.arg, index)
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(args.defaults)
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may pass ``param``, which fills positional argument
    ``index``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return index is not None and index < len(call.args)


def calls_by_name(
    trees: dict[str, ast.Module], bench: dict[str, str]
) -> dict[str, list[tuple[str, ast.Call]]]:
    """Each call in ``bench`` and in the package ``trees`` but
    ``__init__.py``, with its path, keyed by the name it calls."""
    callers = [(path, ast.parse(src, filename=path)) for path, src in bench.items()]
    callers += [(p, tree) for p, tree in trees.items() if os.path.basename(p) != "__init__.py"]
    calls: dict[str, list[tuple[str, ast.Call]]] = {}
    for path, tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append((path, node))
    return calls


def unpassed(package: dict[str, str], bench: dict[str, str]) -> list[str]:
    """The defaulted parameters (``function.param``) of the definitions in
    ``package`` that no call elsewhere there, or in ``bench``, passes."""
    trees = {path: ast.parse(src, filename=path) for path, src in package.items()}
    calls = calls_by_name(trees, bench)
    missing = []
    for path, tree in trees.items():
        for qualname, node in definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            outside = [
                call
                for other, call in calls.get(node.name, ())
                if other != path or not node.lineno <= call.lineno <= node.end_lineno
            ]
            for param, index in defaulted_parameters(node, "." in qualname):
                if not any(passes(call, param, index) for call in outside):
                    missing.append(f"{qualname}.{param}")
    return sorted(missing)


def init_fields(node: ast.ClassDef) -> list[tuple[str, int, bool]]:
    """Each ``__init__`` field of a dataclass node, with its position and
    whether it has a default; none for a class that is not a dataclass."""
    if not any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    ):
        return []
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if ast.unparse(item.annotation).startswith("ClassVar"):
            continue
        value, defaulted = item.value, item.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {kw.arg: kw.value for kw in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        found.append((item.target.id, len(found), defaulted))
    return found


def unset(package: dict[str, str], bench: dict[str, str]) -> list[str]:
    """The defaulted ``__init__`` fields (``Class.field``) of the dataclasses
    in ``package`` that no construction there, or in ``bench``, sets."""
    trees = {path: ast.parse(src, filename=path) for path, src in package.items()}
    calls = calls_by_name(trees, bench)
    missing = []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            constructions = [call for _, call in calls.get(node.name, ())]
            constructions += [
                call
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
            ]
            for name, index, defaulted in init_fields(node):
                if defaulted and not any(passes(call, name, index) for call in constructions):
                    missing.append(f"{node.name}.{name}")
    return sorted(missing)


def unread(package: dict[str, str], bench: dict[str, str]) -> list[str]:
    """The ``__init__`` fields (``Class.field``) of the dataclasses in
    ``package`` whose name no ``Attribute`` load there, or in ``bench``,
    reads."""
    trees = {path: ast.parse(src, filename=path) for path, src in package.items()}
    readers = [ast.parse(src, filename=path) for path, src in bench.items()]
    readers += [tree for path, tree in trees.items() if os.path.basename(path) != "__init__.py"]
    reads = {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{node.name}.{name}"
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for name, _, _ in init_fields(node)
        if name not in reads
    )


def read_all(directory: str) -> dict[str, str]:
    sources = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources[path] = fh.read()
    return sources


@functools.cache
def package_unreached() -> tuple[str, ...]:
    return tuple(unreached(read_all(PACKAGE_DIR), read_all(BENCH_DIR)))


@functools.cache
def package_unread_constants() -> tuple[str, ...]:
    return tuple(unreached(read_all(PACKAGE_DIR), read_all(BENCH_DIR), defined=constants))


@functools.cache
def package_unpassed() -> tuple[str, ...]:
    return tuple(unpassed(read_all(PACKAGE_DIR), read_all(BENCH_DIR)))


@functools.cache
def package_unset() -> tuple[str, ...]:
    return tuple(unset(read_all(PACKAGE_DIR), read_all(BENCH_DIR)))


@functools.cache
def package_unread() -> tuple[str, ...]:
    return tuple(unread(read_all(PACKAGE_DIR), read_all(BENCH_DIR)))


def allowed_field(qualname: str) -> bool:
    return qualname in ALLOWED_FIELDS or qualname.partition(".")[0] in ALLOWED_FIELDS


def test_every_definition_is_reached():
    assert [q for q in package_unreached() if q.rpartition(".")[2] not in ALLOWED] == []


def test_every_allowed_name_is_still_unreached():
    """An allowlisted name that gains a caller, or is deleted, leaves the list."""
    found = {q.rpartition(".")[2] for q in package_unreached()}
    assert sorted(set(ALLOWED) - found) == []


def test_an_unreached_definition_is_found():
    package = {
        "pkg/a.py": (
            "def used():\n    return 1\n"
            "def lonely():\n    return lonely()\n"
            "class K:\n    def m(self):\n        return self.m()\n"
            "    def __len__(self):\n        return 0\n"
            "def traced():\n    pass\n"
        ),
        "pkg/b.py": "from .a import used\nx = used() + K().n\n",
        "pkg/__init__.py": "from .a import lonely\nlonely()\n",
    }
    bench = {"bench/t.py": 'TARGETS = (("a", "traced"),)\n'}
    assert unreached(package, bench) == ["K.m", "lonely"]


def test_every_constant_is_read():
    assert list(package_unread_constants()) == []


def test_an_unread_constant_is_found():
    package = {
        "pkg/a.py": (
            "USED = 1\nLOCAL = 2\nLONELY = 3\nSELF = SELF_TOO = 4\nTYPED: int = 5\n"
            "TRACED = 6\nlower = 7\n__all__ = ['LONELY']\n"
            "def f():\n    return LOCAL\n"
        ),
        "pkg/b.py": "from .a import USED, TYPED\nx = USED\n",
        "pkg/__init__.py": "from .a import LONELY\nprint(LONELY)\n",
    }
    bench = {"bench/t.py": 'TARGETS = (("a", "TRACED"),)\n'}
    assert unreached(package, bench, defined=constants) == [
        "LONELY", "SELF", "SELF_TOO", "TYPED"
    ]


def test_every_defaulted_parameter_is_passed():
    assert [p for p in package_unpassed() if p not in ALLOWED_PARAMETERS] == []


def test_every_allowed_parameter_is_still_unpassed():
    """An allowlisted parameter that gains a caller, or is deleted, leaves the list."""
    assert sorted(set(ALLOWED_PARAMETERS) - set(package_unpassed())) == []


def test_an_unpassed_parameter_is_found():
    package = {
        "pkg/a.py": (
            "def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, 0, 0, d=0, e=0)\n"
            "def g(x=1, y=2):\n    return x\n"
            "def h(x=1):\n    return x\n"
            "class K:\n"
            "    def m(self, p=1, q=2):\n        return p\n"
            "    @staticmethod\n    def s(p=1):\n        return p\n"
        ),
        "pkg/b.py": "from .a import f, g\nf(1, 2, d=3)\ng(*()); K().m(1); K.s(1)\n",
        "pkg/__init__.py": "from .a import h\nh(2)\n",
    }
    bench = {"bench/t.py": "import pkg\npkg.h(**{})\n"}
    assert unpassed(package, bench) == ["K.m.q", "f.c", "f.e"]


def test_every_defaulted_field_is_set():
    assert [f for f in package_unset() if not allowed_field(f)] == []


def test_every_allowed_field_is_still_unset():
    """An allowlisted class or field whose every default gains a setter,
    or that is deleted, leaves the list."""
    found = set(package_unset()) | {f.partition(".")[0] for f in package_unset()}
    assert sorted(set(ALLOWED_FIELDS) - found) == []


def test_an_unset_field_is_found():
    package = {
        "pkg/a.py": (
            "from dataclasses import dataclass, field\n"
            "from typing import ClassVar\n"
            "@dataclass\nclass D:\n"
            "    a: int\n    b: int = 1\n    c: int = 2\n"
            "    k: ClassVar[int] = 3\n"
            "    s: int = field(init=False)\n"
            "    f: list = field(default_factory=list)\n"
            "    @classmethod\n    def make(cls):\n        return cls(0, 1)\n"
            "@dataclass(frozen=True)\nclass E:\n    x: int = 0\n    y: int = 0\n"
            "class Plain:\n    z: int = 0\n"
            "@dataclass\nclass G:\n    w: int = 0\n"
        ),
        "pkg/b.py": "from .a import D, E\nE(**{})\n",
        "pkg/__init__.py": "from .a import G\nG(w=1)\n",
    }
    bench = {"bench/t.py": "import pkg\npkg.D(0, f=[])\n"}
    assert unset(package, bench) == ["D.c", "G.w"]


def test_every_field_is_read():
    assert [f for f in package_unread() if f not in ALLOWED_READS] == []


def test_every_allowed_read_is_still_unread():
    """An allowlisted field that gains a reader, or is deleted, leaves the list."""
    assert sorted(set(ALLOWED_READS) - set(package_unread())) == []


def test_an_unread_field_is_found():
    package = {
        "pkg/a.py": (
            "from dataclasses import dataclass, field\n"
            "from typing import ClassVar\n"
            "@dataclass\nclass D:\n"
            "    a: int\n    b: int = 1\n    c: int\n    w: int\n    t: int\n"
            "    k: ClassVar[int] = 3\n"
            "    s: int = field(init=False)\n"
            "    def total(self):\n        return self.a\n"
            "class Plain:\n    z: int = 0\n"
        ),
        "pkg/b.py": "def f(d):\n    d.c = 1\n    return getattr(d, 'w')\n",
        "pkg/__init__.py": "from .a import D\nprint(D(0, 0, 0, 0, 0).w)\n",
    }
    bench = {"bench/t.py": "def g(d):\n    return d.b, d.t\n"}
    assert unread(package, bench) == ["D.c", "D.w"]
