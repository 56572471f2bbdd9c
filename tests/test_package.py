"""The package surface: one entry point per operation, and a stdlib-only runtime."""

import ast
import sys
from pathlib import Path

import pytest

import padiclift
from padiclift import buium, witt_zq, zp_ring
from padiclift.charsum import PiRingElem
from padiclift.gfq import FqElem, FqField, fq_make
from padiclift.quotient import QuotientElem
from padiclift.witt_zq import ZqElem, ZqRing
from padiclift.zp_ring import PAdicInt

SRC = Path(__file__).resolve().parent.parent / "src" / "padiclift"


def test_one_entry_point_per_operation():
    # an int becomes a PAdicInt through PAdicInt.from_integer, tau(v) is
    # zq_ring(v.field, N).teichmuller(v), and F_q inverts through the
    # quotient base's unit_inverse, x^(q-2), as Z_q and the pi-ring do; zero
    # is == 0, F_q has no precision to change, + alone checks the rings, and
    # a PAdicInt reads p and N from its ring
    removed = [(padiclift, "from_integer"), (zp_ring, "from_integer"),
               (padiclift, "teichmuller"), (witt_zq, "teichmuller"),
               (FqElem, "inverse"), (FqElem, "__truediv__"), (ZqRing, "naive_lift"),
               (FqElem, "is_zero"), (FqField, "with_precision"), (buium, "_check_pair"),
               (PAdicInt, "p"), (PAdicInt, "precision")]
    assert [(owner.__name__, name) for owner, name in removed if hasattr(owner, name)] == []
    # each element class holds its own copy of the base's operators, and +
    # and * serve both sides
    copied = ["__add__", "__sub__", "__neg__", "__mul__", "__pow__",
              "unit_inverse", "div_exact_by_p", "truncate"]
    classes = [FqElem, PAdicInt, ZqElem, PiRingElem]
    for name in copied:
        functions = [vars(cls)[name] for cls in classes]
        assert all(f.__code__ is vars(QuotientElem)[name].__code__ for f in functions), name
        assert len({id(f) for f in functions + [vars(QuotientElem)[name]]}) == 5, name
    for cls in classes:
        assert cls.__radd__ is cls.__add__ and cls.__rmul__ is cls.__mul__
    F5 = fq_make(5, 1)
    for invert in (lambda x: x.unit_inverse(), lambda x: x ** -1):
        with pytest.raises(ValueError, match="not a unit"):
            invert(F5.zero())


def test_runtime_imports_only_the_standard_library():
    # every module the package imports is its own or in the standard library
    # of the running Python, so the runtime stays stdlib-only on each one
    allowed = sys.stdlib_module_names | {"padiclift"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays in the package
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_no_module_imports_another_modules_private_name():
    # a name another module needs is public, as residue.check_odd_prime is
    # for gamma and the pi-ring
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module.partition(".")[0] == "padiclift":
                private += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_quotient_and_gfq_import_nothing_from_zp_ring():
    # int is the one scalar type of the quotient rings, so their base and
    # F_q on it do not depend on Z/p^N
    found = []
    for name in ("quotient.py", "gfq.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(name, n) for n in names if "zp_ring" in n.split(".")]
    assert found == []
