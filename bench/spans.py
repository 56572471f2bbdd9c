"""Spans around the public functions and operators of every padiclift layer.

The benchmark measures the layers from outside: ``Tracer.install`` replaces
each function or operator named in ``TARGETS`` by a wrapper that records a
span (name, start, end, parent span) and calls the original.  Two things make
the replacement more than a ``setattr`` per target:

- modules re-bind names they import (``buium.frobenius_lift``,
  ``charsum.teichmuller_int``, ``suites.jacobi_sum``, ``cli.fq_make``, and
  the re-exports in ``padiclift/__init__``), and ``suites.SUITE_RUNNERS``
  holds the suite functions in a dict;
- ``__radd__``/``__rmul__`` are the same function objects as
  ``__add__``/``__mul__``.

So install scans every module namespace, every class defined in the
package, and every module-level dict, and swaps each binding that *is* a
target for that target's one wrapper.  ``uninstall`` restores them.

Spans stay in memory (four flat arrays) until ``summary`` folds them into
per-name call counts, inclusive time and self time.  Self time is a span's
duration minus the time covered by its child spans; inclusive time counts
only the outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import time
from array import array

PACKAGE = "padiclift"

# module -> {qualified name in that module: span name within the layer}
TARGETS = {
    "gfq": {
        "fq_make": "fq_make",
        "FqField.dlog": "dlog",
        "FqElem.__add__": "add",
        "FqElem.__sub__": "sub",
        "FqElem.__mul__": "mul",
        "FqElem.__pow__": "pow",
    },
    "zp_ring": {
        "PAdicInt.from_integer": "from_integer",
        "PAdicInt.__add__": "add",
        "PAdicInt.__sub__": "sub",
        "PAdicInt.__neg__": "neg",
        "PAdicInt.__mul__": "mul",
        "PAdicInt.__pow__": "pow",
        "PAdicInt.unit_inverse": "unit_inverse",
        "PAdicInt.div_exact_by_p": "div_exact_by_p",
        "PAdicInt.truncate": "truncate",
        "buium_carry": "buium_carry",
    },
    "witt_zq": {
        "zq_ring": "zq_ring",
        "ZqRing.teichmuller": "teichmuller",
        "ZqElem.__add__": "add",
        "ZqElem.__sub__": "sub",
        "ZqElem.__neg__": "neg",
        "ZqElem.__mul__": "mul",
        "ZqElem.__pow__": "pow",
        "ZqElem.unit_inverse": "unit_inverse",
        "ZqElem.div_exact_by_p": "div_exact_by_p",
        "ZqElem.truncate": "truncate",
        "teichmuller_int": "teichmuller_int",
        "teich_digits": "teich_digits",
        "from_teich_digits": "from_teich_digits",
        "frobenius_lift": "frobenius_lift",
    },
    "buium": {
        "p_derivation": "p_derivation",
        "ring_carry": "ring_carry",
        "verify_sum_rule": "verify_sum_rule",
        "verify_product_rule": "verify_product_rule",
        "fermat_quotient": "fermat_quotient",
    },
    "gamma": {
        "gamma_p_integer": "gamma_p_integer",
        "gamma_p": "gamma_p",
        "beta_p": "beta_p",
        "functional_equation_check": "functional_equation_check",
    },
    "charsum": {
        "field_for_order": "field_for_order",
        # char_eval delegates to MultChar.eval, which char_convolution calls
        "MultChar.eval": "char_eval",
        "char_convolution": "char_convolution",
        "jacobi_sum": "jacobi_sum",
        "pi_ring": "pi_ring",
        "PiRingElem.__add__": "pi_add",
        "PiRingElem.__sub__": "pi_sub",
        "PiRingElem.__mul__": "pi_mul",
        "PiRingElem.__pow__": "pi_pow",
        "PiRingElem.unit_inverse": "pi_unit_inverse",
        "additive_character": "additive_character",
        "series_terms_used": "series_terms_used",
        "fermat_precision": "fermat_precision",
        "gauss_sum": "gauss_sum",
        "gauss_coboundary": "gauss_coboundary",
        "gross_koblitz_check": "gross_koblitz_check",
        "count_fermat_brute": "count_fermat_brute",
        "count_fermat_jacobi": "count_fermat_jacobi",
    },
    "cohomo": {
        "coboundary2": "coboundary2",
        "cocycle2_check": "cocycle2_check",
        "coboundary_of_coboundary_is_trivial": "coboundary_of_coboundary_is_trivial",
    },
    "suites": {
        "run_suites": "run_suites",
        "run_carry_suite": "carry",
        "run_buium_suite": "buium",
        "run_gamma_suite": "gamma",
        "run_charsum_suite": "charsum",
    },
    "cli": {
        "main": "main",
    },
}


def _package_modules():
    package = importlib.import_module(PACKAGE)
    modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in TARGETS]
    return modules


def _resolve(module, qualname):
    """The callable a target names; a classmethod resolves to its function."""
    owner, _, attr = qualname.rpartition(".")
    scope = getattr(module, owner) if owner else module
    value = vars(scope)[attr]
    return value.__func__ if isinstance(value, classmethod) else value


def bindings():
    """Every (namespace dict, key, value) in the package that could hold a target."""
    for module in _package_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            yield namespace, key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in list(vars(value).items()):
                    yield value, k, v


class Tracer:
    """Span recorder for the targets above; one per process."""

    def __init__(self):
        self.labels: list[str] = []
        self.names: list[int] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self.originals: dict[str, object] = {}
        # counts measured from the arguments, not from inside the program
        self.teich_keys: set = set()
        self.loop_steps = 0
        self.series_keys: set = set()

    # -- recording --------------------------------------------------------
    def wrap(self, label: str, fn, note=None):
        """A function that records one span per call to fn."""
        nid = len(self.labels)
        self.labels.append(label)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if note is not None:
                note(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", label)
        span.__qualname__ = getattr(fn, "__qualname__", label)
        return span

    def _notes(self):
        def teich(args):
            ring, v = args[0], args[1]
            self.teich_keys.add((ring.p, ring.n, ring.precision, v.coeffs))

        def gamma_steps(args):
            self.loop_steps += args[0]

        def series(args):
            self.series_keys.add((args[0], args[1]))

        def series_after_exponent(args):
            self.series_keys.add((args[1], args[2]))

        return {
            "witt_zq.teichmuller": teich,
            "gamma.gamma_p_integer": gamma_steps,
            "charsum.series_terms_used": series,
            "charsum.additive_character": series_after_exponent,
            "charsum.gauss_sum": series_after_exponent,
        }

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        notes = self._notes()
        by_id = {}
        for modname, table in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            for qualname, short in table.items():
                label = f"{modname}.{short}"
                original = _resolve(module, qualname)
                self.originals[label] = original
                by_id[id(original)] = self.wrap(label, original, notes.get(label))
        for container, key, value in list(bindings()):
            if isinstance(value, classmethod) and id(value.__func__) in by_id:
                new = classmethod(by_id[id(value.__func__)])
            elif id(value) in by_id:
                new = by_id[id(value)]
            else:
                continue
            self._set(container, key, new)
            self._patched.append((container, key, value))

    def uninstall(self) -> None:
        while self._patched:
            container, key, value = self._patched.pop()
            self._set(container, key, value)

    @staticmethod
    def _set(container, key, value):
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    # -- aggregation ----------------------------------------------------------
    def summary(self) -> dict[str, tuple[int, float, float]]:
        """label -> (calls, inclusive seconds, self seconds), over closed spans."""
        return summarize(self.labels, self.names, self.parents, self.starts, self.ends)


def summarize(labels, names, parents, starts, ends):
    """Fold a span list in start order into per-label calls, inclusive and self time.

    A span's parent is open when the span starts, so walking the spans in
    order with a stack of open ancestors finds, for each span, whether an
    ancestor carries the same label (then its time is already inside that
    ancestor's inclusive time).
    """
    k = len(labels)
    calls = [0] * k
    incl = [0.0] * k
    own = [0.0] * k
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    active = [0] * k
    stack: list[int] = []
    for i, nid in enumerate(names):
        parent = parents[i]
        while stack and stack[-1] != parent:
            active[names[stack.pop()]] -= 1
        dur = ends[i] - starts[i]
        calls[nid] += 1
        own[nid] += dur - covered[i]
        if not active[nid]:
            incl[nid] += dur
        active[nid] += 1
        stack.append(i)
    return {labels[j]: (calls[j], incl[j], own[j]) for j in range(k) if calls[j]}


def layer_metrics(tracer: Tracer, series_terms: int) -> dict[str, float]:
    """Per-span and per-layer metrics of one traced sample.

    ``<span>.calls``, ``<span>.s`` (inclusive), ``<span>.self_s``,
    ``<layer>.self_s``, plus the argument-derived counts.
    """
    out: dict[str, float] = {}
    for label, (calls, incl, own) in tracer.summary().items():
        out[f"{label}.calls"] = calls
        out[f"{label}.s"] = incl
        out[f"{label}.self_s"] = own
        layer = label.split(".")[0] + ".self_s"
        out[layer] = out.get(layer, 0.0) + own
    calls = out.get("witt_zq.teichmuller.calls", 0)
    out["witt_zq.teichmuller.distinct"] = len(tracer.teich_keys)
    out["witt_zq.teichmuller.hit_ratio"] = 1 - len(tracer.teich_keys) / calls if calls else 0.0
    out["gamma.loop_steps"] = tracer.loop_steps
    out["charsum.series_terms"] = series_terms
    # cli.main minus the layers it calls: argument parsing and serialisation
    out["cli.report_s"] = out.get("cli.main.self_s", 0.0)
    return out
