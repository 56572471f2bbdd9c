"""Guard for the benchmark tracer's view of the package (bench/spans.py).

The tracer looks each traced operator up in its own class's namespace and
wraps it by function identity.  An operator moved into a base class, or one
function object bound under two span names, breaks the per-layer benchmark;
this catches it without running a sample.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_its_own_function():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()  # a KeyError here names a target missing from its class
    try:
        expected = {f"{module}.{short}"
                    for module, table in spans.TARGETS.items()
                    for short in table.values()}
        assert set(tracer.originals) == expected
        labels_by_function = {}
        for label, original in tracer.originals.items():
            labels_by_function.setdefault(id(original), []).append(label)
        shared = [labels for labels in labels_by_function.values() if len(labels) > 1]
        assert shared == []
    finally:
        tracer.uninstall()
