"""Span bookkeeping and the wrapping of every layer binding."""

import pytest

import spans


def test_self_and_inclusive_time_on_a_synthetic_tree():
    # a[0,10] > b[1,4] > c[2,3];  a > b[5,9] > b[6,7] (recursion);  a[11,12]
    labels = ["a", "b", "c"]
    names = [0, 1, 2, 1, 1, 0]
    parents = [-1, 0, 1, 0, 3, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 12.0]
    got = spans.summarize(labels, names, parents, starts, ends)
    assert got == {
        "a": (2, 11.0, (10 - 3 - 4) + 1),
        "b": (3, 3.0 + 4.0, (3 - 1) + (4 - 1) + 1),
        "c": (1, 1.0, 1.0),
    }


def test_recorded_spans_nest_and_fold():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    with pytest.raises(TypeError):
        inner(None)  # a raising call still closes its span
    assert list(tracer.parents) == [-1, 0, 0, -1]
    stats = tracer.summary()
    assert stats["m.outer"][0] == 1 and stats["m.inner"][0] == 3
    calls, incl, own = stats["m.outer"]
    assert 0 <= own <= incl


def _originals_left(originals):
    ids = {id(fn) for fn in originals}
    left = []
    for container, key, value in spans.bindings():
        fn = value.__func__ if isinstance(value, classmethod) else value
        if id(fn) in ids:
            left.append(key)
    return left


def test_every_binding_resolves_to_a_wrapper():
    import padiclift
    from padiclift import buium, charsum, cli, suites, witt_zq, zp_ring

    before = [(id(c), k, v) for c, k, v in spans.bindings()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _originals_left(tracer.originals.values()) == []
        wrapped = {id(v) for _, _, v in spans.bindings()}
        for label, original in tracer.originals.items():
            assert id(original) not in wrapped, label
        # re-bound imports, dict-held functions, aliased reflected operators
        assert buium.frobenius_lift.__wrapped__ is tracer.originals["witt_zq.frobenius_lift"]
        assert cli.frobenius_lift is buium.frobenius_lift is witt_zq.frobenius_lift
        assert charsum.teichmuller_int is witt_zq.teichmuller_int
        assert suites.jacobi_sum is charsum.jacobi_sum
        assert padiclift.fq_make is cli.fq_make
        assert suites.SUITE_RUNNERS["carry"] is suites.run_carry_suite
        assert hasattr(suites.run_carry_suite, "__wrapped__")
        assert witt_zq.ZqElem.__rmul__ is witt_zq.ZqElem.__mul__
        assert hasattr(witt_zq.ZqElem.__mul__, "__wrapped__")
        assert zp_ring.PAdicInt.__radd__ is zp_ring.PAdicInt.__add__
        assert hasattr(vars(zp_ring.PAdicInt)["from_integer"].__func__, "__wrapped__")
        assert zp_ring.PAdicInt.from_integer(7, 5, 2).digits == (2, 1)
    finally:
        tracer.uninstall()
    assert [(id(c), k, v) for c, k, v in spans.bindings()] == before
