"""Real samples of every workload, untraced and traced, as run.py starts them."""

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import workloads

# per-layer metrics the benchmark's README lists for each workload
NONZERO = {
    "verify": [
        "zp_ring.from_integer.calls", "zp_ring.from_integer.self_s",
        "zp_ring.add.calls", "zp_ring.add.self_s", "zp_ring.self_s",
        "witt_zq.mul.calls", "witt_zq.mul.self_s", "witt_zq.self_s",
        "witt_zq.frobenius_lift.calls", "witt_zq.frobenius_lift.s", "witt_zq.teich_digits.s",
        "buium.p_derivation.calls", "buium.p_derivation.s", "buium.ring_carry.s",
        "buium.self_s", "gfq.fq_make.s",
        "charsum.gauss_sum.s", "charsum.pi_mul.calls", "charsum.pi_mul.self_s",
        "charsum.series_terms", "charsum.self_s",
        "cohomo.cocycle2_check.calls", "cohomo.self_s",
        "suites.carry.s", "suites.buium.s", "suites.gamma.s", "suites.charsum.s",
        "cli.report_s",
    ],
    "zq-lift": [
        "zp_ring.from_integer.calls", "zp_ring.from_integer.self_s",
        "witt_zq.mul.calls", "witt_zq.mul.self_s", "witt_zq.self_s",
        "witt_zq.frobenius_lift.calls", "witt_zq.frobenius_lift.s", "witt_zq.teich_digits.s",
        "witt_zq.teichmuller.calls", "witt_zq.teichmuller.self_s",
        "witt_zq.teichmuller.distinct", "witt_zq.teichmuller.hit_ratio",
        "buium.p_derivation.calls", "buium.p_derivation.s", "buium.ring_carry.s",
        "buium.self_s", "gfq.fq_make.s",
    ],
    "fermat-gk": [
        "witt_zq.mul.calls", "witt_zq.mul.self_s", "witt_zq.self_s",
        "witt_zq.teichmuller.calls", "witt_zq.teichmuller.self_s",
        "witt_zq.teichmuller.distinct", "witt_zq.teichmuller.hit_ratio",
        "gamma.gamma_p_integer.calls", "gamma.gamma_p_integer.self_s", "gamma.loop_steps",
        "gfq.fq_make.s", "gfq.pow.calls", "gfq.pow.self_s", "gfq.add.calls", "gfq.add.self_s",
        "charsum.count_fermat_brute.s", "charsum.count_fermat_jacobi.s",
        "charsum.jacobi_sum.calls", "charsum.char_eval.calls",
        "charsum.gauss_sum.s", "charsum.pi_mul.calls", "charsum.pi_mul.self_s",
        "charsum.series_terms", "charsum.self_s",
    ],
}
# fermat-gk calls neither Frobenius nor buium
ZERO = {"fermat-gk": ["witt_zq.frobenius_lift.calls", "buium.p_derivation.calls"],
        "zq-lift": ["gamma.gamma_p_integer.calls", "charsum.self_s", "cohomo.self_s"]}


@pytest.fixture(scope="module", params=sorted(NONZERO))
def pair(request):
    workload = request.param
    plain = run.run_sample(workload, 0, 0, False, timeout=120)
    traced = run.run_sample(workload, 0, 0, True, timeout=120)
    return workload, plain, traced


def test_samples_pass_their_checks(pair):
    _, plain, traced = pair
    for sample in (plain, traced):
        assert sample["checks"] > 0
        assert sample["failures"] == 0 and sample["errors"] == []


def test_traced_outputs_are_byte_identical(pair):
    _, plain, traced = pair
    assert plain["output_sha256"] == traced["output_sha256"]
    assert "layers" not in plain


def test_listed_layer_metrics_are_nonzero(pair):
    workload, _, traced = pair
    layers = traced["layers"]
    assert [m for m in NONZERO[workload] if not layers.get(m)] == []
    assert [m for m in ZERO.get(workload, []) if layers.get(m)] == []
    assert 0 < layers.get("witt_zq.teichmuller.hit_ratio", 0) < 1


def test_every_per_layer_metric_is_listed_somewhere():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m for names in NONZERO.values() for m in names}
    listed |= {"trace.overhead_frac", *run.PARTS}
    assert {m["name"] for m in spec["per_layer"]} == listed
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timed_segments_scale_wall_time_by_the_reference_loop(monkeypatch):
    clock = iter([10.0, 11.0, 20.0, 22.0])
    refs = iter([0.02, 0.04, 0.03])  # before 1, between 1 and 2, after 2
    monkeypatch.setattr(workloads, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(workloads, "reference_s", lambda: next(refs))
    sample = workloads.Sample()
    with sample.timed("run_s", "fermat_s"):
        pass
    with sample.timed("run_s"):
        pass
    first = 1.0 * workloads.REF_S / 0.03
    second = 2.0 * workloads.REF_S / 0.035
    assert sample.wall == {"run_s": 3.0, "fermat_s": 1.0}
    assert sample.times == {"run_s": pytest.approx(first + second),
                            "fermat_s": pytest.approx(first)}
