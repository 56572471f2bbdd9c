"""One benchmark sample: set up, run and check one workload in this process.

``run.py`` starts this file once per sample, in a fresh interpreter, so every
sample begins with cold caches (field, ring, Teichmuller, psi and dlog
tables), exactly as every ``padiclift`` CLI invocation does.  The sample
prints one JSON object on stdout:

- ``setup_s``: import of ``padiclift`` plus construction of every field and
  ring the workload names, timed before the work;
- ``run_s``: time of the work;
- ``parts``: named slices of ``run_s`` (``fermat_s`` and ``gk_s``);
- ``wall``: the plain wall times behind ``setup_s`` and ``run_s``, which are
  scaled to the nominal host speed (see ``Sample.timed``);
- ``checks``/``failures``: identity checks attempted and failed (a raising
  check counts as failed; the sample goes on);
- ``errors``: gates that failed (exit codes, pinned hashes and counts);
- ``output_sha256``: digest of everything the program printed or returned,
  so a traced sample can be compared byte for byte with an untraced one;
- ``peak_rss_mb``: this process's ``ru_maxrss``;
- ``layers``: with ``--trace 1``, the per-layer metrics of ``spans.py``.

Usage: ``python3 bench/workloads.py --workload verify --seed 0 --index 0
--trace 0`` (with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import time

# `padiclift verify --suite all --seed 0` stdout, pinned since the seed commit
VERIFY_SEED0_SHA256 = "2d4142838f451e7499f51acb115a5a5599789a56bcea3453c676658f6b973eff"
# identity checks in one default `verify --suite all` report; no suite's
# case count depends on the seed
VERIFY_CHECKS = 53924

# (p, n, N): larger n and N than verify's (3, 2, 4), so witt_zq dominates
ZQ_CONFIGS = ((3, 6, 10), (2, 8, 12))
ZQ_PAIRS = 3  # random pairs per configuration and sample

# (q, m) -> affine point count of x^m + y^m = 1 over F_q
FERMAT_CASES = {(169, 4): 136, (343, 3): 321, (729, 4): 888}
GK_CASES = ((7, 8), (13, 5))  # (p, N); every exponent 0 < a < p-1
PARTS = ("fermat_s", "gk_s")  # slices of run_s that fermat-gk times

# The speed of a shared host drifts by 10-40 % over seconds to minutes, so
# every timed segment is bracketed by this loop and scaled by its speed.
REF_LOOP = 400_000
REF_S = 0.030  # the loop's median time on the baseline host (see README)


def reference_s() -> float:
    """Wall time of a fixed integer loop that allocates nothing the GC tracks."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


class Sample:
    """Checks, gates and outputs of one sample."""

    def __init__(self):
        self.checks = 0
        self.failures = 0
        self.errors: list[str] = []
        self.times: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self._digest = hashlib.sha256()
        self._ref: float | None = None

    @contextlib.contextmanager
    def timed(self, *names: str):
        """Add one segment's time, scaled to the nominal host speed, to names.

        The segment's wall time is multiplied by REF_S over the mean of the
        reference loop's times just before and just after it; adjacent
        segments share the loop run between them.
        """
        before = self._ref if self._ref is not None else reference_s()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self._ref = after = reference_s()
            scaled = wall * 2 * REF_S / (before + after)
            for name in names:
                self.times[name] = self.times.get(name, 0.0) + scaled
                self.wall[name] = self.wall.get(name, 0.0) + wall

    def output(self, text: str) -> None:
        self._digest.update(text.encode())
        self._digest.update(b"\n")

    def check(self, fn, *args) -> None:
        """Run one identity check; fn returns (passed, output text)."""
        self.checks += 1
        try:
            passed, text = fn(*args)
        except Exception as exc:  # a raising check is a failed check
            passed, text = False, f"raised {type(exc).__name__}: {exc}"
        self.failures += not passed
        self.output(text)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """padiclift's CLI in-process: exit code and stdout (stderr is dropped)."""
    from padiclift import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# verify: the product's main output, `padiclift verify --suite all`

def setup_verify() -> None:
    """verify names no field or ring; its suites build their own."""


def run_verify(sample: Sample, seed: int, index: int) -> None:
    vseed = seed + index  # consecutive seeds starting at the workload seed
    try:
        with sample.timed("run_s"):
            code, out = _cli(["verify", "--suite", "all", "--seed", str(vseed)])
        report = json.loads(out)
    except Exception as exc:
        sample.checks += VERIFY_CHECKS
        sample.failures += VERIFY_CHECKS
        sample.errors.append(f"verify --seed {vseed} raised {type(exc).__name__}: {exc}")
        return
    sample.output(out)
    # aggregate rows carry the counts; per-failure detail rows repeat them
    aggregates = [r for r in report["records"] if r["passed"] or r["failures"]]
    checks = sum(r["checks"] for r in aggregates)
    sample.checks += checks
    sample.failures += sum(r["failures"] for r in aggregates)
    sample.gate(code == 0, f"verify --seed {vseed} exited {code}")
    sample.gate(report["passed"] is True, f"verify --seed {vseed} did not pass")
    sample.gate(checks == VERIFY_CHECKS, f"verify --seed {vseed} ran {checks} checks")
    if vseed == 0:
        digest = hashlib.sha256(out.encode()).hexdigest()
        sample.gate(digest == VERIFY_SEED0_SHA256, f"verify --seed 0 stdout sha256 {digest}")


# ---------------------------------------------------------------------------
# zq-lift: Buium laws and Frobenius round trips in Z_q

def zq_inputs(seed: int, index: int) -> list[tuple[tuple[int, int, int], list]]:
    """Coefficient lists of the random pairs, per configuration."""
    out = []
    for p, n, N in ZQ_CONFIGS:
        rng = random.Random(f"zq-lift/{seed}/{index}/{p},{n},{N}")
        bound = p**N
        pairs = [tuple([rng.randrange(bound) for _ in range(n)] for _ in range(2))
                 for _ in range(ZQ_PAIRS)]
        out.append(((p, n, N), pairs))
    return out


def setup_zq_lift() -> None:
    from padiclift import gfq, witt_zq
    for p, n, N in ZQ_CONFIGS:
        witt_zq.zq_ring(gfq.fq_make(p, n), N)


def _law(rule, x, y):
    rep = rule(x, y)
    return rep.passed, rep.lhs.to_text()


def _round_trip(x):
    """phi^n(x) == x."""
    from padiclift import witt_zq
    z = x
    for _ in range(x.ring.n):
        z = witt_zq.frobenius_lift(z)
    return z == x, z.to_text()


def _frobenius_mod_p(x):
    """phi(x) == x^p mod p."""
    from padiclift import witt_zq
    fx = witt_zq.frobenius_lift(x)
    return fx.reduce_mod_p() == (x**x.ring.p).reduce_mod_p(), fx.to_text()


def run_zq_lift(sample: Sample, seed: int, index: int) -> None:
    from padiclift import buium, gfq, witt_zq
    for (p, n, N), pairs in zq_inputs(seed, index):
        with sample.timed("run_s"):
            ring = witt_zq.zq_ring(gfq.fq_make(p, n), N)
            for xs, ys in pairs:
                x, y = ring.element(xs), ring.element(ys)
                sample.check(_law, buium.verify_sum_rule, x, y)
                sample.check(_law, buium.verify_product_rule, x, y)
                sample.check(_round_trip, x)
                sample.check(_frobenius_mod_p, x)


# ---------------------------------------------------------------------------
# fermat-gk: the other two entry points, `fermat-count` and `gk-check`

def setup_fermat_gk() -> None:
    from padiclift import charsum, witt_zq
    for q, m in FERMAT_CASES:
        witt_zq.zq_ring(charsum.field_for_order(q), charsum.fermat_precision(q, m))


def _fermat(q: int, m: int, expected: int):
    code, out = _cli(["fermat-count", "-q", str(q), "-m", str(m)])
    row = json.loads(out)
    ok = code == 0 and row["match"] is True and row["brute"] == expected
    return ok, out


def run_fermat_gk(sample: Sample, seed: int, index: int) -> None:
    del seed, index  # deterministic inputs; the seed is only recorded
    for (q, m), expected in FERMAT_CASES.items():
        with sample.timed("run_s", "fermat_s"):
            sample.check(_fermat, q, m, expected)
    for p, N in GK_CASES:
        try:
            with sample.timed("run_s", "gk_s"):
                code, out = _cli(["gk-check", "-p", str(p), "-N", str(N)])
            rows = json.loads(out)
        except Exception as exc:
            sample.checks += p - 2
            sample.failures += p - 2
            sample.errors.append(f"gk-check -p {p} -N {N} raised {type(exc).__name__}: {exc}")
            continue
        sample.output(out)
        sample.gate(code == 0, f"gk-check -p {p} -N {N} exited {code}")
        sample.gate(len(rows) == p - 2, f"gk-check -p {p} -N {N} gave {len(rows)} rows")
        for row in rows:
            sample.checks += 1
            sample.failures += row["passed"] is not True


WORKLOADS = {
    "verify": (setup_verify, run_verify),
    "zq-lift": (setup_zq_lift, run_zq_lift),
    "fermat-gk": (setup_fermat_gk, run_fermat_gk),
}


def run_sample(workload: str, seed: int, index: int, traced: bool) -> dict:
    setup, work = WORKLOADS[workload]
    sample = Sample()
    tracer = None
    with sample.timed("setup_s"):
        import padiclift  # noqa: F401  (the import is part of set-up)
        if traced:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        setup()
    work(sample, seed, index)
    result = {
        "workload": workload, "seed": seed, "index": index, "traced": traced,
        "setup_s": sample.times["setup_s"], "run_s": sample.times["run_s"],
        "parts": {name: sample.times[name] for name in PARTS if name in sample.times},
        "wall": sample.wall,
        "checks": sample.checks, "failures": sample.failures, "errors": sample.errors,
        "output_sha256": sample.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        from padiclift import charsum
        terms = sum(charsum.series_terms_used(p, N) for p, N in tracer.series_keys)
        result["layers"] = spans.layer_metrics(tracer, terms)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="sample number within the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_sample(args.workload, args.seed, args.index, bool(args.trace))))


if __name__ == "__main__":
    main()
