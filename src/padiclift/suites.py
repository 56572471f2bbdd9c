"""Reproducible verification suites behind the CLI's verify subcommand.

Each suite runs a battery of identity checks and returns CheckRecord rows:
aggregate rows carry check/failure counts, and every failing case is also
emitted individually with its inputs and residual so a red run is
diagnosable from the report alone.  All randomness flows through the
counter-based stream in rng.py, seeded per sampling suite with fixed
offsets, so a (config, seed) pair reproduces byte-identical reports.

RunConfig and CheckRecord are named tuples, like the reports the checks
return; jsonable turns any of them into a dict in field order.  A RunConfig
field left at None selects the suite's default; any value given, 0 too, is
used as given, so a bad -p, -n or -N fails in the ring it reaches instead
of running the default under the wrong label.  p must be prime, n is
given only together with p, and count is at least 1.
"""

from __future__ import annotations

from collections import namedtuple

from . import buium, charsum, cohomo, gamma
from .charsum import PiRingElem, jacobi_sum, pi_ring
from .gfq import FqElem, fq_make
from .residue import is_prime, to_digits
from .rng import CounterRng
from .witt_zq import ZqElem, ZqRing, zq_ring
from .zp_ring import PAdicInt, carry_cocycle, cocycle_sum, from_integer

MAX_FAILURE_RECORDS = 20  # per sub-check, to keep reports bounded

# a passing case's (inputs, passed, residual): the collector reads inputs and
# residual of failing cases only, so the exhaustive sweeps yield this constant
PASSED = (None, True, None)

# the carry and charsum suites draw no random numbers
SUITE_SEED_OFFSET = {
    "buium": 0x20,
    "gamma": 0x30,
}


RunConfig = namedtuple("RunConfig", "p n precision seed count suite",
                       defaults=(None, None, None, 0, 200, "all"))

CheckRecord = namedtuple("CheckRecord", "suite op inputs passed checks failures residual",
                         defaults=(1, 0, None))


def _given(value, default):
    """A RunConfig field, or the suite's default when it was left at None."""
    return default if value is None else value


def jsonable(v):
    """Reduce package values to JSON-ready data: flat, self-describing."""
    if isinstance(v, PAdicInt):
        return {"p": v.p, "n": 1, "N": v.precision, "digits": list(v.digits)}
    if isinstance(v, ZqElem):
        return {"p": v.ring.p, "n": v.ring.n, "N": v.ring.precision,
                "coeffs": _digit_lists(v)}
    if isinstance(v, PiRingElem):
        return {"p": v.ring.p, "n": 1, "N": v.ring.precision,
                "pi_coeffs": _digit_lists(v)}
    if isinstance(v, FqElem):
        return {"p": v.field.p, "n": v.field.n, "coeffs": list(v.coeffs)}
    if hasattr(v, "_asdict"):  # a report or record, before the tuple branch
        return {k: jsonable(x) for k, x in v._asdict().items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return repr(v)


def _digit_lists(v) -> list:
    """The base-p digits of each residue of a Z_q or pi-ring element."""
    p, N = v.ring.p, v.ring.precision
    # a pi-ring element at large p is mostly zero residues
    return [list(to_digits(c, p, N)) if c else [0] * N for c in v.residues]


class _Collector:
    """Accumulates one aggregate record per sub-check plus failure detail."""

    def __init__(self, suite: str, records: list[CheckRecord]):
        self.suite = suite
        self.records = records

    def run(self, op: str, inputs: dict, cases) -> None:
        checks = failures = 0
        detail: list[CheckRecord] = []
        for case_inputs, passed, residual in cases:
            checks += 1
            if not passed:
                failures += 1
                if len(detail) < MAX_FAILURE_RECORDS:
                    detail.append(CheckRecord(self.suite, op, jsonable(case_inputs),
                                              False, residual=jsonable(residual)))
        self.records.append(CheckRecord(self.suite, op, jsonable(inputs),
                                        failures == 0, checks, failures))
        self.records.extend(detail)


# ---------------------------------------------------------------------------
# carry suite

def run_carry_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    col = _Collector("carry", records)
    ps = [cfg.p] if cfg.p is not None else [2, 3, 5, 7, 11, 13]

    for p in ps:
        F = cohomo.GroupValuedMap(lambda a, b, p=p: carry_cocycle(a, b, p),
                                  cohomo.ADDITIVE, name="carry_cocycle",
                                  combine=lambda a, b, p=p: (a + b) % p)

        def cocycle_cases(p=p, F=F):
            for a in range(p):
                for b in range(p):
                    for c in range(p):
                        rep = cohomo.cocycle2_check(F, a, b, c)
                        if rep.passed:
                            yield PASSED
                        else:
                            yield {"p": p, "triple": [a, b, c]}, False, rep.residual

        col.run("carry_cocycle/cocycle2", {"p": p, "triples": p**3}, cocycle_cases())

        def star_cases(p=p):
            mod = p * p
            operands = [from_integer(x, p, 2) for x in range(mod)]
            for x in range(mod):
                for y in range(mod):
                    got = cocycle_sum(operands[x], operands[y])
                    want = operands[(x + y) % mod]
                    if got == want:
                        yield PASSED
                    else:
                        yield {"p": p, "pair": [x, y]}, False, got - want

        col.run("add/star_product_vs_integers", {"p": p, "pairs": p**4}, star_cases())
    return records


# ---------------------------------------------------------------------------
# buium suite

def sample_zq(ring: ZqRing, rng: CounterRng) -> ZqElem:
    bound = ring.p**ring.precision
    return ring.element([rng.below(bound) for _ in range(ring.n)])


def sample_padic(p: int, precision: int, rng: CounterRng) -> PAdicInt:
    return PAdicInt.from_integer(rng.below(p**precision), p, precision)


def run_buium_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    col = _Collector("buium", records)
    rng = CounterRng(cfg.seed + SUITE_SEED_OFFSET["buium"])
    if cfg.p is not None:
        configs = [(cfg.p, _given(cfg.n, 1), _given(cfg.precision, 4))]
    else:  # -N alone sets the precision of every default config
        configs = [(p, n, _given(cfg.precision, N))
                   for p, n, N in [(5, 1, 4), (3, 2, 4), (7, 1, 3)]]

    for p, n, N in configs:
        ring = zq_ring(fq_make(p, n), N)
        pairs = [(sample_zq(ring, rng), sample_zq(ring, rng))
                 for _ in range(cfg.count)]

        def sum_cases(pairs=pairs, p=p, n=n, N=N):
            for x, y in pairs:
                rep = buium.verify_sum_rule(x, y)
                yield {"p": p, "n": n, "N": N, "x": x, "y": y}, rep.passed, rep.residual

        def product_cases(pairs=pairs, p=p, n=n, N=N):
            for x, y in pairs:
                rep = buium.verify_product_rule(x, y)
                yield {"p": p, "n": n, "N": N, "x": x, "y": y}, rep.passed, rep.residual

        base = {"p": p, "n": n, "N": N, "pairs": cfg.count, "seed": cfg.seed}
        col.run("verify_sum_rule", base, sum_cases())
        col.run("verify_product_rule", base, product_cases())

        def teich_cases(ring=ring, p=p, n=n, N=N):
            zero = ring.with_precision(N - 1).zero()
            for v in ring.field.elements():
                d = buium.p_derivation(ring.teichmuller(v))
                yield {"p": p, "n": n, "N": N, "v": v}, d == zero, d

        col.run("p_derivation/vanishes_on_teichmuller",
                {"p": p, "n": n, "N": N, "values": p**n}, teich_cases())

    fq = buium.fermat_quotient(2, 5, 3)
    col.run("fermat_quotient/spot", {"k": 2, "p": 5, "N": 3},
            [({"k": 2}, fq.value == 19, fq)])
    return records


# ---------------------------------------------------------------------------
# gamma suite

def run_gamma_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    col = _Collector("gamma", records)
    ps = [cfg.p] if cfg.p is not None else [3, 5, 7]
    rng = CounterRng(cfg.seed + SUITE_SEED_OFFSET["gamma"])

    for p in ps:
        N = 3
        values = [gamma.gamma_p_integer(m, p, N) for m in range(p**N)]

        def feq_cases(p=p, N=N):
            for m in range(p**N):
                rep = gamma.functional_equation_check(from_integer(m, p, N))
                yield {"p": p, "x": m}, rep.passed, rep
        col.run("functional_equation", {"p": p, "N": N, "sweep": p**N}, feq_cases())

        def unit_cases(p=p):
            for m, v in enumerate(values):
                yield {"p": p, "m": m}, v.is_unit(), v
        col.run("gamma_p/unit_valued", {"p": p, "N": N, "sweep": p**N}, unit_cases())

        def continuity_cases(p=p, N=N):
            for k in (1, 2):
                classes: dict[int, PAdicInt] = {}
                for m, v in enumerate(values):
                    r = m % p**k
                    vk = v.truncate(k)
                    if r in classes:
                        yield ({"p": p, "k": k, "m": m}, classes[r] == vk,
                               vk - classes[r])
                    else:
                        classes[r] = vk
        col.run("gamma_p/continuity", {"p": p, "N": N, "k_max": 2},
                continuity_cases())

    # Beta as the multiplicative coboundary of Gamma, plus its cocycle law
    p, N = _given(cfg.p, 5), _given(cfg.precision, 3)
    gmap = cohomo.GroupValuedMap(gamma.gamma_p, cohomo.MULTIPLICATIVE, name="gamma_p")
    bmap = cohomo.GroupValuedMap(gamma.beta_p, cohomo.MULTIPLICATIVE, name="beta_p")

    def beta_cases():
        for _ in range(cfg.count):
            a = sample_padic(p, N, rng)
            b = sample_padic(p, N, rng)
            c = sample_padic(p, N, rng)
            want = gamma.beta_p(a, b)
            got = cohomo.coboundary2(gmap, a, b)
            ok1 = want == got
            rep = cohomo.cocycle2_check(bmap, a, b, c)
            yield ({"p": p, "N": N, "a": a, "b": b, "c": c},
                   ok1 and rep.passed, rep.residual)

    col.run("beta_p/coboundary_and_cocycle",
            {"p": p, "N": N, "triples": cfg.count, "seed": cfg.seed}, beta_cases())
    return records


# ---------------------------------------------------------------------------
# charsum suite

def run_charsum_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    col = _Collector("charsum", records)
    ps = [cfg.p] if cfg.p is not None else [5, 7]

    for p in ps:
        N = _given(cfg.precision, 3)
        ring = pi_ring(p, N)
        one = ring.one()

        def gate_cases(p=p, N=N, ring=ring, one=one):
            psi1 = charsum.additive_character(1, p, N)
            yield {"p": p, "gate": "psi(1) != 1"}, psi1 != one, psi1
            yield {"p": p, "gate": "psi(1)^p == 1"}, psi1**p == one, psi1**p
            total = ring.zero()
            for c in range(p):
                total = total + charsum.additive_character(c, p, N)
            yield {"p": p, "gate": "sum psi == 0"}, total == ring.zero(), total
            for a in range(p):
                for b in range(p):
                    got = charsum.additive_character(a, p, N) \
                        * charsum.additive_character(b, p, N)
                    want = charsum.additive_character(a + b, p, N)
                    yield {"p": p, "gate": "psi additive", "pair": [a, b]}, \
                        got == want, got - want

        col.run("additive_character/gates", {"p": p, "N": N}, gate_cases())

        def norm_cases(p=p, N=N, ring=ring):
            for a in range(1, p - 1):
                lhs = charsum.gauss_sum(a, p, N) \
                    * charsum.gauss_sum(-a, p, N)
                rhs = ring.from_int(p if a % 2 == 0 else -p)
                yield {"p": p, "a": a}, lhs == rhs, lhs - rhs

        col.run("gauss_sum/norm_relation", {"p": p, "N": N}, norm_cases())

        field = fq_make(p, 1)
        Ncob = max(N, 4)

        def coboundary_cases(p=p, field=field, Ncob=Ncob):
            d = p - 1
            for a in range(1, d):
                for b in range(1, d):
                    if (a + b) % d == 0:
                        continue
                    cob = charsum.gauss_coboundary(a, b, p, Ncob)
                    jac = jacobi_sum(a, b, field, Ncob)
                    emb = pi_ring(p, Ncob).from_int(jac.residues[0])
                    yield {"p": p, "a": a, "b": b}, cob == emb, cob - emb

        col.run("gauss_coboundary/equals_jacobi", {"p": p, "N": Ncob},
                coboundary_cases())

        def gk_cases(p=p, N=N):
            for a in range(1, p - 1):
                rep = charsum.gross_koblitz_check(a, p, N)
                yield {"p": p, "a": a}, rep.passed, rep.lhs - rep.rhs

        col.run("gross_koblitz_check", {"p": p, "N": N}, gk_cases())

    def jacobi_norm_cases():
        for q in ([cfg.p] if cfg.p is not None else [5, 7, 13]):
            field = charsum.field_for_order(q)
            N = 3
            d = q - 1
            for a in range(1, d):
                for b in range(1, d):
                    if (a + b) % d == 0:
                        continue
                    lhs = jacobi_sum(a, b, field, N) * jacobi_sum(-a, -b, field, N)
                    rhs = zq_ring(field, N).from_int(q)
                    yield {"q": q, "a": a, "b": b}, lhs == rhs, lhs - rhs

    col.run("jacobi_sum/norm_relation", {"q": _given(cfg.p, [5, 7, 13])},
            jacobi_norm_cases())

    def fermat_cases():
        chosen = [(cfg.p, 2)] if cfg.p is not None else \
            [(5, 2), (5, 4), (7, 2), (7, 3), (13, 3), (13, 4)]
        for q, m in chosen:
            brute = charsum.count_fermat_brute(q, m)
            viaj = charsum.count_fermat_jacobi(q, m)
            yield {"q": q, "m": m, "brute": brute, "jacobi": viaj}, \
                brute == viaj, viaj - brute

    col.run("count_fermat/jacobi_vs_brute", {}, fermat_cases())
    return records


SUITE_RUNNERS = {
    "carry": run_carry_suite,
    "buium": run_buium_suite,
    "gamma": run_gamma_suite,
    "charsum": run_charsum_suite,
}


def run_suites(cfg: RunConfig) -> list[CheckRecord]:
    if cfg.suite != "all" and cfg.suite not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    if cfg.p is not None and not is_prime(cfg.p):
        raise ValueError("not prime")
    if cfg.n is not None and cfg.p is None:  # only the buium suite reads n, beside p
        raise ValueError("n is only read together with p")
    if cfg.count < 1:
        raise ValueError("count must be at least 1")
    records: list[CheckRecord] = []
    for name, runner in SUITE_RUNNERS.items():
        if cfg.suite in ("all", name):
            records.extend(runner(cfg))
    return records
