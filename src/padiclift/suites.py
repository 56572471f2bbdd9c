"""Reproducible verification suites behind the CLI's verify subcommand.

Each suite runs a battery of identity checks and returns one CheckRecord
row per sub-check, with its check and failure counts.  A row's residual
is None when every case passed, and otherwise lists its first
MAX_FAILURE_RECORDS failing cases as {"inputs", "residual"}, so a red
run is diagnosable from the report alone.  All randomness flows through
the counter-based stream in rng.py, seeded per sampling suite with fixed
offsets, so a (config, seed) pair reproduces byte-identical reports.

RunConfig and CheckRecord are named tuples, like the reports the checks
return, and keep raw package values: jsonable, in cli, the one serialiser,
turns them into JSON.  A RunConfig field left at None selects the
suite's default; any value given, 0 too, is used as given, so a bad -p,
-n or -N fails in the ring it reaches instead of running the default
under the wrong label.  N is the precision of every check in a suite
that reads it, save the Gauss coboundary (at max(N, 4)), the Fermat
quotient spot value (at 3) and the integer Fermat counts.  p must be
prime, N and count are at least 1, and a flag no selected suite reads is
refused, as is a sub-check with no cases: n is read beside p by buium
alone, N by every suite but carry (Z/p^2), and seed and count by the
suites in SUITE_SEED_OFFSET (the CLI refuses them for the others, since
a RunConfig keeps 0 and 200 as its defaults).
"""

from __future__ import annotations

from collections import namedtuple

from . import buium, charsum, cohomo, errors, gamma
from .charsum import jacobi_sum, pi_ring
from .gfq import fq_make
from .residue import is_prime
from .rng import CounterRng
from .witt_zq import ZqElem, ZqRing, zq_ring
from .zp_ring import PAdicInt, carry_cocycle, cocycle_sum

MAX_FAILURE_RECORDS = 20  # failing cases kept per sub-check, to keep reports bounded

# the carry and charsum suites draw no random numbers
SUITE_SEED_OFFSET = {
    "buium": 0x20,
    "gamma": 0x30,
}


RunConfig = namedtuple("RunConfig", "p n precision seed count suite",
                       defaults=(None, None, None, 0, 200, "all"))

CheckRecord = namedtuple("CheckRecord", "suite op inputs passed checks failures residual")


def _given(value, default):
    """A RunConfig field, or the suite's default when it was left at None."""
    return default if value is None else value


def run_check(suite: str, op: str, inputs: dict, cases) -> CheckRecord:
    """One sub-check's row: every case counted, the first failing ones kept.

    A case is None when it passed and (inputs, residual) when it failed.
    """
    checks = failures = 0
    failing = []
    for case in cases:
        checks += 1
        if case is not None:
            failures += 1
            if failures <= MAX_FAILURE_RECORDS:
                case_inputs, residual = case
                failing.append({"inputs": case_inputs, "residual": residual})
    if checks == 0:  # a sweep of no cases cannot pass
        raise ValueError(f"{suite} suite: {op} at {inputs} has no cases")
    return CheckRecord(suite, op, inputs, failures == 0, checks, failures, failing or None)


# ---------------------------------------------------------------------------
# carry suite

def run_carry_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
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
                        yield None if rep.passed else \
                            ({"p": p, "triple": [a, b, c]}, rep.residual)

        records.append(run_check("carry", "carry_cocycle/cocycle2",
                                 {"p": p, "triples": p**3}, cocycle_cases()))

        def star_cases(p=p):
            mod = p * p
            operands = [PAdicInt.from_integer(x, p, 2) for x in range(mod)]
            for x in range(mod):
                for y in range(mod):
                    got = cocycle_sum(operands[x], operands[y])
                    want = operands[(x + y) % mod]
                    yield None if got == want else ({"p": p, "pair": [x, y]}, got - want)

        records.append(run_check("carry", "add/star_product_vs_integers",
                                 {"p": p, "pairs": p**4}, star_cases()))
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

        laws = [buium.verify_laws(x, y) for x, y in pairs]  # (sum, product) reports
        base = {"p": p, "n": n, "N": N, "pairs": cfg.count, "seed": cfg.seed}
        for i, op in enumerate(("verify_sum_rule", "verify_product_rule")):
            records.append(run_check("buium", op, base, (
                None if reports[i].passed else
                ({"p": p, "n": n, "N": N, "x": x, "y": y}, reports[i].residual)
                for (x, y), reports in zip(pairs, laws))))

        def teich_cases(ring=ring, p=p, n=n, N=N):
            zero = ring.with_precision(N - 1).zero()
            for v in ring.field.elements():
                d = buium.p_derivation(ring.teichmuller(v))
                yield None if d == zero else ({"p": p, "n": n, "N": N, "v": v}, d)

        records.append(run_check("buium", "p_derivation/vanishes_on_teichmuller",
                                 {"p": p, "n": n, "N": N, "values": p**n}, teich_cases()))

    fq = buium.fermat_quotient(2, 5, 3)
    records.append(run_check("buium", "fermat_quotient/spot", {"k": 2, "p": 5, "N": 3},
                             [None if fq.value == 19 else ({"k": 2}, fq)]))
    return records


# ---------------------------------------------------------------------------
# gamma suite

def run_gamma_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    ps = [cfg.p] if cfg.p is not None else [3, 5, 7]
    rng = CounterRng(cfg.seed + SUITE_SEED_OFFSET["gamma"])
    N = _given(cfg.precision, 3)
    top = min(N, 3)  # the sweeps cover m < p^top, continuity mod p^k for k < top

    for p in ps:
        values = [gamma.gamma_p_integer(m, p, N) for m in range(p**top)]

        def feq_cases(p=p):
            for m in range(p**top):
                rep = gamma.functional_equation_check(PAdicInt.from_integer(m, p, N))
                yield None if rep.passed else ({"p": p, "x": m}, rep)
        records.append(run_check("gamma", "functional_equation",
                                 {"p": p, "N": N, "sweep": p**top}, feq_cases()))

        records.append(run_check("gamma", "gamma_p/unit_valued",
                                 {"p": p, "N": N, "sweep": p**top},
                                 (None if v.is_unit() else ({"p": p, "m": m}, v)
                                  for m, v in enumerate(values))))

        def continuity_cases(p=p):
            for k in range(1, top):
                classes: dict[int, PAdicInt] = {}
                for m, v in enumerate(values):
                    r = m % p**k
                    vk = v.truncate(k)
                    if r in classes:
                        yield None if classes[r] == vk else \
                            ({"p": p, "k": k, "m": m}, vk - classes[r])
                    else:
                        classes[r] = vk
        if top > 1:  # at N = 1 there is no k to compare at
            records.append(run_check("gamma", "gamma_p/continuity",
                                     {"p": p, "N": N, "k_max": top - 1},
                                     continuity_cases()))

    # Beta as the multiplicative coboundary of Gamma, plus its cocycle law
    p = _given(cfg.p, 5)
    gmap = cohomo.GroupValuedMap(gamma.gamma_p, cohomo.MULTIPLICATIVE, name="gamma_p")
    bmap = cohomo.GroupValuedMap(gamma.beta_p, cohomo.MULTIPLICATIVE, name="beta_p")

    def beta_cases():
        for _ in range(cfg.count):
            a = sample_padic(p, N, rng)
            b = sample_padic(p, N, rng)
            c = sample_padic(p, N, rng)
            want = gamma.beta_p(a, b)
            got = cohomo.coboundary2(gmap, a, b)
            rep = cohomo.cocycle2_check(bmap, a, b, c)
            yield None if want == got and rep.passed else \
                ({"p": p, "N": N, "a": a, "b": b, "c": c}, rep.residual)

    records.append(run_check("gamma", "beta_p/coboundary_and_cocycle",
                             {"p": p, "N": N, "triples": cfg.count, "seed": cfg.seed},
                             beta_cases()))
    return records


# ---------------------------------------------------------------------------
# charsum suite

def _jacobi_pairs(d: int) -> list[tuple[int, int]]:
    """The exponent pairs 0 < a, b < d with a + b != 0 mod d."""
    return [(a, b) for a in range(1, d) for b in range(1, d) if (a + b) % d]


def run_charsum_suite(cfg: RunConfig) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    ps = [cfg.p] if cfg.p is not None else [5, 7]
    N = _given(cfg.precision, 3)
    Ncob = max(N, 4)  # the one check above N; its record states the N it ran at

    for p in ps:
        ring = pi_ring(p, N)
        one = ring.one()

        def gate_cases(p=p, ring=ring, one=one):
            psi1 = charsum.additive_character(1, p, N)
            yield None if psi1 != one else ({"p": p, "gate": "psi(1) != 1"}, psi1)
            power = psi1**p
            yield None if power == one else ({"p": p, "gate": "psi(1)^p == 1"}, power)
            total = ring.zero()
            for c in range(p):
                total = total + charsum.additive_character(c, p, N)
            yield None if total == ring.zero() else ({"p": p, "gate": "sum psi == 0"}, total)
            for a in range(p):
                for b in range(p):
                    got = charsum.additive_character(a, p, N) \
                        * charsum.additive_character(b, p, N)
                    want = charsum.additive_character(a + b, p, N)
                    yield None if got == want else \
                        ({"p": p, "gate": "psi additive", "pair": [a, b]}, got - want)

        records.append(run_check("charsum", "additive_character/gates", {"p": p, "N": N},
                                 gate_cases()))

        def norm_cases(p=p, ring=ring):
            for a in range(1, p - 1):
                lhs = charsum.gauss_sum(a, p, N) \
                    * charsum.gauss_sum(-a, p, N)
                rhs = ring.from_int(p if a % 2 == 0 else -p)
                yield None if lhs == rhs else ({"p": p, "a": a}, lhs - rhs)

        records.append(run_check("charsum", "gauss_sum/norm_relation", {"p": p, "N": N},
                                 norm_cases()))

        def coboundary_cases(p=p):
            for a, b in _jacobi_pairs(p - 1):
                cob = charsum.gauss_coboundary(a, b, p, Ncob)
                jac = jacobi_sum(a, b, fq_make(p, 1), Ncob)
                emb = pi_ring(p, Ncob).from_int(jac.residues[0])
                yield None if cob == emb else ({"p": p, "a": a, "b": b}, cob - emb)

        records.append(run_check("charsum", "gauss_coboundary/equals_jacobi",
                                 {"p": p, "N": Ncob}, coboundary_cases()))

        def gk_cases(p=p):
            for a in range(1, p - 1):
                rep = charsum.gross_koblitz_check(a, p, N)
                yield None if rep.passed else ({"p": p, "a": a}, rep.lhs - rep.rhs)

        records.append(run_check("charsum", "gross_koblitz_check", {"p": p, "N": N},
                                 gk_cases()))

    def jacobi_norm_cases():
        for q in ([cfg.p] if cfg.p is not None else [5, 7, 13]):
            field = charsum.field_for_order(q)
            for a, b in _jacobi_pairs(q - 1):
                lhs = jacobi_sum(a, b, field, N) * jacobi_sum(-a, -b, field, N)
                rhs = zq_ring(field, N).from_int(q)
                yield None if lhs == rhs else ({"q": q, "a": a, "b": b}, lhs - rhs)

    records.append(run_check("charsum", "jacobi_sum/norm_relation",
                             {"q": _given(cfg.p, [5, 7, 13])}, jacobi_norm_cases()))

    def fermat_cases():
        chosen = [(cfg.p, 2)] if cfg.p is not None else \
            [(5, 2), (5, 4), (7, 2), (7, 3), (13, 3), (13, 4)]
        for q, m in chosen:
            brute = charsum.count_fermat_brute(q, m)
            viaj = charsum.count_fermat_jacobi(q, m)
            yield None if brute == viaj else \
                ({"q": q, "m": m, "brute": brute, "jacobi": viaj}, viaj - brute)

    records.append(run_check("charsum", "count_fermat/jacobi_vs_brute", {},
                             fermat_cases()))
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
    if cfg.n is not None and cfg.suite not in ("buium", "all"):
        raise ValueError(f"the {cfg.suite} suite reads no n")
    if cfg.count < 1:
        raise ValueError("count must be at least 1")
    if cfg.precision is not None and cfg.precision < 1:
        raise errors.PrecisionError("precision must be >= 1")
    if cfg.precision is not None and cfg.suite == "carry":  # Z/p^2 by definition
        raise ValueError("the carry suite reads no N: it runs at N = 2")
    records: list[CheckRecord] = []
    for name, runner in SUITE_RUNNERS.items():
        if cfg.suite in ("all", name):
            records.extend(runner(cfg))
    return records
