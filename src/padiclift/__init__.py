"""Exact truncated p-adic and Witt-vector arithmetic with Frobenius lifts,
p-adic Gamma/Beta, character sums, and cocycle/coboundary verification."""

from .errors import InvariantError, PrecisionError
from .gfq import FqElem, FqField, fq_make
from .zp_ring import PAdicInt, buium_carry, carry_cocycle, cocycle_sum
from .witt_zq import (ZqElem, ZqRing, frobenius_lift, from_teich_digits,
                      teich_digits, teichmuller_int, zq_ring)
from .buium import (LawReport, fermat_quotient, p_derivation, ring_carry,
                    verify_laws, verify_product_rule, verify_sum_rule)
from .gamma import (beta_p, functional_equation_check, gamma_p,
                    gamma_p_integer)
from .charsum import (MultChar, PiRing, PiRingElem, additive_character,
                      char_convolution, count_fermat_brute,
                      count_fermat_jacobi, dwork_theta, fermat_precision,
                      field_for_order, gauss_coboundary, gauss_sum,
                      gross_koblitz_check, jacobi_sum, pi_ring,
                      series_terms_used)
from .cohomo import (ADDITIVE, MULTIPLICATIVE, CocycleReport, GroupValuedMap,
                     coboundary2, coboundary_of_coboundary_is_trivial,
                     cocycle2_check)
from .rng import CounterRng

__version__ = "0.1.0"
