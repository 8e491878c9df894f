"""Exact quasi-polynomial certificates for restricted partition counting.

Given positive integer parts d_1, ..., d_m (duplicates allowed and counted as
separate coordinates), the number of solutions of x_1 d_1 + ... + x_m d_m = n
in nonnegative integers is a quasi-polynomial in n. This package builds that
quasi-polynomial exactly, by two independent routes, and verifies it against a
direct counting oracle. No floating point anywhere.
"""

from .errors import CapacityError, InputError, IntegralityError
from .exactnum import (
    Rational,
    as_parts,
    compositions,
    lcm_of,
    multinomial,
    parse_rational,
)
from .bernoulli import bernoulli_number, bernoulli_poly, d_scalar
from .polypart import split_weight, v1_explicit
from .quasipoly import (
    PeriodicFn,
    QuasiPoly,
    build_explicit,
    build_recursive,
    closure_fn,
    extend_recursive,
)
from .oracle import CountTable, count_dp
from .verify import PROPERTIES, PropertyResult, VerifyReport, iter_multisets, run_properties

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "InputError",
    "IntegralityError",
    "Rational",
    "as_parts",
    "compositions",
    "lcm_of",
    "multinomial",
    "parse_rational",
    "bernoulli_number",
    "bernoulli_poly",
    "d_scalar",
    "split_weight",
    "v1_explicit",
    "PeriodicFn",
    "QuasiPoly",
    "build_explicit",
    "build_recursive",
    "closure_fn",
    "extend_recursive",
    "CountTable",
    "count_dp",
    "PROPERTIES",
    "PropertyResult",
    "VerifyReport",
    "iter_multisets",
    "run_properties",
]
