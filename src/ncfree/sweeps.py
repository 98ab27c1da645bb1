"""Seeded random generators for symbolic verification sweeps.

Used by the CLI batch commands and the test suite; everything is driven by
an explicit random.Random so sweeps are reproducible from one seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ncpoly import NcPoly, Word
from .scalars import Scalar


def rand_word(rng: random.Random, n: int, max_len: int, min_len: int = 0) -> Word:
    """A word of min_len..max_len letters from 1..n.

    The length is min_len + _randbelow(max_len - min_len + 1) and each letter
    is 1 + _randbelow(n): the draws rng.randint(min_len, max_len) and
    rng.randint(1, n) make on CPython 3.10-3.13, so a seed gives the words it
    always gave.  An empty range raises ValueError before any draw, since
    _randbelow loops forever on a width below 1.
    """
    if n < 1 or min_len > max_len:
        raise ValueError(f"no word of {min_len}..{max_len} letters from 1..{n}")
    below = rng._randbelow
    return tuple([1 + below(n) for _ in range(min_len + below(max_len - min_len + 1))])


def rand_scalar(rng: random.Random, complex_parts: bool = True) -> Scalar:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_parts else 0
    if re == 0 and im == 0:
        re = Fraction(1)
    return Scalar(re, im)


def rand_poly(
    rng: random.Random,
    n: int,
    max_deg: int,
    max_terms: int = 3,
    complex_coeffs: bool = True,
) -> NcPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rand_word(rng, n, max_deg)] = rand_scalar(rng, complex_coeffs)
    return NcPoly(n, terms)


def rand_nonzero_poly(rng: random.Random, n: int, max_deg: int, **kwargs) -> NcPoly:
    while True:
        p = rand_poly(rng, n, max_deg, **kwargs)
        if not p.is_zero():
            return p


def rand_self_adjoint(rng: random.Random, n: int, max_deg: int) -> NcPoly:
    p = rand_poly(rng, n, max_deg)
    return p + p.star()
