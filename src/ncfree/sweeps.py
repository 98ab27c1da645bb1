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

    Each draw below a width w runs inline the loop of CPython 3.10-3.13's
    Random._randbelow: r = rng.getrandbits(w.bit_length()), redrawn while
    r >= w.  So the length and the letters are the stream that
    rng.randint(min_len, max_len) and then rng.randint(1, n) per letter
    draw, bit for bit.  A negative min_len, or an empty range, on which the
    loop would never end, raises ValueError before any draw.
    """
    if n < 1 or not 0 <= min_len <= max_len:
        raise ValueError(f"no word of {min_len}..{max_len} letters from 1..{n}")
    bits = rng.getrandbits
    width = max_len - min_len + 1
    k = width.bit_length()
    length = bits(k)
    while length >= width:
        length = bits(k)
    k = n.bit_length()
    word = []
    for _ in range(min_len + length):
        letter = bits(k)
        while letter >= n:
            letter = bits(k)
        word.append(letter + 1)
    return tuple(word)


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
    """A polynomial of 1..max_terms random words of up to max_deg letters.

    It is never 0: it has at least one term, and `rand_scalar` turns a drawn
    0 into 1, so no coefficient is 0.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rand_word(rng, n, max_deg)] = rand_scalar(rng, complex_coeffs)
    return NcPoly(n, terms)


def rand_self_adjoint(rng: random.Random, n: int, max_deg: int) -> NcPoly:
    p = rand_poly(rng, n, max_deg)
    return p + p.star()
