"""The non-commutative derivatives.

d(j, P) sends a monomial to the sum of P1 (x) P2 over all decompositions
P = P1 Z_j P2, extended linearly; it is the unique derivation into the
tensor square bimodule with d(j, Z_i) = delta_ij 1 (x) 1.  The implementation
scans letter occurrences directly, so the Leibniz rule stays available as an
independent test.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .ncpoly import NcPoly, Word
from .scalars import Scalar
from .tensor import TensorPoly2, TensorPoly3


def _check_index(j: int, n: int) -> None:
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"derivative index {j} outside 1..{n}")


def d(j: int, p: NcPoly) -> TensorPoly2:
    """The free difference quotient with respect to Z_j."""
    _check_index(j, p.n)
    terms: dict[tuple[Word, Word], Scalar] = {}
    for word, coeff in p.terms.items():
        for pos, letter in enumerate(word):
            if letter != j:
                continue
            key = (word[:pos], word[pos + 1:])
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
    return TensorPoly2._trusted(p.n, terms)


def d_leg_sum(j: int, s: TensorPoly2) -> TensorPoly3:
    """(d_j (x) id + id (x) d_j) applied to a tensor-square element."""
    _check_index(j, s.n)
    terms: dict[tuple[Word, Word, Word], Scalar] = {}

    def _accumulate(key: tuple[Word, Word, Word], coeff: Scalar) -> None:
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff

    for (w1, w2), coeff in s.terms.items():
        for pos, letter in enumerate(w1):
            if letter == j:
                _accumulate((w1[:pos], w1[pos + 1:], w2), coeff)
        for pos, letter in enumerate(w2):
            if letter == j:
                _accumulate((w1, w2[:pos], w2[pos + 1:]), coeff)
    return TensorPoly3._trusted(s.n, terms)
