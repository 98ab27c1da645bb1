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
from .tensor import TensorPoly2


def check_index(j: int, n: int) -> None:
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"derivative index {j} outside 1..{n}")


def d(j: int, p: NcPoly) -> TensorPoly2:
    """The free difference quotient with respect to Z_j."""
    check_index(j, p.n)
    terms: dict[tuple[Word, Word], Scalar] = {}
    for word, coeff in p.terms.items():
        for pos, letter in enumerate(word):
            if letter != j:
                continue
            key = (word[:pos], word[pos + 1:])
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
    return TensorPoly2._trusted(p.n, terms)

