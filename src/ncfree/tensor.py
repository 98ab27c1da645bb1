"""The tensor square (and cube) of the free algebra.

Both are SparseTerms (see ncpoly), keyed by pairs and triples of words, and
share its linear structure, equality, scaling and product kernel.
TensorPoly2 adds the componentwise *-algebra structure
(a (x) b)(c (x) d) = ac (x) bd together with the extra operations the
calculus needs: the composition-like product #, the flip, the bimodule
action (p (x) 1) s (1 (x) q), and the multiplication collapse m_eta.
TensorPoly3 is a bare linear carrier that no library code builds.
"""

from __future__ import annotations

from .ncpoly import NcPoly, SparseTerms, parse_word, word_text
from .scalars import Scalar


class TensorPoly2(SparseTerms):
    """Sparse element of C<Z_1..Z_n> (x) C<Z_1..Z_n>."""

    __slots__ = ()
    LEGS = 2

    # bound here because perfbench/tracer.py wraps them on TensorPoly2 itself
    __init__ = SparseTerms.__init__
    __add__ = SparseTerms.__add__
    __neg__ = SparseTerms.__neg__
    __sub__ = SparseTerms.__sub__
    __rmul__ = SparseTerms.__rmul__

    # -- constructors ----------------------------------------------------

    @staticmethod
    def one(n: int) -> "TensorPoly2":
        """The unit 1 (x) 1."""
        return TensorPoly2(n, {((), ()): Scalar(1)})

    @staticmethod
    def of(p: NcPoly, q: NcPoly) -> "TensorPoly2":
        """The elementary tensor p (x) q."""
        return p._product(q, lambda w1, w2: (w1, w2), TensorPoly2)

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, TensorPoly2):
            return self._product(other, lambda a, b: (a[0] + b[0], a[1] + b[1]))
        return SparseTerms.__mul__(self, other)

    # -- the operations of the calculus ---------------------------------------

    def sharp(self, other: "TensorPoly2") -> "TensorPoly2":
        """(a1 (x) a2) # (b1 (x) b2) = (a1 b1) (x) (b2 a2), bilinearly."""
        return self._product(other, lambda a, b: (a[0] + b[0], b[1] + a[1]))

    def flip(self) -> "TensorPoly2":
        """The exchange a (x) b -> b (x) a."""
        return TensorPoly2._trusted(
            self.n, {(w2, w1): c for (w1, w2), c in self.terms.items()}
        )

    def star(self) -> "TensorPoly2":
        """Componentwise involution (a (x) b)* = a* (x) b*."""
        return TensorPoly2._trusted(
            self.n,
            {(w1[::-1], w2[::-1]): c.conjugate() for (w1, w2), c in self.terms.items()},
        )

    def bimodule_mul(self, lp: NcPoly, rq: NcPoly) -> "TensorPoly2":
        """(lp (x) 1) self (1 (x) rq) = (lp (x) rq) # self: legs times lp and rq."""
        self._check_compatible(lp)
        self._check_compatible(rq)
        return TensorPoly2.of(lp, rq).sharp(self)

    def collapse(self, eta: NcPoly) -> NcPoly:
        """m_eta: a (x) b -> a * eta * b, linearly (polynomial eta only)."""
        return self._product(eta, lambda k, w: k[0] + w + k[1], NcPoly)

    # -- text form --------------------------------------------------------
    # `coeff * (Z i1 ... | Z j1 ...)`, sorted by total length, then legs.

    def to_text(self) -> str:
        return self._to_text(
            lambda k: f"({word_text(k[0])} | {word_text(k[1])})",
            lambda k: (len(k[0]) + len(k[1]), k),
        )

    @staticmethod
    def from_text(text: str, n: int) -> "TensorPoly2":
        return TensorPoly2._from_text(text, n, _parse_pair)

    def __repr__(self):
        return f"TensorPoly2({self.n}, {self.to_text()!r})"


def _parse_pair(text: str):
    text = text.strip()
    left, sep, right = text[1:-1].partition("|")
    if not (text.startswith("(") and text.endswith(")") and sep):
        raise ValueError(f"malformed tensor monomial: {text!r}")
    return (parse_word(left), parse_word(right))


class TensorPoly3(SparseTerms):
    """Sparse element of the tensor cube: a linear carrier that no library code
    builds, kept while perfbench/tracer.py plans its methods (ROADMAP item 8)."""

    __slots__ = ()
    LEGS = 3

    # bound here because perfbench/tracer.py wraps them on TensorPoly3 itself
    __init__ = SparseTerms.__init__
    __add__ = SparseTerms.__add__
    __neg__ = SparseTerms.__neg__
    __sub__ = SparseTerms.__sub__
    __mul__ = SparseTerms.__mul__
