"""The tensor square (and cube) of the free algebra.

TensorPoly2 carries the componentwise *-algebra structure
(a (x) b)(c (x) d) = ac (x) bd together with the extra operations the
calculus needs: the composition-like product #, the flip, the bimodule
action (p (x) 1) s (1 (x) q), and the multiplication collapse m_eta.
TensorPoly3 is a bare linear carrier for the middle-leg contraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import GeneratorCountMismatch
from .ncpoly import NcPoly, Word, check_word
from .scalars import Scalar


def _coerce_coeff(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar.coerce(value)


class TensorPoly2:
    """Sparse element of C<Z_1..Z_n> (x) C<Z_1..Z_n>."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[Word, Word], Scalar] | None = None):
        canonical: dict[tuple[Word, Word], Scalar] = {}
        for (w1, w2), coeff in (terms or {}).items():
            w1, w2 = tuple(w1), tuple(w2)
            check_word(w1, n)
            check_word(w2, n)
            coeff = _coerce_coeff(coeff)
            if not coeff.is_zero():
                canonical[(w1, w2)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPoly2 is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n: int) -> "TensorPoly2":
        return TensorPoly2(n)

    @staticmethod
    def one(n: int) -> "TensorPoly2":
        """The unit 1 (x) 1."""
        return TensorPoly2(n, {((), ()): Scalar(1)})

    @staticmethod
    def of(p: NcPoly, q: NcPoly) -> "TensorPoly2":
        """The elementary tensor p (x) q."""
        if p.n != q.n:
            raise GeneratorCountMismatch(f"{p.n} generators vs {q.n}")
        terms: dict[tuple[Word, Word], Scalar] = {}
        for w1, c1 in p.terms.items():
            for w2, c2 in q.terms.items():
                terms[(w1, w2)] = c1 * c2
        return TensorPoly2(p.n, terms)

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other: "TensorPoly2") -> None:
        if self.n != other.n:
            raise GeneratorCountMismatch(f"{self.n} generators vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, TensorPoly2):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Scalar(0)) + coeff
        return TensorPoly2(self.n, terms)

    def __neg__(self):
        return TensorPoly2(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = _coerce_coeff(other)
            return TensorPoly2(self.n, {k: c * s for k, c in self.terms.items()})
        if not isinstance(other, TensorPoly2):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[tuple[Word, Word], Scalar] = {}
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
                key = (a1 + b1, a2 + b2)
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return TensorPoly2(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorPoly2):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- the operations of the calculus ---------------------------------------

    def sharp(self, other: "TensorPoly2") -> "TensorPoly2":
        """(a1 (x) a2) # (b1 (x) b2) = (a1 b1) (x) (b2 a2), bilinearly."""
        self._check_compatible(other)
        terms: dict[tuple[Word, Word], Scalar] = {}
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
                key = (a1 + b1, b2 + a2)
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return TensorPoly2(self.n, terms)

    def flip(self) -> "TensorPoly2":
        """The exchange a (x) b -> b (x) a."""
        return TensorPoly2(self.n, {(w2, w1): c for (w1, w2), c in self.terms.items()})

    def star(self) -> "TensorPoly2":
        """Componentwise involution (a (x) b)* = a* (x) b*."""
        return TensorPoly2(
            self.n,
            {(w1[::-1], w2[::-1]): c.conjugate() for (w1, w2), c in self.terms.items()},
        )

    def bimodule_mul(self, lp: NcPoly, rq: NcPoly) -> "TensorPoly2":
        """(lp (x) 1) self (1 (x) rq): left leg multiplied by lp, right by rq."""
        return TensorPoly2.of(lp, NcPoly.one(self.n)) * self * TensorPoly2.of(
            NcPoly.one(self.n), rq
        )

    def collapse(self, eta: NcPoly) -> NcPoly:
        """m_eta: a (x) b -> a * eta * b, linearly (polynomial eta only)."""
        if eta.n != self.n:
            raise GeneratorCountMismatch(f"{self.n} generators vs {eta.n}")
        terms: dict[Word, Scalar] = {}
        for (w1, w2), c1 in self.terms.items():
            for w, c2 in eta.terms.items():
                word = w1 + w + w2
                acc = terms.get(word)
                terms[word] = c1 * c2 if acc is None else acc + c1 * c2
        return NcPoly(self.n, terms)

    # -- text form --------------------------------------------------------
    # `coeff * (Z i1 ... | Z j1 ...)`, terms joined by ` + `.

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for w1, w2 in sorted(self.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
            coeff = self.terms[(w1, w2)]
            left = "Z" + "".join(f" {i}" for i in w1)
            right = "Z" + "".join(f" {i}" for i in w2)
            pieces.append(f"{coeff} * ({left} | {right})")
        return " + ".join(pieces)

    @staticmethod
    def from_text(text: str, n: int) -> "TensorPoly2":
        text = text.strip()
        if text == "0":
            return TensorPoly2.zero(n)
        terms: dict[tuple[Word, Word], Scalar] = {}
        for piece in text.split(" + "):
            head, sep, tail = piece.partition("*")
            if not sep:
                raise ValueError(f"malformed term: {piece!r}")
            coeff = Scalar.parse(head)
            tail = tail.strip()
            if not (tail.startswith("(") and tail.endswith(")")):
                raise ValueError(f"malformed tensor monomial: {piece!r}")
            left_text, sep, right_text = tail[1:-1].partition("|")
            if not sep:
                raise ValueError(f"malformed tensor monomial: {piece!r}")
            word_pair = []
            for leg in (left_text, right_text):
                tokens = leg.split()
                if not tokens or tokens[0] != "Z":
                    raise ValueError(f"malformed tensor leg: {leg!r}")
                word = tuple(int(t) for t in tokens[1:])
                check_word(word, n)
                word_pair.append(word)
            key = (word_pair[0], word_pair[1])
            terms[key] = terms.get(key, Scalar(0)) + coeff
        return TensorPoly2(n, terms)

    def __repr__(self):
        return f"TensorPoly2({self.n}, {self.to_text()!r})"


class TensorPoly3:
    """Sparse element of the tensor cube; linear carrier only.

    Full algebra structure is deliberately absent: the calculus only ever
    builds these as intermediate values and contracts their middle leg.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self, n: int, terms: Mapping[tuple[Word, Word, Word], Scalar] | None = None
    ):
        canonical: dict[tuple[Word, Word, Word], Scalar] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(tuple(w) for w in key)
            for w in key:
                check_word(w, n)
            coeff = _coerce_coeff(coeff)
            if not coeff.is_zero():
                canonical[key] = coeff  # type: ignore[index]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPoly3 is immutable")

    @staticmethod
    def zero(n: int) -> "TensorPoly3":
        return TensorPoly3(n)

    def __add__(self, other):
        if not isinstance(other, TensorPoly3):
            return NotImplemented
        if self.n != other.n:
            raise GeneratorCountMismatch(f"{self.n} generators vs {other.n}")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Scalar(0)) + coeff
        return TensorPoly3(self.n, terms)

    def __neg__(self):
        return TensorPoly3(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = _coerce_coeff(other)
            return TensorPoly3(self.n, {k: c * s for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorPoly3):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms


# Module-level aliases matching the operation names of the calculus.

def sharp(s: TensorPoly2, t: TensorPoly2) -> TensorPoly2:
    return s.sharp(t)


def flip(s: TensorPoly2) -> TensorPoly2:
    return s.flip()


def tensor_star(s: TensorPoly2) -> TensorPoly2:
    return s.star()


def bimodule_mul(lp: NcPoly, s: TensorPoly2, rq: NcPoly) -> TensorPoly2:
    return s.bimodule_mul(lp, rq)


def collapse(eta: NcPoly, s: TensorPoly2) -> NcPoly:
    return s.collapse(eta)
