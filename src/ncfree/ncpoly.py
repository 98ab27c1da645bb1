"""Sparse non-commutative polynomials over the exact complex rationals.

A word is a tuple of generator indices in 1..n; the empty tuple is the unit
monomial.  SparseTerms is the shared base of NcPoly and of the tensor powers
in `tensor`: a sparse map from keys (a word, or a tuple of words) to Scalar
kept in canonical form (no zero coefficients), so equality is structural.  It
owns the validating constructor for outside input, a trusted one for the
results of closed operations, the linear structure, the one product kernel
and the text form.  NcPoly adds the algebra product, the involution, degrees
and evaluation at matrices.  Values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EvaluationError, GeneratorCountMismatch, IndexOutOfRange
from .scalars import Scalar

Word = tuple[int, ...]

#: total degree of the zero polynomial
NEG_INF = float("-inf")

#: operand types that act as scalar multiples of the unit
_SCALARS = (int, Fraction, Scalar)

#: largest entry of a - a^* that `evaluate` accepts as Hermitian
HERMITIAN_TOL = 1e-8


def is_letter(letter, n: int) -> bool:
    """Whether `letter` is an integer generator index in 1..n; a bool is not."""
    if type(letter) is not int:
        if isinstance(letter, bool):
            return False
        try:
            operator.index(letter)
        except TypeError:
            return False
    return 1 <= letter <= n


def words_up_to(n: int, degree: int) -> Iterator[Word]:
    """All words over 1..n of length 0..degree, shortest first."""
    for length in range(degree + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def check_word(word: Word, n: int) -> None:
    for letter in word:
        if not is_letter(letter, n):
            raise IndexOutOfRange(f"letter {letter!r} outside 1..{n}")


def word_text(word: Word) -> str:
    """One word as text: `Z i1 i2 ... ik`; the unit word is a bare `Z`."""
    return "Z" + "".join(f" {i}" for i in word)


def parse_word(text: str) -> Word:
    tokens = text.split()
    if not tokens or tokens[0] != "Z":
        raise ValueError(f"malformed monomial: {text!r}")
    return tuple(int(t) for t in tokens[1:])


class SparseTerms:
    """An immutable sparse map key -> nonzero Scalar over n generators.

    A key is one word when LEGS is 1, and a tuple of LEGS words otherwise.
    The map is canonical (no zero coefficients), so equality is structural.
    `__init__` validates outside input; `_trusted` wraps the result of a
    closed operation, whose keys are valid by construction, and only drops
    zero coefficients.

    Subclasses bind the inherited methods that perfbench/tracer.py wraps in
    their own class body: the tracer looks them up in the class `__dict__`.
    """

    __slots__ = ("n", "terms")
    LEGS = 1

    def __init__(self, n: int, terms: Mapping | None = None):
        if n < 0:
            raise ValueError("generator count must be nonnegative")
        one_leg = self.LEGS == 1
        canonical = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key) if one_leg else tuple(tuple(w) for w in key)
            legs = (key,) if one_leg else key
            if len(legs) != self.LEGS:
                raise ValueError(f"expected {self.LEGS} legs, got {len(legs)}")
            for word in legs:
                check_word(word, n)
            coeff = Scalar.coerce(coeff)
            if not coeff.is_zero():
                canonical[key] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _trusted(cls, n: int, terms: Mapping):
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(
            obj, "terms", {k: c for k, c in terms.items() if not c.is_zero()}
        )
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "SparseTerms") -> None:
        if self.n != other.n:
            raise GeneratorCountMismatch(f"{self.n} generators vs {other.n}")

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
        return self._trusted(self.n, terms)

    def __neg__(self):
        return self._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scalar multiple; subclasses with a product handle their own type."""
        if isinstance(other, _SCALARS):
            s = Scalar.coerce(other)
            return self._trusted(self.n, {k: c * s for k, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def _product(self, other: "SparseTerms", combine_keys, cls=None):
        """The bilinear map sending (k1, k2) to combine_keys(k1, k2)."""
        self._check_compatible(other)
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = combine_keys(k1, k2)
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return (cls or type(self))._trusted(self.n, terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- text form -------------------------------------------------------
    # Terms `coeff * <key>` are joined by ` + ` in sort_key order.

    def _to_text(self, key_text, sort_key) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.terms[key]} * {key_text(key)}"
            for key in sorted(self.terms, key=sort_key)
        )


class NcPoly(SparseTerms):
    """An element of the free *-algebra on n self-adjoint generators."""

    __slots__ = ()

    # bound here because perfbench/tracer.py wraps them on NcPoly itself
    __init__ = SparseTerms.__init__
    __rmul__ = SparseTerms.__rmul__

    # -- constructors -------------------------------------------------

    @staticmethod
    def one(n: int) -> "NcPoly":
        return NcPoly(n, {(): Scalar(1)})

    @staticmethod
    def gen(n: int, i: int) -> "NcPoly":
        """The generator Z_i."""
        if not is_letter(i, n):
            raise IndexOutOfRange(f"generator index {i} outside 1..{n}")
        return NcPoly(n, {(i,): Scalar(1)})

    @staticmethod
    def monomial(n: int, word: Iterable[int], coeff=1) -> "NcPoly":
        return NcPoly(n, {tuple(word): coeff})

    def _lift(self, other):
        """A scalar operand as the constant polynomial; anything else as is."""
        if isinstance(other, _SCALARS):
            return NcPoly._trusted(self.n, {(): Scalar.coerce(other)})
        return other

    # -- basic queries -------------------------------------------------

    def coeff(self, word: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(word), Scalar(0))

    def total_degree(self):
        """Maximal word length carrying a nonzero coefficient; -inf for 0."""
        if not self.terms:
            return NEG_INF
        return max(len(w) for w in self.terms)

    def is_self_adjoint(self) -> bool:
        return self == self.star()

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return SparseTerms.__add__(self, self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return SparseTerms.__sub__(self, self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return self._product(other, operator.add)
        return SparseTerms.__mul__(self, other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = NcPoly.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    def star(self) -> "NcPoly":
        """Involution: reverse words, conjugate coefficients."""
        return NcPoly._trusted(
            self.n, {w[::-1]: c.conjugate() for w, c in self.terms.items()}
        )

    def __eq__(self, other):
        return SparseTerms.__eq__(self, self._lift(other))

    # defining __eq__ would otherwise make NcPoly unhashable
    __hash__ = SparseTerms.__hash__

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate at a tuple of self-adjoint matrices (ring homomorphism)."""
        if len(assignment) != self.n:
            raise EvaluationError(
                f"expected {self.n} matrices, got {len(assignment)}"
            )
        mats = [np.asarray(a, dtype=complex) for a in assignment]
        dims = set()
        for a in mats:
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise EvaluationError("assignment matrices must be square")
            dims.add(a.shape[0])
            if np.max(np.abs(a - a.conj().T), initial=0.0) > HERMITIAN_TOL:
                raise EvaluationError("assignment matrix is not Hermitian")
        if len(dims) > 1:
            raise EvaluationError(f"mixed matrix dimensions: {sorted(dims)}")
        dim = dims.pop() if dims else 1
        return self.evaluate_in(
            mats,
            np.zeros((dim, dim), dtype=complex),
            lambda: np.eye(dim, dtype=complex),
            operator.matmul,
        )

    def evaluate_in(self, letters: Sequence, zero, unit: Callable, product: Callable):
        """Sum of coeff * word(letters) over the terms, in `self.terms` order.

        `zero` is the accumulator and is updated in place, `unit()` is the
        value of the empty word and `product` the ring product.  A word
        starts from its first letter's value and multiplies left to right.
        """
        result = zero
        for word, coeff in self.terms.items():
            if not word:
                value = unit()
            else:
                value = letters[word[0] - 1]
                for letter in word[1:]:
                    value = product(value, letters[letter - 1])
            result += complex(coeff) * value
        return result

    # -- text form ----------------------------------------------------------
    # One term is `coeff * Z i1 i2 ... ik`, sorted (length, letters).

    def to_text(self) -> str:
        return self._to_text(word_text, lambda w: (len(w), w))

    @staticmethod
    def from_text(text: str, n: int) -> "NcPoly":
        text = text.strip()
        if text == "0":
            return NcPoly(n)
        terms: dict = {}
        for piece in text.split(" + "):
            head, sep, tail = piece.partition("*")
            if not sep:
                raise ValueError(f"malformed term: {piece!r}")
            coeff = Scalar.parse(head)
            word = parse_word(tail)
            terms[word] = terms.get(word, Scalar(0)) + coeff
        return NcPoly(n, terms)

    def __repr__(self):
        return f"NcPoly({self.n}, {self.to_text()!r})"
