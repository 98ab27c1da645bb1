"""Trace functionals induced by declarative distribution specifications.

A DistributionSpec describes the joint distribution of the n generators:

* SemicircularFamily -- a free family of centred semicircular variables with
  given variances.  Mixed moments are sums over non-crossing pair partitions
  whose pairs connect equal letters, each pair contributing that letter's
  variance.
* FreeFamily -- a free family with one arbitrary moment sequence per
  generator.  Moments are sums over non-crossing partitions with
  monochromatic blocks of products of free cumulants.
* ExplicitMoments -- a user-supplied word -> value table up to a degree bound.

Both free variants are evaluated by the same block-of-the-first-element
recursion over non-crossing partitions, exactly, on Scalar values.  A block
of a letter never grows past that letter's last nonzero cumulant, so
semicircular words only ever pair letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeBoundExceeded, NonPositiveMoments, UnknownMoment
from .ncpoly import NcPoly, Word
from .scalars import ONE, ZERO, Scalar
from .tensor import TensorPoly2, TensorPoly3

DEFAULT_DEGREE_BOUND = 12


# ---------------------------------------------------------------------------
# distribution specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemicircularFamily:
    """Free centred semicircular generators with the given variances."""

    variances: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "variances", tuple(Fraction(v) for v in self.variances)
        )
        if any(v <= 0 for v in self.variances):
            raise ValueError("semicircular variances must be positive")


@dataclass(frozen=True)
class FreeFamily:
    """Free generators, each given by its moment sequence m_1..m_D."""

    moments: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "moments",
            tuple(tuple(Fraction(m) for m in seq) for seq in self.moments),
        )


@dataclass(frozen=True)
class ExplicitMoments:
    """A raw word -> moment table, trusted up to the stated degree."""

    table: Mapping[Word, Scalar]
    degree: int

    def __post_init__(self):
        frozen = {
            tuple(w): (v if isinstance(v, Scalar) else Scalar.coerce(v))
            for w, v in dict(self.table).items()
        }
        object.__setattr__(self, "table", frozen)


Variant = SemicircularFamily | FreeFamily | ExplicitMoments


def _word_text(word: Word) -> str:
    return "(" + " ".join(map(str, word)) + ")"


def _check_table(n: int, variant: ExplicitMoments) -> None:
    """Reject a table that no tracial state on n self-adjoint letters has.

    Entries must use letters 1..n and lengths up to the degree, and every
    entry present must agree with the others under traciality,
    tau(rotation of w) = tau(w), and the star, tau(w*) = conj tau(w).
    A word that is a rotation of its own reversal (a palindrome, say) must
    therefore have a real moment.  Missing words are allowed.
    """
    table = variant.table
    for word, value in table.items():
        for letter in word:
            if not 1 <= letter <= n:
                raise ValueError(
                    f"explicit moment word {_word_text(word)} has letter "
                    f"{letter} outside 1..{n}"
                )
        if len(word) > variant.degree:
            raise ValueError(
                f"explicit moment word {_word_text(word)} is longer than "
                f"the table degree {variant.degree}"
            )
        reverse = word[::-1]
        for shift in range(1, len(word)):
            rotation = word[shift:] + word[:shift]
            other = table.get(rotation)
            if other is not None and other != value:
                raise ValueError(
                    f"explicit moment table is not tracial: "
                    f"tau{_word_text(word)} = {value} but its rotation "
                    f"tau{_word_text(rotation)} = {other}"
                )
        for shift in range(max(len(word), 1)):
            rotation = reverse[shift:] + reverse[:shift]
            other = table.get(rotation)
            if other is not None and other != value.conjugate():
                raise ValueError(
                    f"explicit moment table breaks tau(w*) = conj tau(w): "
                    f"tau{_word_text(word)} = {value} but "
                    f"tau{_word_text(rotation)} = {other}"
                )


@dataclass(frozen=True)
class DistributionSpec:
    n: int
    variant: Variant

    def __post_init__(self):
        if isinstance(self.variant, SemicircularFamily):
            if len(self.variant.variances) != self.n:
                raise ValueError("need one variance per generator")
        elif isinstance(self.variant, FreeFamily):
            if len(self.variant.moments) != self.n:
                raise ValueError("need one moment sequence per generator")
        else:
            _check_table(self.n, self.variant)

    # -- JSON-compatible serialization -------------------------------------

    def to_dict(self) -> dict:
        if isinstance(self.variant, SemicircularFamily):
            return {
                "n": self.n,
                "variant": "semicircular",
                "variances": [str(v) for v in self.variant.variances],
            }
        if isinstance(self.variant, FreeFamily):
            return {
                "n": self.n,
                "variant": "free",
                "moments": [[str(m) for m in seq] for seq in self.variant.moments],
            }
        return {
            "n": self.n,
            "variant": "explicit",
            "degree": self.variant.degree,
            "moments": [
                {"word": list(w), "value": str(v)}
                for w, v in sorted(self.variant.table.items())
            ],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "DistributionSpec":
        n = int(data["n"])
        kind = data["variant"]
        if kind == "semicircular":
            variant: Variant = SemicircularFamily(
                tuple(Fraction(v) for v in data["variances"])
            )
        elif kind == "free":
            variant = FreeFamily(
                tuple(tuple(Fraction(m) for m in seq) for seq in data["moments"])
            )
        elif kind == "explicit":
            table = {
                tuple(entry["word"]): Scalar.parse(entry["value"])
                for entry in data["moments"]
            }
            variant = ExplicitMoments(table, int(data["degree"]))
        else:
            raise ValueError(f"unknown distribution variant: {kind!r}")
        return DistributionSpec(n, variant)

    @staticmethod
    def standard_semicircular(n: int) -> "DistributionSpec":
        return DistributionSpec(n, SemicircularFamily((Fraction(1),) * n))


# ---------------------------------------------------------------------------
# free cumulants
# ---------------------------------------------------------------------------


def _nc_moment_single(k: int, kappa: Sequence[Fraction]) -> Fraction:
    """m_k from cumulants kappa_1..kappa_k via non-crossing partitions.

    Recursion on the block of the first element: if it is {p_0=0 < ... <
    p_{m-1}}, the gaps between consecutive block elements and the tail after
    the last one are partitioned independently.
    """
    memo: dict[int, Fraction] = {0: Fraction(1)}

    def f(length: int) -> Fraction:
        if length in memo:
            return memo[length]
        total = Fraction(0)
        # choose the block of the first point: sizes of the m-1 gaps plus tail
        def extend(remaining: int, block_size: int, acc: Fraction) -> None:
            nonlocal total
            # close the block here: tail of `remaining` points follows
            total += acc * kappa[block_size - 1] * f(remaining)
            # or put the next block element after a gap of g >= 0 points
            for gap in range(remaining - 1, -1, -1):
                if block_size + 1 > len(kappa):
                    break
                extend_next = remaining - gap - 1
                extend(extend_next, block_size + 1, acc * f(gap))

        extend(length - 1, 1, Fraction(1))
        memo[length] = total
        return total

    return f(k)


def free_cumulants(moments: Sequence[Fraction]) -> list[Fraction]:
    """Invert the non-crossing moment formula: kappa_1..kappa_D from m_1..m_D."""
    moments = [Fraction(m) for m in moments]
    kappa: list[Fraction] = []
    for k, m_k in enumerate(moments, start=1):
        # with kappa_k temporarily 0 the full-block partition contributes 0
        kappa.append(Fraction(0))
        kappa[-1] = m_k - _nc_moment_single(k, kappa)
    return kappa


# ---------------------------------------------------------------------------
# the trace functional
# ---------------------------------------------------------------------------


class TraceFunctional:
    """tau induced by a DistributionSpec, memoized over raw words."""

    def __init__(self, spec: DistributionSpec, degree_bound: int = DEFAULT_DEGREE_BOUND):
        self.spec = spec
        self.degree_bound = degree_bound
        self._memo: dict[Word, Scalar] = {(): ONE}
        variant = spec.variant
        if isinstance(variant, SemicircularFamily):
            kappas = [[0, v] for v in variant.variances]
        elif isinstance(variant, FreeFamily):
            kappas = [free_cumulants(seq) for seq in variant.moments]
        else:
            kappas = []
        # per letter, kappa_1..kappa_m cut after the last nonzero cumulant:
        # no block of that letter can be longer than m
        self._cumulants: list[list[Scalar]] = []
        for kappa in kappas:
            kappa = [Scalar(k) for k in kappa]
            while kappa and not kappa[-1]:
                kappa.pop()
            self._cumulants.append(kappa)

    # -- moments ---------------------------------------------------------

    def _check_degree(self, length: int) -> None:
        if length > self.degree_bound:
            raise DegreeBoundExceeded(
                f"word length {length} exceeds degree bound {self.degree_bound}"
            )
        if isinstance(self.spec.variant, ExplicitMoments):
            if length > self.spec.variant.degree:
                raise DegreeBoundExceeded(
                    f"word length {length} exceeds explicit table degree "
                    f"{self.spec.variant.degree}"
                )
        if isinstance(self.spec.variant, FreeFamily) and length > 0:
            available = min(len(seq) for seq in self.spec.variant.moments)
            if length > available:
                raise DegreeBoundExceeded(
                    f"word length {length} exceeds supplied moment depth {available}"
                )

    def moment(self, word: Word) -> Scalar:
        """tau of a single word."""
        word = tuple(word)
        self._check_degree(len(word))
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        if isinstance(self.spec.variant, ExplicitMoments):
            try:
                value = self.spec.variant.table[word]
            except KeyError:
                raise UnknownMoment(f"no table entry for word {word}") from None
        else:
            value = self._nc_moment(word)
        self._memo[word] = value
        return value

    def _nc_moment(self, word: Word) -> Scalar:
        """Sum over non-crossing partitions with monochromatic blocks."""
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        letter = word[0]
        kappa = self._cumulants[letter - 1]
        total = ZERO
        # the block of position 0: positions 0 = p_0 < p_1 < ... < p_{m-1}
        # with word[p_i] == letter; the gaps and the tail factorize.
        def extend(start: int, block_size: int, acc: Scalar) -> None:
            nonlocal total
            # close the block: the tail word[start:] is a free factor
            k = kappa[block_size - 1]
            if k:
                total = total + acc * k * self._nc_moment(word[start:])
            if block_size == len(kappa):
                return  # every longer block has a zero cumulant
            for nxt in range(start, len(word)):
                if word[nxt] == letter:
                    gap = self._nc_moment(word[start:nxt])
                    if gap:
                        extend(nxt + 1, block_size + 1, acc * gap)

        if kappa:  # otherwise the letter is the zero variable
            extend(1, 1, ONE)
        self._memo[word] = total
        return total

    # -- linear extensions --------------------------------------------------

    def trace_poly(self, p: NcPoly) -> Scalar:
        total = Scalar(0)
        for word, coeff in p.terms.items():
            total = total + coeff * self.moment(word)
        return total

    def trace_tensor(self, s: TensorPoly2) -> Scalar:
        """(tau (x) tau): multiply the two legs' moments."""
        total = Scalar(0)
        for (w1, w2), coeff in s.terms.items():
            total = total + coeff * self.moment(w1) * self.moment(w2)
        return total

    def partial_trace(self, s: TensorPoly2, side: str) -> NcPoly:
        """Contract one leg with tau, leaving a polynomial.

        side='left' is (tau (x) id), side='right' is (id (x) tau).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        terms: dict[Word, Scalar] = {}
        for (w1, w2), coeff in s.terms.items():
            traced, kept = (w1, w2) if side == "left" else (w2, w1)
            value = coeff * self.moment(traced)
            if value.is_zero():
                continue
            acc = terms.get(kept)
            terms[kept] = value if acc is None else acc + value
        return NcPoly(s.n, terms)

    def contract_middle(self, y: TensorPoly3) -> TensorPoly2:
        """(id (x) tau (x) id): trace the middle leg."""
        terms: dict[tuple[Word, Word], Scalar] = {}
        for (w1, w2, w3), coeff in y.terms.items():
            value = coeff * self.moment(w2)
            if value.is_zero():
                continue
            key = (w1, w3)
            acc = terms.get(key)
            terms[key] = value if acc is None else acc + value
        return TensorPoly2(y.n, terms)

    def collapse_middle(self, y: TensorPoly3) -> NcPoly:
        """m_1 (id (x) tau (x) id): trace the middle leg, multiply the outer ones."""
        terms: dict[Word, Scalar] = {}
        for (w1, w2, w3), coeff in y.terms.items():
            value = coeff * self.moment(w2)
            if value.is_zero():
                continue
            word = w1 + w3
            acc = terms.get(word)
            terms[word] = value if acc is None else acc + value
        return NcPoly(y.n, terms)

    # -- inner products and norms ---------------------------------------------

    def inner(self, p: NcPoly, q: NcPoly) -> Scalar:
        """<p, q> = tau(p q*)."""
        value = self.trace_poly(p * q.star())
        if p == q and (value.im != 0 or value.re < 0):
            raise NonPositiveMoments(
                f"<p,p> = {value} is not a nonnegative real; the moment data "
                "is not positive definite"
            )
        return value

    def norm2(self, p: NcPoly) -> float:
        """The L2 norm tau(p p*)^(1/2) as a float."""
        return math.sqrt(float(self.inner(p, p).re))

    def norm2_squared(self, p: NcPoly) -> Fraction:
        """Exact rational tau(p p*)."""
        return self.inner(p, p).re

    def inner2(self, s: TensorPoly2, u: TensorPoly2) -> Scalar:
        """<s, u> = (tau (x) tau)(s u*) under the componentwise product."""
        value = self.trace_tensor(s * u.star())
        if s == u and (value.im != 0 or value.re < 0):
            raise NonPositiveMoments(
                f"<s,s> = {value} is not a nonnegative real; the moment data "
                "is not positive definite"
            )
        return value

    def opnorm_lower(self, p: NcPoly, k: int) -> float:
        """tau((p* p)^k)^(1/2k): a nondecreasing-in-k operator norm lower bound."""
        if k < 1:
            raise ValueError("power k must be >= 1")
        power = (p.star() * p) ** k
        value = self.trace_poly(power)
        if value.im != 0 or value.re < 0:
            raise NonPositiveMoments(
                f"tau((p*p)^{k}) = {value} is not a nonnegative real"
            )
        return float(value.re) ** (1.0 / (2 * k))
