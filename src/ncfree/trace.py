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

Both free variants are evaluated by one block-of-the-first-element
recursion over non-crossing partitions, exactly, on Scalar values; the same
recursion inverts a moment sequence into free cumulants.  A block of a letter
never grows past that letter's last nonzero cumulant, so semicircular words
only ever pair letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeBoundExceeded, NonPositiveMoments, UnknownMoment
from .ncpoly import NcPoly, Word, is_letter
from .scalars import ONE, ZERO, Scalar
from .tensor import TensorPoly2, TensorPoly3

DEFAULT_DEGREE_BOUND = 12


# ---------------------------------------------------------------------------
# distribution specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemicircularFamily:
    """Free centred semicircular generators with the given variances."""

    KIND = "semicircular"
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

    KIND = "free"
    moments: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "moments",
            tuple(tuple(Fraction(m) for m in seq) for seq in self.moments),
        )


@dataclass(frozen=True)
class ExplicitMoments:
    """A raw word -> moment table up to the stated degree, checked by
    DistributionSpec (`_check_table`); missing words raise UnknownMoment."""

    KIND = "explicit"
    table: Mapping[Word, Scalar]
    degree: int

    def __post_init__(self):
        frozen = {tuple(w): Scalar.coerce(v) for w, v in dict(self.table).items()}
        object.__setattr__(self, "table", frozen)


Variant = SemicircularFamily | FreeFamily | ExplicitMoments


def _word_text(word: Word) -> str:
    return "(" + " ".join(map(str, word)) + ")"


def _check_table(n: int, variant: ExplicitMoments) -> None:
    """Reject a table that no tracial state on n self-adjoint letters has.

    Entries must use integer letters 1..n and lengths up to the degree, and
    every entry present must agree with the others under traciality,
    tau(rotation of w) = tau(w), and the star, tau(w*) = conj tau(w).
    A word that is a rotation of its own reversal (a palindrome, say) must
    therefore have a real moment, and tau of the empty word, if listed, must
    be 1.  Missing words are allowed.
    """
    table = variant.table
    for word, value in table.items():
        for letter in word:
            if not is_letter(letter, n):
                raise ValueError(
                    f"explicit moment word {_word_text(word)} has letter "
                    f"{letter!r} outside 1..{n}"
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
    unit = table.get((), ONE)
    if unit != ONE:
        raise ValueError(f"explicit moment table has tau() = {unit}, not 1")


def _exact_numbers(values) -> tuple:
    """A JSON list of exact numbers: strings such as "1/10", or integers.

    A JSON float is refused, since its binary expansion, not the decimal
    that was written, would enter the exact layer.
    """
    if not isinstance(values, list):
        raise ValueError(f"{values!r} is not a list of numbers")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ValueError(f"number {value!r} is not a string or an integer")
    return tuple(values)


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
        variant = self.variant
        if isinstance(variant, SemicircularFamily):
            fields = {"variances": [str(v) for v in variant.variances]}
        elif isinstance(variant, FreeFamily):
            fields = {"moments": [[str(m) for m in seq] for seq in variant.moments]}
        else:
            table = sorted(variant.table.items())
            fields = {
                "degree": variant.degree,
                "moments": [{"word": list(w), "value": str(v)} for w, v in table],
            }
        return {"n": self.n, "variant": variant.KIND, **fields}

    @staticmethod
    def from_dict(data: Mapping) -> "DistributionSpec":
        n = int(data["n"])
        kind = data["variant"]
        # the variant classes convert their numbers to Fraction themselves
        if kind == "semicircular":
            variant: Variant = SemicircularFamily(_exact_numbers(data["variances"]))
        elif kind == "free":
            variant = FreeFamily(tuple(_exact_numbers(seq) for seq in data["moments"]))
        elif kind == "explicit":
            table: dict[Word, Scalar] = {}
            for entry in data["moments"]:
                if not isinstance(entry["word"], list):
                    raise ValueError(f"moment word {entry['word']!r} is not a list")
                word = tuple(entry["word"])
                if word in table:
                    raise ValueError(
                        f"explicit moment word {_word_text(word)} is listed twice"
                    )
                if not isinstance(entry["value"], str):
                    raise ValueError(f"moment value {entry['value']!r} is not a string")
                table[word] = Scalar.parse(entry["value"])
            variant = ExplicitMoments(table, int(data["degree"]))
        else:
            raise ValueError(f"unknown distribution variant: {kind!r}")
        return DistributionSpec(n, variant)

    @staticmethod
    def standard_semicircular(n: int) -> "DistributionSpec":
        return DistributionSpec(n, SemicircularFamily((Fraction(1),) * n))


# ---------------------------------------------------------------------------
# the non-crossing recursion and free cumulants
# ---------------------------------------------------------------------------


def _nc_moment(
    word: Word, cumulants: Sequence[Sequence[Scalar]], memo: dict[Word, Scalar]
) -> Scalar:
    """Sum over non-crossing partitions of `word` with monochromatic blocks.

    A block of k copies of letter i contributes cumulants[i - 1][k - 1], and
    no block of that letter is longer than its list.  Every subword met is
    stored in `memo`, which must already hold tau() = 1.
    """
    cached = memo.get(word)
    if cached is not None:
        return cached
    letter = word[0]
    kappa = cumulants[letter - 1]
    total = ZERO
    # the block of position 0: positions 0 = p_0 < p_1 < ... < p_{m-1}
    # with word[p_i] == letter; the gaps and the tail factorize.
    def extend(start: int, block_size: int, acc: Scalar) -> None:
        nonlocal total
        # close the block: the tail word[start:] is a free factor
        k = kappa[block_size - 1]
        if k:
            total = total + acc * k * _nc_moment(word[start:], cumulants, memo)
        if block_size == len(kappa):
            return  # every longer block has a zero cumulant
        for nxt in range(start, len(word)):
            if word[nxt] == letter:
                gap = _nc_moment(word[start:nxt], cumulants, memo)
                if gap:
                    extend(nxt + 1, block_size + 1, acc * gap)

    if kappa:  # otherwise the letter is the zero variable
        extend(1, 1, ONE)
    memo[word] = total
    return total


def free_cumulants(moments: Sequence[Fraction]) -> list[Fraction]:
    """Invert the non-crossing moment formula: kappa_1..kappa_D from m_1..m_D."""
    kappa: list[Scalar] = []
    memo: dict[Word, Scalar] = {(): ONE}
    for k, m_k in enumerate(moments, start=1):
        word = (1,) * k
        m_k = Scalar(Fraction(m_k))
        # all partitions of 1^k but the one block use only kappa_1..kappa_{k-1}
        kappa.append(m_k - _nc_moment(word, [kappa], memo))
        memo[word] = m_k  # the true m_k, for the longer words that contain 1^k
    return [value.re for value in kappa]


def check_nonnegative(value: Scalar, quantity: str) -> Scalar:
    """Return the value of `quantity` if it is a nonnegative real, else raise."""
    if value.im != 0 or value.re < 0:
        raise NonPositiveMoments(
            f"{quantity} = {value} is not a nonnegative real; the moment data "
            "is not positive"
        )
    return value


# ---------------------------------------------------------------------------
# the trace functional
# ---------------------------------------------------------------------------


class TraceFunctional:
    """tau induced by a DistributionSpec, memoized over raw words.

    The variant is resolved once, in __init__, so `moment` only compares the
    word length with the tightest limit and looks the word up.
    """

    def __init__(self, spec: DistributionSpec, degree_bound: int = DEFAULT_DEGREE_BOUND):
        self.spec = spec
        self.degree_bound = degree_bound
        variant = spec.variant
        # (limit, name) in the order a word that is too long reports them
        self._limits = [(degree_bound, "degree bound")]
        # None for an explicit table: a word missing from the memo is unknown
        self._cumulants: list[list[Scalar]] | None = None
        if isinstance(variant, ExplicitMoments):
            self._limits.append((variant.degree, "explicit table degree"))
            self._memo: dict[Word, Scalar] = {**variant.table, (): ONE}
        else:
            if isinstance(variant, SemicircularFamily):
                kappas = [[0, v] for v in variant.variances]
            else:
                kappas = [free_cumulants(seq) for seq in variant.moments]
                if variant.moments:
                    depth = min(len(seq) for seq in variant.moments)
                    self._limits.append((depth, "supplied moment depth"))
            self._memo = {(): ONE}
            # per letter, kappa_1..kappa_m cut after the last nonzero cumulant:
            # no block of that letter can be longer than m
            self._cumulants = []
            for kappa in kappas:
                kappa = [Scalar(k) for k in kappa]
                while kappa and not kappa[-1]:
                    kappa.pop()
                self._cumulants.append(kappa)
        self._max_length = min(limit for limit, _ in self._limits)

    # -- moments ---------------------------------------------------------

    def moment(self, word: Word) -> Scalar:
        """tau of a single word."""
        word = tuple(word)
        if len(word) > self._max_length:
            for limit, name in self._limits:
                if len(word) > limit:
                    raise DegreeBoundExceeded(
                        f"word length {len(word)} exceeds {name} {limit}"
                    )
        value = self._memo.get(word)
        if value is None:
            if self._cumulants is None:
                raise UnknownMoment(f"no table entry for word {word}")
            value = _nc_moment(word, self._cumulants, self._memo)
        return value

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

    def _contract(self, s: TensorPoly2 | TensorPoly3, split, result_cls):
        """Trace the word split(key)[0] of each term; sum at the key split(key)[1]."""
        terms: dict = {}
        for key, coeff in s.terms.items():
            traced, kept = split(key)
            value = coeff * self.moment(traced)
            if value.is_zero():
                continue
            acc = terms.get(kept)
            terms[kept] = value if acc is None else acc + value
        return result_cls._trusted(s.n, terms)

    def partial_trace(self, s: TensorPoly2, side: str) -> NcPoly:
        """Contract one leg with tau, leaving a polynomial.

        side='left' is (tau (x) id), side='right' is (id (x) tau).
        """
        if side == "left":
            return self._contract(s, lambda key: key, NcPoly)
        if side == "right":
            return self._contract(s, lambda key: key[::-1], NcPoly)
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def contract_middle(self, y: TensorPoly3) -> TensorPoly2:
        """(id (x) tau (x) id): trace the middle leg."""
        return self._contract(y, lambda key: (key[1], (key[0], key[2])), TensorPoly2)

    def collapse_middle(self, y: TensorPoly3) -> NcPoly:
        """m_1 (id (x) tau (x) id): trace the middle leg, multiply the outer ones."""
        return self._contract(y, lambda key: (key[1], key[0] + key[2]), NcPoly)

    # -- inner products and norms ---------------------------------------------

    def inner(self, p: NcPoly, q: NcPoly) -> Scalar:
        """<p, q> = tau(p q*)."""
        value = self.trace_poly(p * q.star())
        if p == q:
            check_nonnegative(value, "<p,p>")
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
        if s == u:
            check_nonnegative(value, "<s,s>")
        return value

    def opnorm_lower(self, p: NcPoly, k: int) -> float:
        """tau((p* p)^k)^(1/2k): a nondecreasing-in-k operator norm lower bound."""
        if k < 1:
            raise ValueError("power k must be >= 1")
        power = (p.star() * p) ** k
        value = check_nonnegative(self.trace_poly(power), f"tau((p*p)^{k})")
        return float(value.re) ** (1.0 / (2 * k))
