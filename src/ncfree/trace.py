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

Both free variants sum over the block of a word's first letter in its
non-crossing partitions, exactly, on Scalar values, and fill the memo of
subwords bottom up, so no call nests once per letter; the same sum inverts
a moment sequence into free cumulants.  A block of a letter never grows past
that letter's last nonzero cumulant, so semicircular words only pair letters.

The sum also uses a parity rule.  A law is symmetric exactly when its
odd free cumulants vanish, and then Z_i -> -Z_i leaves the joint law of a
free family unchanged (Nica and Speicher, Lectures on the Combinatorics of
Free Probability, 2006).  So a word in which a symmetric letter --
semicircular, Bernoulli, arcsine, the zero variable -- occurs an odd number
of times has moment 0: every partition of it has a block of that letter of
odd size.  Such a word is answered without a sum.  Explicit tables and the
inversion into cumulants never use the rule.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeBoundExceeded, NonPositiveMoments, UnknownMoment
from .ncpoly import NcPoly, Word, is_letter
from .scalars import ONE, ZERO, Scalar
from .tensor import TensorPoly2

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


def json_list(value, what: str) -> list:
    """A spec value that must be a JSON list; anything else is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} {value!r} is not a list")
    return value


def json_int(value, what: str, minimum: int) -> int:
    """A spec value that must be a JSON integer of at least `minimum`.

    A bool, a float or any other type is a ValueError, as is a smaller value.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def json_real(value, what: str) -> float:
    """A spec value that must be a finite JSON number; a bool is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    # not math.isfinite: a JSON integer too large for a float would overflow it
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} {value!r} is not finite")
    return float(value)


def _exact_numbers(values, what: str) -> tuple[Fraction, ...]:
    """A JSON list of exact numbers: strings such as "1/10", or integers.

    A JSON float is refused, since its binary expansion, not the decimal
    that was written, would enter the exact layer.  So is a zero denominator.
    """
    for value in json_list(values, what):
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ValueError(f"number {value!r} is not a string or an integer")
    numbers = []
    for value in values:
        try:
            numbers.append(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"number {value!r} has a zero denominator") from None
    return tuple(numbers)


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
        n = json_int(data["n"], "n", 0)
        kind = data["variant"]
        if kind == "semicircular":
            variant: Variant = SemicircularFamily(
                _exact_numbers(data["variances"], "variances")
            )
        elif kind == "free":
            sequences = json_list(data["moments"], "moment sequences")
            variant = FreeFamily(
                tuple(_exact_numbers(seq, "moment sequence") for seq in sequences)
            )
        elif kind == "explicit":
            table: dict[Word, Scalar] = {}
            for entry in json_list(data["moments"], "moment table"):
                if not isinstance(entry, dict):
                    raise ValueError(f"moment table entry {entry!r} is not an object")
                word = tuple(json_list(entry["word"], "moment word"))
                if word in table:
                    raise ValueError(
                        f"explicit moment word {_word_text(word)} is listed twice"
                    )
                if not isinstance(entry["value"], str):
                    raise ValueError(f"moment value {entry['value']!r} is not a string")
                table[word] = Scalar.parse(entry["value"])
            variant = ExplicitMoments(table, json_int(data["degree"], "degree", 0))
        else:
            raise ValueError(f"unknown distribution variant: {kind!r}")
        return DistributionSpec(n, variant)

    @staticmethod
    def standard_semicircular(n: int) -> "DistributionSpec":
        return DistributionSpec(n, SemicircularFamily((Fraction(1),) * n))


# ---------------------------------------------------------------------------
# the non-crossing sum and free cumulants
# ---------------------------------------------------------------------------


def least_rotation(word: Word) -> Word:
    """The lexicographically least rotation of `word`, in linear time.

    Two candidate starts i < j race along the doubled word: on the first
    mismatch after k equal letters, every start in the loser's run of k + 1
    can be no least rotation, so the loser jumps past it.  The least rotation
    is the survivor once j runs off the word or k spans it (a periodic word).
    """
    length = len(word)
    doubled = word + word
    i, j, k = 0, 1, 0
    while j < length and k < length:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return doubled[i:i + length]


def _nc_moment(
    word: Word,
    cumulants: Sequence[Sequence[Scalar]],
    memo: dict[Word, Scalar],
    symmetric: Sequence[int] = (),
) -> Scalar:
    """Sum over non-crossing partitions of `word` with monochromatic blocks.

    A block of k copies of letter i contributes cumulants[i - 1][k - 1], and
    no block of that letter is longer than its list.  Asked on a miss of
    `memo`, which holds tau() = 1; `word` is stored there.  `symmetric` lists
    letters whose odd cumulants all vanish: a word with an odd count of one is 0.

    A free product of tracial states is tracial, so a word is looked up under
    its least rotation, the key all its rotations share.  A missing key is
    summed by `_block_sum` from the stored values of its subwords.  If one is
    missing, the memo is first filled bottom up: each subword key[a:b] is read
    under itself or its least rotation, or else summed and stored under both,
    shortest first.  No call nests per letter.  An odd subword reads 0 from a
    prefix mask and is never stored.
    """
    for letter in symmetric:
        if word.count(letter) & 1:
            memo[word] = ZERO
            return ZERO
    key = least_rotation(word)
    value = memo.get(key)
    if value is None:
        n, prefix = len(key), [0]  # prefix[b] ^ prefix[a] is the parity mask of key[a:b]
        for letter in key:
            prefix.append(prefix[-1] ^ (1 << letter if letter in symmetric else 0))
        try:  # a KeyError: a subword that the sum reads is not stored yet
            value = memo[key] = _block_sum(key, 0, n, cumulants, prefix, memo)
        except KeyError:
            for span in range(1, n + 1):
                for a, b in zip(range(n), range(span, n + 1)):
                    if prefix[a] == prefix[b] and key[a:b] not in memo:
                        turn = least_rotation(key[a:b])
                        if turn not in memo:
                            memo[turn] = _block_sum(key, a, b, cumulants, prefix, memo)
                        memo[key[a:b]] = memo[turn]
            value = memo[key]
    memo[word] = value
    return value


def _block_sum(key: Word, a: int, b: int, cumulants, prefix, memo) -> Scalar:
    """tau(key[a:b]) summed over the block of its first letter, from the values
    memo[key[x:y]], a < x <= y <= b; a missing one of parity mask 0 raises
    KeyError.  The block sits at a = q_0 < q_1 < ... of that letter; ends[i]
    sums the ways to finish a block of `size` elements at q_i, from the size
    above or by closing it at q_c = b with kappa[size - 1]: each state once."""
    kappa = cumulants[key[a] - 1]
    q = [p for p in range(a, b) if key[p] == key[a]] + [b]
    c = len(q) - 1
    longest = min(len(kappa), c)  # no block is longer than kappa or than c
    ends = [ZERO] * len(q)
    for size in range(longest, 0, -1):
        longer, ends = ends, [ZERO] * len(q)
        longer[c] = kappa[size - 1]
        for i in range(size - 1, c if size > 1 else 1):
            start, mask = q[i] + 1, prefix[q[i] + 1]
            js = range(i + 1 if size < longest else c, c + 1)  # blocks end at q_c = b
            terms = [memo[key[start:q[j]]] * longer[j] for j in js
                     if longer[j] and mask == prefix[q[j]]]
            ends[i] = functools.reduce(Scalar.__add__, terms) if terms else ZERO
    return ends[0]  # ZERO for the zero variable, whose kappa is empty


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
    if not (value.is_zero() or value.is_positive()):
        raise NonPositiveMoments(
            f"{quantity} = {value} is not a nonnegative real; the moment data "
            "is not positive"
        )
    return value


# ---------------------------------------------------------------------------
# the trace functional
# ---------------------------------------------------------------------------

#: free distributions whose moment memos and cumulants a process keeps
SHARED_DISTRIBUTIONS = 8


class MomentMemo(dict):
    """word -> tau(word), and beside it what is computed from those moments alone.

    `left_sides[j][w]` is (tau (x) tau)(d_j w), the left side of the conjugate
    relation at w, which conjugate.check_conjugate fills.  `certified[d]` is
    the per-letter Hankel verdict of reduction.free_family_certified at
    degree d, which that function fills the first time it is asked.  Both
    live and are cleared with the moments they come from, so the first call
    on a family pays in full and later calls in the process read them; a
    private copy, MomentMemo(memo), starts with both empty.
    """

    __slots__ = ("left_sides", "certified")

    def __init__(self, *args):
        super().__init__(*args)
        self.left_sides: dict[int, dict[Word, Scalar]] = {}
        self.certified: dict[int, bool] = {}


@functools.lru_cache(maxsize=SHARED_DISTRIBUTIONS)
def _shared_memo(spec: DistributionSpec, max_word_length: int) -> MomentMemo:
    """The memo that every TraceFunctional on the free family `spec` with this
    max_word_length fills, seeded with tau() = 1 and each letter's moments."""
    memo = MomentMemo({(): ONE})
    if isinstance(spec.variant, FreeFamily):
        for letter, seq in enumerate(spec.variant.moments, start=1):
            for k, m_k in enumerate(seq[:max_word_length], start=1):
                memo[(letter,) * k] = Scalar(m_k)
    return memo


@functools.lru_cache(maxsize=SHARED_DISTRIBUTIONS)
def _spec_cumulants(spec: DistributionSpec) -> tuple[tuple[Scalar, ...], ...]:
    """Per letter of a free family, kappa_1..kappa_m cut after the last
    nonzero cumulant: no block of that letter can be longer than m."""
    variant = spec.variant
    if isinstance(variant, SemicircularFamily):
        kappas = [[0, v] for v in variant.variances]
    else:
        kappas = [free_cumulants(seq) for seq in variant.moments]
    cumulants = []
    for kappa in kappas:
        kappa = [Scalar(k) for k in kappa]
        while kappa and not kappa[-1]:
            kappa.pop()
        cumulants.append(tuple(kappa))
    return tuple(cumulants)


class TraceFunctional:
    """tau induced by a DistributionSpec, memoized over raw words.

    The variant is resolved once, in __init__, so `moment` only compares the
    word length with the tightest limit and looks the word up.  Functionals
    on one free family with one max_word_length share a memo in the process
    (`_shared_memo`), which starts with each letter's own moments, so the free
    cumulants are inverted only by a mixed-word miss or symmetric_letters, at
    most once per family (`_spec_cumulants`).  The conjugate relations' left
    sides and the free-family certificate's per-degree verdicts are kept in
    the memo as well (`MomentMemo`), so they are shared the same way: the
    first call on a family pays in full, later ones in the process read them.
    A table keeps its own memo and left sides, and is never certified.
    A free-family miss is summed without recursion (`_nc_moment`), so only
    a word past the stated limits raises DegreeBoundExceeded.
    """

    def __init__(self, spec: DistributionSpec, degree_bound: int = DEFAULT_DEGREE_BOUND):
        self.spec = spec
        self.degree_bound = degree_bound
        variant = spec.variant
        #: True for a free product (semicircular or free family), where every
        #: word has a moment; False for an explicit table, which may lack words
        self.free = not isinstance(variant, ExplicitMoments)
        # (limit, name) in the order a word that is too long reports them
        self._limits = [(degree_bound, "degree bound")]
        if not self.free:
            self._limits.append((variant.degree, "explicit table degree"))
        elif isinstance(variant, FreeFamily) and variant.moments:
            depth = min(len(seq) for seq in variant.moments)
            self._limits.append((depth, "supplied moment depth"))
        #: the longest word `moment` evaluates without DegreeBoundExceeded
        self.max_word_length = min(limit for limit, _ in self._limits)
        # the memo holds only words `moment` accepts, so a hit can be read
        # straight from it (check_conjugate does)
        if self.free:
            self._memo = _shared_memo(spec, self.max_word_length)
        else:
            self._memo = MomentMemo({(): ONE})
            for word, value in variant.table.items():
                if len(word) <= self.max_word_length:
                    self._memo[word] = value

    @functools.cached_property
    def _cumulants(self) -> tuple[tuple[Scalar, ...], ...]:
        return _spec_cumulants(self.spec)

    @functools.cached_property
    def symmetric_letters(self) -> tuple[int, ...]:
        """The letters whose odd free cumulants all vanish, () for a table: a
        word with an odd count of one has moment 0."""
        if not self.free:
            return ()
        kappas = enumerate(self._cumulants, start=1)
        return tuple(letter for letter, kappa in kappas if not any(kappa[0::2]))

    def check_length(self, length: int) -> None:
        """Raise the DegreeBoundExceeded `moment` raises on a word of `length`."""
        for limit, name in self._limits:
            if length > limit:
                raise DegreeBoundExceeded(f"word length {length} exceeds {name} {limit}")

    def check_sweep(self, longest: int) -> None:
        """Raise what a sweep over words of up to `longest` letters, shortest
        first, meets first: the error at length max_word_length + 1, if reached."""
        self.check_length(min(longest, self.max_word_length + 1))

    # -- moments ---------------------------------------------------------

    def moment(self, word: Word) -> Scalar:
        """tau of a single word."""
        word = tuple(word)
        if len(word) > self.max_word_length:
            self.check_length(len(word))
        value = self._memo.get(word)
        if value is None:
            if not self.free:
                raise UnknownMoment(f"no table entry for word {word}")
            value = _nc_moment(word, self._cumulants, self._memo, self.symmetric_letters)
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

    def partial_trace(self, s: TensorPoly2, side: str) -> NcPoly:
        """Contract one leg with tau, leaving a polynomial.

        side='left' is (tau (x) id), side='right' is (id (x) tau).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        terms: dict[Word, Scalar] = {}
        for (w1, w2), coeff in s.terms.items():
            traced, kept = (w1, w2) if side == "left" else (w2, w1)
            moment = self.moment(traced)
            if moment.is_zero():
                continue
            value = coeff * moment
            acc = terms.get(kept)
            terms[kept] = value if acc is None else acc + value
        return NcPoly._trusted(s.n, terms)

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
