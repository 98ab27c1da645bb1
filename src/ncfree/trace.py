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
non-crossing partitions, exactly, on Scalar values.  A sum asks for the
subwords it reads that the memo lacks, and one explicit stack of sums
answers them, so no call nests once per letter; the same sum inverts a
moment sequence into free cumulants.  A block of a letter never grows past
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
import itertools
import math
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegreeBoundExceeded, NonPositiveMoments, UnknownMoment
from .ncpoly import NcPoly, Word, check_word, is_letter
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
    symmetric: Sequence[int],
    bits: Sequence[int],
) -> Scalar:
    """Sum over non-crossing partitions of `word` with monochromatic blocks.

    A block of k copies of letter i contributes cumulants[i - 1][k - 1], and
    no block of that letter is longer than its list.  Asked on a miss of
    `memo`, which holds tau() = 1; `word` is stored there.  A word with an odd
    count of a letter in `symmetric`, which sets that letter's `bits`, is 0.

    A free product of tracial states is tracial, so a word is looked up under
    its least rotation, the key all its rotations share.  A missing key is
    summed by `_block_sum`, which asks for each subword key[x:y] that it reads
    and the memo lacks.  One stack of sums answers: from the memo under the
    subword's least rotation if it is there, else by a sum pushed for that
    subword, whose result goes to the sum that asked.  So each subword that
    some sum reads is summed once, every sum started finishes, and no call
    nests per letter.  An odd subword reads 0 from a prefix mask and is never
    stored.
    """
    for letter in symmetric:
        if word.count(letter) & 1:
            memo[word] = ZERO
            return ZERO
    key = least_rotation(word)
    value = memo.get(key)
    if value is None:
        prefix = [0]  # prefix[b] ^ prefix[a] is the parity mask of key[a:b]
        try:
            for letter in key:
                prefix.append(prefix[-1] ^ bits[letter])
        except TypeError:  # a letter such as 1.0 that equals one of 1..n
            check_word(word, len(bits) - 1)
            raise
        stack = [_block_sum(key, 0, len(key), cumulants, prefix, memo)]
        while stack:  # value is sent to the top sum: None to start it, else what it asked
            try:
                x, y = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
                continue
            value = memo.get(least_rotation(key[x:y]))
            if value is None:
                stack.append(_block_sum(key, x, y, cumulants, prefix, memo))
    memo[word] = value
    return value


def _block_sum(key: Word, a: int, b: int, cumulants, prefix, memo):
    """A generator of tau(key[a:b]), summed over the block of its first letter
    from the values of the subwords key[x:y], a < x <= y <= b, of parity mask
    0.  For each one that `memo` lacks it yields (x, y), is sent its value and
    stores it under key[x:y]; it stores its sum under the least rotation of
    key[a:b] and returns it.  The block sits at a = q_0 < q_1 < ... of that
    letter; ends[i] sums the ways to finish a block of `size` elements at q_i,
    from the size above or by closing it at q_c = b with kappa[size - 1]:
    each state once."""
    kappa = cumulants[key[a] - 1]
    get = memo.get  # a method of a dict subclass costs a lookup per call
    q = [p for p in range(a, b) if key[p] == key[a]] + [b]
    c = len(q) - 1
    longest = min(len(kappa), c)  # no block is longer than kappa or than c
    ends = [ZERO] * len(q)
    for size in range(longest, 0, -1):
        longer, ends = ends, [ZERO] * len(q)
        longer[c] = kappa[size - 1]
        for i in range(size - 1, c if size > 1 else 1):
            start, mask = q[i] + 1, prefix[q[i] + 1]
            for j in range(i + 1 if size < longest else c, c + 1):  # blocks end at q_c = b
                if longer[j] and mask == prefix[q[j]]:
                    value = get(key[start:q[j]])
                    if value is None:
                        value = memo[key[start:q[j]]] = yield start, q[j]
                    term = value * longer[j]  # the first term saves an add of ZERO
                    ends[i] = term if ends[i] is ZERO else ends[i] + term
    memo[least_rotation(key[a:b])] = ends[0]  # ZERO for the zero variable, whose kappa is empty
    return ends[0]


def free_cumulants(moments: Sequence[Fraction]) -> list[Fraction]:
    """Invert the non-crossing moment formula: kappa_1..kappa_D from m_1..m_D."""
    kappa: list[Scalar] = []
    memo: dict[Word, Scalar] = {(): ONE}
    for k, m_k in enumerate(moments, start=1):
        word = (1,) * k
        m_k = Scalar(Fraction(m_k))
        # all partitions of 1^k but the one block use only kappa_1..kappa_{k-1}
        kappa.append(m_k - _nc_moment(word, [kappa], memo, (), (0, 0)))
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

class _Memo(dict):
    """A functional's moment memo, word -> tau(word).  memo[w] reads a hit
    and answers a miss with the functional's `moment`, which stores w or
    raises; memo.get(w) only peeks, None on a miss.  The functional is
    reached through a weak proxy, so no reference cycle forms and misses are
    answered only while the functional lives."""

    def __init__(self, trace: TraceFunctional):
        super().__init__({(): ONE})
        self._trace = weakref.proxy(trace)

    def __missing__(self, word: Word) -> Scalar:
        return self._trace.moment(word)


class TraceFunctional:
    """tau induced by a DistributionSpec, memoized over raw words.

    The variant is resolved once, in __init__, so `moment` only compares the
    word length with the tightest limit and looks the word up.  A functional
    owns everything computed from its tau alone: the moment memo, which
    starts with tau() = 1 and each free letter's own moments or the table's
    entries, read through `moments`, which answers a miss with `moment`; the
    free cumulants, inverted once and only by a mixed-word miss or
    `parity_bits`; the conjugate relations' left sides; and the free-family
    certificate's per-degree verdicts.  So the first call on a functional pays
    in full and later calls on it read them; a caller that wants them shared
    keeps the functional (the CLI keeps one per spec text).  A table is never
    certified.  A free-family miss is summed on one explicit stack, without
    recursion (`_nc_moment`), so only a word past the stated limits raises
    DegreeBoundExceeded.
    """

    def __init__(self, spec: DistributionSpec, degree_bound: int = DEFAULT_DEGREE_BOUND):
        if degree_bound < 0:
            raise ValueError(f"degree bound must be non-negative, got {degree_bound}")
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
        # the memo holds only words `moment` accepts, so a hit needs no check
        #: moments[w] is tau(w): read on a hit, computed by `moment` on a miss
        #: while this functional lives; moments.get(w) is None on a miss
        self.moments = self._memo = _Memo(self)
        self._letters = frozenset(range(1, spec.n + 1))
        if isinstance(variant, FreeFamily):
            for letter, seq in enumerate(variant.moments, start=1):
                for k, m_k in enumerate(seq[:self.max_word_length], start=1):
                    self._memo[(letter,) * k] = Scalar(m_k)
        elif not self.free:
            for word, value in variant.table.items():
                if len(word) <= self.max_word_length:
                    self._memo[word] = value
        #: left_sides[j][w] = (tau (x) tau)(d_j w), filled by conjugate.check_conjugate
        self.left_sides: dict[int, dict[Word, Scalar]] = {}
        #: certified[d] = the verdict of reduction.free_family_certified at degree d
        self.certified: dict[int, bool] = {}

    @functools.cached_property
    def _cumulants(self) -> tuple[tuple[Scalar, ...], ...]:
        """Per letter of a free family, kappa_1..kappa_m cut after the last
        nonzero cumulant: no block of that letter can be longer than m."""
        variant = self.spec.variant
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

    @functools.cached_property
    def _symmetric(self) -> tuple[int, ...]:
        """The letters whose odd free cumulants all vanish, () for a table;
        `_nc_moment` counts them before it builds a mask."""
        if not self.free:
            return ()
        kappas = enumerate(self._cumulants, start=1)
        return tuple(letter for letter, kappa in kappas if not any(kappa[0::2]))

    @functools.cached_property
    def parity_bits(self) -> tuple[int, ...]:
        """parity_bits[i] = 1 << i for a letter i whose odd free cumulants all
        vanish, else 0, and parity_bits[0] = 0; all zeros for a table.  tau(w)
        = 0 unless the XOR of parity_bits over w, its parity mask, is 0."""
        return tuple(1 << i if i in self._symmetric else 0 for i in range(self.spec.n + 1))

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
        """tau of a single word; a miss with a letter outside 1..n raises IndexOutOfRange.

        So does a miss with a letter such as 1.0 that equals one of 1..n, if
        the word reaches the sum.  A word that parity answers first, such as
        (1.0,), and a word with a bool letter give the moment of the equal
        integer word: a type check of every letter would cost each miss more
        than the set test does.
        """
        word = tuple(word)
        if len(word) > self.max_word_length:
            self.check_length(len(word))
        value = self._memo.get(word)
        if value is None:
            if not self._letters.issuperset(word):
                check_word(word, self.spec.n)
            if not self.free:
                raise UnknownMoment(f"no table entry for word {word}")
            value = _nc_moment(word, self._cumulants, self._memo, self._symmetric, self.parity_bits)
        return value

    # -- linear extensions --------------------------------------------------

    def _check_words(self, words) -> None:
        """Raise what `moment` raises on the longest of `words`, so a sum that
        reads them reports the same length whatever their order."""
        self.check_length(max(map(len, words), default=0))

    def trace_poly(self, p: NcPoly) -> Scalar:
        self._check_words(p.terms)
        total = Scalar(0)
        for word, coeff in p.terms.items():
            total = total + coeff * self.moment(word)
        return total

    def trace_tensor(self, s: TensorPoly2) -> Scalar:
        """(tau (x) tau): multiply the two legs' moments."""
        self._check_words(itertools.chain.from_iterable(s.terms))
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
        left = side == "left"
        self._check_words(key[0 if left else 1] for key in s.terms)
        terms: dict[Word, Scalar] = {}
        for (w1, w2), coeff in s.terms.items():
            traced, kept = (w1, w2) if left else (w2, w1)
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
        if p.terms:
            # the free algebra has no zero divisors: (p*p)^k has degree 2k deg p
            self.check_length(2 * k * p.total_degree())
        power = (p.star() * p) ** k
        value = check_nonnegative(self.trace_poly(power), f"tau((p*p)^{k})")
        return float(value.re) ** (1.0 / (2 * k))
