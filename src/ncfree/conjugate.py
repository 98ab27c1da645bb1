"""Conjugate variables: relation checking, the adjoint formula and bounds.

A candidate is a tuple of polynomials (xi_1, ..., xi_n) together with the
TraceFunctional of a distribution.  check_conjugate tests the defining
relations

    (tau (x) tau)(d_j P) = tau(xi_j P)

by full word enumeration up to a degree, since the relations quantify over
all P and word enumeration is the faithful finite truncation.  On a word w,
with xi_j = sum_u c_u u, the relation is an identity between moments,

    sum over p with w[p] = j of tau(w[:p]) tau(w[p+1:]) = sum_u c_u tau(u w),

so each side is a sum of moment lookups.  A word has moment 0 unless its
parity mask, the XOR of TraceFunctional.parity_bits over its letters, is 0,
and a term is added only when its factors are nonzero.  The sweep carries
each word's mask as it walks the words, so a word on which every relation
is 0 = 0 by parity is never built or looked up.  The moments are read
straight from the trace's memo, TraceFunctional.moments, a stored 0
included; the memo answers a miss through TraceFunctional.moment.

The left side at w depends on the distribution alone, not on the
candidate.  It is summed once and kept on the trace functional
(TraceFunctional.left_sides), beside its moment memo, so another candidate
on that functional, a report after a verification, or a deeper sweep reads
it instead of summing the splits again.

The relations have a reversal symmetry.  The generators are self-adjoint,
so the adjoint w* of a word is its reversal, and a free family has
tau(v*) = conj tau(v) and tau(a b) = tau(b a) on every word.  If every xi_j
is self-adjoint as well, both sides at w* are the conjugates of those at w:
the left side term by term, the right side as
tau(xi_j w*) = conj tau(w xi_j) = conj tau(xi_j w).  For such a candidate
on a free family only one word of each reversal pair is evaluated.  An
explicit table may lack words, so there every word is looked up as listed.

dstar evaluates the adjoint of d_j on the tensor square, by linearity, from

    dstar_j(w1 (x) w2) = w1 xi_j w2 - sum over w1 = a Z_j b of tau(b) a w2
                                    - sum over w2 = a Z_j b of tau(a) w1 b,

whose closed forms on P (x) 1 and 1 (x) P serve as independent cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, Iterator, Sequence

from .derivations import check_index, d
from .errors import ConjugateCheckFailed, DegreeBoundExceeded, UnknownMoment
from .ncpoly import NcPoly, Word
from .scalars import ZERO, Scalar
from .tensor import TensorPoly2
from .trace import TraceFunctional


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a conjugate-relation sweep."""

    max_degree_checked: int
    failures: tuple[tuple[int, Word, Scalar, Scalar], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "max_degree_checked": self.max_degree_checked,
            "passed": self.passed,
            "failures": [
                {"j": j, "word": list(w), "lhs": str(lhs), "rhs": str(rhs)}
                for j, w, lhs, rhs in self.failures
            ],
        }


class ConjugateCandidate:
    """Polynomial candidate (xi_1, ..., xi_n) for the conjugate system of the
    trace functional `trace`."""

    def __init__(self, xi: Sequence[NcPoly], trace: TraceFunctional):
        spec = trace.spec
        xi = tuple(xi)
        if len(xi) != spec.n:
            raise ValueError(f"need {spec.n} candidate vectors, got {len(xi)}")
        for p in xi:
            if p.n != spec.n:
                raise ValueError("candidate polynomial over the wrong algebra")
        self.xi = xi
        self.spec = spec
        self.trace = trace

    def self_adjointness(self) -> list[bool]:
        return [p.is_self_adjoint() for p in self.xi]


def _mask(word: Word, bits: Sequence[int]) -> int:
    total = 0
    for letter in word:
        total ^= bits[letter]
    return total


#: words are walked as a prefix times a suffix of up to this many letters
SUFFIX_LETTERS = 3


def _masked_words(
    n: int, degree: int, bits: Sequence[int], wanted: Container[int]
) -> Iterator[tuple[Word, int]]:
    """(w, mask(w)) for the words w over 1..n of length 0..degree whose mask is
    in `wanted`, shortest first and lexicographic within a length.

    mask(w) is the XOR of bits[letter] over w.  A word is a prefix from
    itertools.product times a suffix of up to SUFFIX_LETTERS letters; a
    prefix's mask picks out the suffixes that give a wanted mask, so no
    other word is built.
    """
    letters = range(1, n + 1)
    suffixes = [
        [(tail, _mask(tail, bits)) for tail in itertools.product(letters, repeat=size)]
        for size in range(min(degree, SUFFIX_LETTERS) + 1)
    ]
    for length in range(degree + 1):
        size = min(length, SUFFIX_LETTERS)
        fitting: dict[int, list[tuple[Word, int]]] = {}
        for prefix in itertools.product(letters, repeat=length - size):
            head = _mask(prefix, bits)
            tails = fitting.get(head)
            if tails is None:
                tails = fitting[head] = [
                    (tail, head ^ tail_mask)
                    for tail, tail_mask in suffixes[size]
                    if head ^ tail_mask in wanted
                ]
            for tail, word_mask in tails:
                yield prefix + tail, word_mask


def _left_side(word: Word, j: int, trace: TraceFunctional) -> Scalar:
    """(tau (x) tau)(d_j w) for a word of mask parity_bits[j]: the sum over the
    splits w = a Z_j b of tau(a) tau(b), skipping a head a of nonzero mask."""
    moments, bits = trace.moments, trace.parity_bits
    lhs = ZERO
    head_mask = 0
    for pos, letter in enumerate(word):
        if letter == j and not head_mask:
            left = moments[word[:pos]]
            if left:
                right = moments[word[pos + 1:]]
                if right:
                    # the first term as it is: ZERO + term rebuilds the same triple
                    lhs = left * right if lhs is ZERO else lhs + left * right
        head_mask ^= bits[letter]
    return lhs


def check_conjugate(cand: ConjugateCandidate, degree: int) -> VerificationReport:
    """Compare both sides of the conjugate relations on all words up to `degree`.

    Words are walked shortest first, in lexicographic order, and a word on
    which every relation is 0 = 0 by parity is never built.  The left sides
    are read from and added to the trace's `left_sides`.  A failure is
    (j, w, lhs, rhs); the failures come sorted by j, then length, then word.
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    trace = cand.trace
    xi_degrees = [int(p.total_degree()) for p in cand.xi if not p.is_zero()]
    # the sweep's longest word: u w on the right, or a split's head or tail
    longest = degree + max(xi_degrees) if xi_degrees else degree - 1
    trace.check_sweep(longest)
    moments = trace.moments
    # tau(v) = 0 unless mask(v) = 0: tau(u w) needs mask(u) = mask(w), and a
    # split of w around Z_j needs mask(w) = bits[j] and then a head of mask 0
    bits = trace.parity_bits
    # word mask -> the relations not 0 = 0 there, as (j, the left sides of j,
    # or None where parity makes the left side 0, the xi_j terms of that mask)
    relations: dict[int, list] = {}
    for j, p in enumerate(cand.xi, start=1):
        by_mask: dict[int, list] = {}
        for u, coeff in p.terms.items():
            by_mask.setdefault(_mask(u, bits), []).append((u, coeff))
        for word_mask in {bits[j], *by_mask}:
            sides = trace.left_sides.setdefault(j, {}) if word_mask == bits[j] else None
            relations.setdefault(word_mask, []).append((j, sides, by_mask.get(word_mask, ())))
    mirror = trace.free and all(cand.self_adjointness())
    failures = []
    for word, word_mask in _masked_words(cand.spec.n, degree, bits, relations):
        if mirror:
            reverse = word[::-1]
            if reverse < word:
                continue  # added with the failures of its reversal
        for j, sides, terms in relations[word_mask]:
            lhs = ZERO
            if sides is not None:
                lhs = sides.get(word)
                if lhs is None:
                    lhs = sides[word] = _left_side(word, j, trace)
            rhs = ZERO
            for u, coeff in terms:
                value = moments[u + word]
                if value:
                    rhs = coeff * value if rhs is ZERO else rhs + coeff * value
            if lhs != rhs:
                failures.append((j, word, lhs, rhs))
                if mirror and reverse != word:
                    failures.append((j, reverse, lhs.conjugate(), rhs.conjugate()))
    failures.sort(key=lambda item: (item[0], len(item[1]), item[1]))
    return VerificationReport(degree, tuple(failures))


def dstar(cand: ConjugateCandidate, j: int, y: TensorPoly2) -> NcPoly:
    """The adjoint of d_j applied to a tensor-square element, from its word splits."""
    check_index(j, cand.spec.n)
    first = y.collapse(cand.xi[j - 1])
    # the traced term: tau(b) a w2 for w1 = a Z_j b, tau(a) w1 b for w2 = a Z_j b
    terms: dict[Word, Scalar] = {}
    for (w1, w2), coeff in y.terms.items():
        splits = [(w1[pos + 1:], w1[:pos] + w2) for pos, z in enumerate(w1) if z == j]
        splits += [(w2[:pos], w1 + w2[pos + 1:]) for pos, z in enumerate(w2) if z == j]
        for traced, kept in splits:
            tau = cand.trace.moment(traced)
            if tau:
                value = coeff * tau
                acc = terms.get(kept)
                terms[kept] = value if acc is None else acc + value
    return first - NcPoly._trusted(y.n, terms)


def dstar_left(cand: ConjugateCandidate, j: int, p: NcPoly) -> NcPoly:
    """Closed form on P (x) 1: P xi_j - (id (x) tau)(d_j P)."""
    check_index(j, cand.spec.n)
    return p * cand.xi[j - 1] - cand.trace.partial_trace(d(j, p), "right")


def dstar_right(cand: ConjugateCandidate, j: int, p: NcPoly) -> NcPoly:
    """Closed form on 1 (x) P: xi_j P - (tau (x) id)(d_j P)."""
    check_index(j, cand.spec.n)
    return cand.xi[j - 1] * p - cand.trace.partial_trace(d(j, p), "left")


def check_adjoint(
    cand: ConjugateCandidate, j: int, y: TensorPoly2, q: NcPoly
) -> bool:
    """<dstar_j(y), q> = <y, d_j q>, exactly."""
    lhs = cand.trace.inner(dstar(cand, j, y), q)
    rhs = cand.trace.inner2(y, d(j, q))
    return lhs == rhs


def check_duality(
    trace: TraceFunctional, p1: NcPoly, p2: NcPoly, i: int
) -> bool:
    """((tau (x) id)(P1 d_i P2))* = (id (x) tau)((d_i P2*) P1*), exactly.

    A moment identity: for P1 = sum a x, P2 = sum b y and each y[k] = i, with
    v = x y[:k], the left side has conj(a b tau(v)) and the right side
    conj(a b) tau(v*) at the word rev(y[k+1:]).  tau(v) and tau(v*) are read
    apart from TraceFunctional.moments, so a functional with
    tau(v*) != conj tau(v) fails.  Only where the two differ is the
    coefficient conj(a b) (conj tau(v) - tau(v*)) formed.
    """
    check_index(i, p2.n)
    p2._check_compatible(p1)
    try:
        difference = _duality_difference(trace, p1, p2, i)
    except (DegreeBoundExceeded, UnknownMoment):
        # a length error names the longest v = x y[:k], whatever the order of
        # the terms, and comes before a missing word, as in partial_trace
        heads = [len(y) - 1 - y[::-1].index(i) for y in p2.terms if i in y]
        trace.check_length(max(map(len, p1.terms)) + max(heads))
        raise
    return not any(difference.values())


def _duality_difference(
    trace: TraceFunctional, p1: NcPoly, p2: NcPoly, i: int
) -> dict[Word, Scalar]:
    """The coefficients conj(a b) (conj tau(v) - tau(v*)) of check_duality, by word."""
    moments = trace.moments
    # a table lacking tau(v*) raises once every tau(v) is read, for the last
    # such term: what reading all tau(v), then all tau(v*) from the last term
    # back, meets first
    missing = None
    difference: dict[Word, Scalar] = {}
    for x, a in p1.terms.items():
        for y, b in p2.terms.items():
            for k, letter in enumerate(y):
                if letter != i:
                    continue
                v = x + y[:k]
                tau = moments[v].conjugate()
                try:
                    star = moments[v[::-1]]
                except UnknownMoment:
                    missing = v[::-1]
                    continue
                if tau != star:
                    key = y[k + 1:][::-1]
                    value = (a * b).conjugate() * (tau - star)
                    difference[key] = difference.get(key, ZERO) + value
    if missing is not None:
        trace.moment(missing)
    return difference


@dataclass(frozen=True)
class MarginsReport:
    """Signed margins (bound minus left side) for the norm inequalities.

    Left sides are exact symbolic L2 norms; only the operator norms on the
    right are estimates, which isolates their error in one factor.
    """

    xi_l2: float
    p_opnorm: float
    margin_adjoint_left: float
    margin_adjoint_right: float
    margin_partial_left: float
    margin_partial_right: float
    q_opnorm: float | None = None
    margin_dstar_tensor: float | None = None
    margin_twisted_partial: float | None = None

    def all_margins(self) -> list[float]:
        values = [
            self.margin_adjoint_left,
            self.margin_adjoint_right,
            self.margin_partial_left,
            self.margin_partial_right,
        ]
        if self.margin_dstar_tensor is not None:
            values.append(self.margin_dstar_tensor)
        if self.margin_twisted_partial is not None:
            values.append(self.margin_twisted_partial)
        return values

    def to_dict(self) -> dict:
        return {
            "xi_l2": self.xi_l2,
            "p_opnorm": self.p_opnorm,
            "q_opnorm": self.q_opnorm,
            "margins": {
                "adjoint_left": self.margin_adjoint_left,
                "adjoint_right": self.margin_adjoint_right,
                "partial_left": self.margin_partial_left,
                "partial_right": self.margin_partial_right,
                "dstar_tensor": self.margin_dstar_tensor,
                "twisted_partial": self.margin_twisted_partial,
            },
        }


def norm_margins(
    cand: ConjugateCandidate,
    j: int,
    p: NcPoly,
    p_opnorm: float,
    q: NcPoly | None = None,
    q_opnorm: float | None = None,
) -> MarginsReport:
    """The norm estimates on dstar at the given operator norms of p and q.

    Covers ||dstar(P (x) 1)||_2 <= ||xi|| ||P|| and its mirror, the factor-2
    partial-trace bounds, and optionally (given q and q_opnorm) the factor-3
    bound for dstar on P (x) q and the factor-4 bound for the twisted partial
    trace.  ||P|| may be the lower estimate `opnorm_lower` or one measured on
    matrices, so a negative margin flags closer inspection, not a refutation.
    """
    check_index(j, cand.spec.n)
    trace = cand.trace
    xi_l2 = trace.norm2(cand.xi[j - 1])

    lhs_left = trace.norm2(dstar_left(cand, j, p))
    lhs_right = trace.norm2(dstar_right(cand, j, p))
    d_p = d(j, p)
    lhs_partial_left = trace.norm2(trace.partial_trace(d_p, "right"))
    lhs_partial_right = trace.norm2(trace.partial_trace(d_p, "left"))

    margin_dstar_tensor = None
    margin_twisted_partial = None
    if q is not None:
        lhs_tensor = trace.norm2(dstar(cand, j, TensorPoly2.of(p, q)))
        margin_dstar_tensor = 3 * xi_l2 * p_opnorm * q_opnorm - lhs_tensor
        twisted = trace.partial_trace(d_p.bimodule_mul(NcPoly.one(p.n), q), "right")
        lhs_twisted = trace.norm2(twisted)
        margin_twisted_partial = 4 * xi_l2 * p_opnorm * q_opnorm - lhs_twisted

    return MarginsReport(
        xi_l2=xi_l2,
        p_opnorm=p_opnorm,
        margin_adjoint_left=xi_l2 * p_opnorm - lhs_left,
        margin_adjoint_right=xi_l2 * p_opnorm - lhs_right,
        margin_partial_left=2 * xi_l2 * p_opnorm - lhs_partial_left,
        margin_partial_right=2 * xi_l2 * p_opnorm - lhs_partial_right,
        q_opnorm=q_opnorm,
        margin_dstar_tensor=margin_dstar_tensor,
        margin_twisted_partial=margin_twisted_partial,
    )


@dataclass(frozen=True)
class FisherInformation:
    """Sum of the squared L2 norms of a verified conjugate system."""

    exact: Scalar
    degree_checked: int

    @property
    def value(self) -> float:
        return float(self.exact.re)


def fisher(cand: ConjugateCandidate, degree: int = 8) -> FisherInformation:
    """Free Fisher information of a verified candidate.

    Refuses when the conjugate relations fail up to `degree`: the sum of
    squared norms of an unverified candidate is not the Fisher information.
    """
    report = check_conjugate(cand, degree)
    if not report.passed:
        raise ConjugateCheckFailed(report)
    total = Scalar(0)
    for p in cand.xi:
        total = total + cand.trace.inner(p, p)
    return FisherInformation(total, degree)
