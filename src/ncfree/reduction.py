"""Degree reduction operators and the Gram-kernel relation detector.

delta(j) traces the left leg of the free difference quotient; iterating it
along the letters of a maximal-length word extracts that word's coefficient.
delta_p twists the left leg by a self-adjoint polynomial before tracing;
the iterated identity picks up one trace weight per step.  relation_kernel
computes the exact null space of the Gram matrix of monomials, whose
nonzero elements witness algebraic relations under a faithful trace; a free
family whose letters' Hankel matrices are positive definite is certified
without that matrix.
"""

from __future__ import annotations

from typing import Iterator

from .derivations import d
from .errors import NonPositiveMoments
from .ncpoly import NcPoly, Word, words_up_to
from .scalars import ONE, ZERO, Scalar
from .trace import TraceFunctional, check_nonnegative


def delta(trace: TraceFunctional, j: int, p: NcPoly) -> NcPoly:
    """(tau (x) id) d_j: trace the left factor of every decomposition."""
    return trace.partial_trace(d(j, p), "left")


def delta_p(trace: TraceFunctional, q: NcPoly, j: int, p: NcPoly) -> NcPoly:
    """(tau (x) id)((q (x) 1) d_j p) for a self-adjoint twist q.

    Idempotence of q is not required: the iterated reduction identity only
    uses the trace weight tau(q) linearly.
    """
    if not q.is_self_adjoint():
        raise ValueError("the twisting polynomial must be self-adjoint")
    twisted = d(j, p).bimodule_mul(q, NcPoly.one(p.n))
    return trace.partial_trace(twisted, "left")


def extract_leading_coeff(
    trace: TraceFunctional, p: NcPoly, word: Word
) -> Scalar:
    """Iterate delta along `word` and return the surviving constant.

    Requires a nonzero p and len(word) == total_degree(p); for a shorter word
    lower-order terms would contaminate the result, so that case is rejected.
    """
    word = tuple(word)
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading coefficient")
    degree = p.total_degree()
    if len(word) != degree:
        raise ValueError(
            f"word length {len(word)} must equal the total degree {degree}"
        )
    current = p
    for letter in word:
        current = delta(trace, letter, current)
    return current.coeff(())


def gram_matrix(
    trace: TraceFunctional, words: list[Word]
) -> list[list[Scalar]]:
    """Matrix of inner products <w, w'> = tau(w w'*) over the given words.

    Only the entries on and above the diagonal are moments; the rest follow
    from <w', w> = conj <w, w'>, which tau(u*) = conj tau(u) guarantees.
    """
    # each row is built when it is reached, so a word past the trace's limits
    # raises before the rows after it take memory
    matrix: list[list[Scalar]] = []
    for i, w1 in enumerate(words):
        diag = check_nonnegative(trace.moment(w1 + w1[::-1]), f"<w,w> for word {w1}")
        row = [earlier[i].conjugate() for earlier in matrix]
        row.append(diag)
        row.extend(trace.moment(w1 + w2[::-1]) for w2 in words[i + 1:])
        matrix.append(row)
    return matrix


def ldl(matrix: list[list[Scalar]]) -> Iterator[tuple[int, Scalar, dict]]:
    """LDL* factorization of a Hermitian matrix, column by column.

    Only the upper triangle is read, and the columns are eliminated in order
    on the diagonal of the current Schur complement S, without pivot search.
    Per column k this yields k, the pivot S[k][k] and the factor's row
    {j: S[k][j] / S[k][k]} over the nonzero entries j > k (the raw row for a
    zero pivot).  Column k is eliminated only when the next one is asked
    for, so the caller judges each pivot first.  The generator ends at a zero
    pivot with a nonzero row, which no elimination without a swap can pass.
    The rows are kept sparse, so fill-in never leaves a connected component
    of the nonzero pattern.
    """
    # rows[i] holds the nonzero entries j >= i of the current Schur complement
    rows: list[dict[int, Scalar]] = [
        {j: entry for j, entry in enumerate(row[i:], i) if entry}
        for i, row in enumerate(matrix)
    ]
    for k, row in enumerate(rows):
        pivot = row.pop(k, ZERO)
        if not pivot:
            yield k, pivot, row
            if row:
                return
            continue
        factor = {j: entry / pivot for j, entry in row.items()}
        yield k, pivot, factor
        # S[i][j] -= conj(S[k][i]) S[k][j] / pivot for k < i <= j
        for i, scaled in factor.items():
            target = rows[i]
            multiplier = scaled.conjugate()
            for j, entry in row.items():
                if j < i:
                    continue
                value = target.get(j, ZERO) - multiplier * entry
                if value:
                    target[j] = value
                else:
                    target.pop(j, None)


def jacobi(moments: list[Scalar]) -> Iterator[tuple[Scalar, Scalar | None]]:
    """The recurrence x pi_j = pi_(j+1) + a_j pi_j + (h_j / h_(j-1)) pi_(j-1).

    Yields (h_j, a_j) for j <= k from m_0..m_2k, one pair per request: the
    norms h_j = L(pi_j^2) of the monic orthogonal polynomials are the pivots
    of the `ldl` of the Hankel matrix [m_(a+b)], a, b <= k, and its factor
    gives a_j = L[j+1][j] - L[j][j-1] (Golub and Welsch 1969).  a_k would
    read m_(2k+1) and a_j at h_j = 0 would divide by 0, so both are None.
    """
    k = (len(moments) - 1) // 2
    hankel = [moments[i : i + k + 1] for i in range(k + 1)]
    previous: dict[int, Scalar] = {}
    for j, h, factor in ldl(hankel):
        a = factor.get(j + 1, ZERO) - previous.get(j, ZERO) if h and j < k else None
        yield h, a
        previous = factor


def nullspace(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Exact null-space basis of a Hermitian positive semidefinite matrix.

    In a PSD matrix a zero pivot of `ldl` forces a zero row, so that column
    is free and nothing has to be swapped.  The basis is the
    reduced-row-echelon one: for each free column f in increasing order, the
    null vector with 1 at f and 0 at every other free column.  It depends on
    the matrix alone, not on the elimination order.

    Raises NonPositiveMoments when a pivot is not a positive real or a zero
    pivot has a nonzero entry left in its row, since the matrix is then not
    PSD and an empty basis would be a false certificate.
    """
    size = len(matrix)
    # for each pivot column k: row k of the factor, divided by its pivot
    factors: dict[int, dict[int, Scalar]] = {}
    free: list[int] = []
    for k, pivot, row in ldl(matrix):
        if not pivot:
            if row:
                raise NonPositiveMoments(
                    f"zero pivot at column {k} with a nonzero entry in its row: "
                    "the matrix is not positive semidefinite"
                )
            free.append(k)
        elif not pivot.is_positive():
            raise NonPositiveMoments(
                f"pivot {pivot} at column {k} is not a positive real: "
                "the matrix is not positive semidefinite"
            )
        else:
            factors[k] = row
    basis = []
    for f in free:
        # back-substitute over the pivot columns before f
        vector = {f: ONE}
        for k in reversed(factors):
            if k > f:
                continue
            total = ZERO
            for j, scaled in factors[k].items():
                component = vector.get(j)
                if component is not None:
                    total = total + scaled * component
            if total:
                vector[k] = -total
        basis.append([vector.get(j, ZERO) for j in range(size)])
    return basis


def free_family_certified(trace: TraceFunctional, degree: int) -> bool:
    """True if a free family has no relations up to `degree`, shown per letter.

    For a free family, L2 of the free product is the orthogonal sum of the
    alternating products of centred one-letter spaces (Voiculescu, Dykema
    and Nica 1992).  So the Gram matrix of the words of length <= degree is
    congruent to a diagonal of products of the letters' orthogonal-polynomial
    norms h_0..h_degree, which `jacobi` reads from each letter's moments
    m_0..m_(2 degree): it is positive definite iff they are positive reals.

    False for an explicit table, for a degree whose words reach past a depth
    limit, and for a singular or indefinite Hankel matrix: those cases are
    left to the Gram matrix, which finds the witnesses or the error.

    The verdict depends on the family and the degree alone, so it is kept in
    the functional's `certified` store: the first call at a degree runs the
    per-letter test, and later calls on that functional read it.  The two
    early False answers store nothing.
    """
    if not trace.free:
        return False
    if not 0 <= 2 * degree <= trace.max_word_length:
        return False
    certified = trace.certified
    if degree not in certified:
        certified[degree] = _letters_positive(trace, degree)
    return certified[degree]


def _letters_positive(trace: TraceFunctional, degree: int) -> bool:
    """True if each letter's Hankel pivots h_0..h_degree are positive reals."""
    for letter in range(1, trace.spec.n + 1):
        moments = [trace.moment((letter,) * k) for k in range(2 * degree + 1)]
        if not all(h.is_positive() for h, _ in jacobi(moments)):
            return False
    return True


def gram_kernel(trace: TraceFunctional, degree: int) -> list[NcPoly]:
    """The null basis of the Gram matrix of all words of length <= degree."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    # the Gram matrix reads words up to 2 degree long, shortest first: raise what
    # it meets before the n^degree words and the moments they read take memory
    trace.check_sweep(2 * degree)
    words = list(words_up_to(trace.spec.n, degree))
    matrix = gram_matrix(trace, words)
    basis = nullspace(matrix)
    kernel = []
    for vector in basis:
        # <p,p> = 0 for p = sum c_w w iff G conj(c) = 0, so conjugate here
        terms = {words[i]: coeff.conjugate() for i, coeff in enumerate(vector)}
        kernel.append(NcPoly(trace.spec.n, terms))
    return kernel


def relation_kernel(trace: TraceFunctional, degree: int) -> list[NcPoly]:
    """Basis of {P : <P, P> = 0} within span of words of length <= degree.

    An empty result certifies the absence of algebraic relations up to the
    degree; nonzero elements are explicit relation witnesses.  A free family
    whose letters all pass `free_family_certified` gets the empty kernel
    without a Gram matrix; every other case goes through `gram_kernel`.
    """
    if free_family_certified(trace, degree):
        return []
    return gram_kernel(trace, degree)
