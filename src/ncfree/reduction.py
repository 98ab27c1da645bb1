"""Degree reduction operators and the Gram-kernel relation detector.

delta(j) traces the left leg of the free difference quotient; iterating it
along the letters of a maximal-length word extracts that word's coefficient.
delta_p twists the left leg by a self-adjoint polynomial before tracing;
the iterated identity picks up one trace weight per step.  relation_kernel
computes the exact null space of the Gram matrix of monomials, whose
nonzero elements witness algebraic relations under a faithful trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugate import words_up_to
from .derivations import d
from .errors import NonPositiveMoments
from .ncpoly import NcPoly, Word
from .scalars import Scalar
from .trace import TraceFunctional


@dataclass(frozen=True)
class ProjectionSurrogate:
    """A self-adjoint polynomial standing in for a projection.

    Idempotence is not required: the iterated reduction identity only uses
    the trace weight tau(p) linearly.
    """

    p: NcPoly
    trace_weight: Scalar

    @staticmethod
    def from_poly(trace: TraceFunctional, p: NcPoly) -> "ProjectionSurrogate":
        if not p.is_self_adjoint():
            raise ValueError("projection surrogate must be self-adjoint")
        return ProjectionSurrogate(p, trace.trace_poly(p))


def delta(trace: TraceFunctional, j: int, p: NcPoly) -> NcPoly:
    """(tau (x) id) d_j: trace the left factor of every decomposition."""
    return trace.partial_trace(d(j, p), "left")


def delta_p(
    trace: TraceFunctional, proj: ProjectionSurrogate, j: int, p: NcPoly
) -> NcPoly:
    """(tau (x) id)((proj.p (x) 1) d_j p)."""
    twisted = d(j, p).bimodule_mul(proj.p, NcPoly.one(p.n))
    return trace.partial_trace(twisted, "left")


def extract_leading_coeff(
    trace: TraceFunctional, p: NcPoly, word: Word
) -> Scalar:
    """Iterate delta along `word` and return the surviving constant.

    Requires len(word) == total_degree(p); for a shorter word lower-order
    terms would contaminate the result, so that case is rejected.
    """
    word = tuple(word)
    degree = p.total_degree()
    if p.is_zero() or len(word) != degree:
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
    """Matrix of inner products <w, w'> = tau(w w'*) over the given words."""
    matrix = []
    for w1 in words:
        row = []
        for w2 in words:
            row.append(trace.moment(w1 + w2[::-1]))
        matrix.append(row)
    for i, w in enumerate(words):
        diag = matrix[i][i]
        if diag.im != 0 or diag.re < 0:
            raise NonPositiveMoments(
                f"<w,w> = {diag} for word {w}: moment table is not positive"
            )
    return matrix


def nullspace(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Exact null-space basis by Gaussian elimination with full pivoting."""
    if not matrix:
        return []
    rows = [list(row) for row in matrix]
    m, cols = len(rows), len(rows[0])
    col_order = list(range(cols))
    pivots = 0
    for step in range(min(m, cols)):
        # full pivot: largest |entry|^2 in the remaining block
        best = None
        best_val = 0
        for i in range(step, m):
            for jc in range(step, cols):
                mag = rows[i][jc].abs2()
                if mag > best_val:
                    best_val = mag
                    best = (i, jc)
        if best is None:
            break
        bi, bj = best
        rows[step], rows[bi] = rows[bi], rows[step]
        if bj != step:
            for row in rows:
                row[step], row[bj] = row[bj], row[step]
            col_order[step], col_order[bj] = col_order[bj], col_order[step]
        pivot = rows[step][step]
        rows[step] = [entry / pivot for entry in rows[step]]
        for i in range(m):
            if i == step:
                continue
            factor = rows[i][step]
            if factor.is_zero():
                continue
            rows[i] = [
                entry - factor * rows[step][jc]
                for jc, entry in enumerate(rows[i])
            ]
        pivots += 1
    basis = []
    for free_col in range(pivots, cols):
        vector = [Scalar(0)] * cols
        vector[col_order[free_col]] = Scalar(1)
        for pivot_row in range(pivots):
            vector[col_order[pivot_row]] = -rows[pivot_row][free_col]
        basis.append(vector)
    return basis


def relation_kernel(trace: TraceFunctional, degree: int) -> list[NcPoly]:
    """Basis of {P : <P, P> = 0} within span of words of length <= degree.

    An empty result certifies the absence of algebraic relations up to the
    degree; nonzero elements are explicit relation witnesses.
    """
    words = list(words_up_to(trace.spec.n, degree))
    matrix = gram_matrix(trace, words)
    basis = nullspace(matrix)
    kernel = []
    for vector in basis:
        # <p,p> = 0 for p = sum c_w w iff G conj(c) = 0, so conjugate here
        terms = {words[i]: coeff.conjugate() for i, coeff in enumerate(vector)}
        kernel.append(NcPoly(trace.spec.n, terms))
    return kernel
