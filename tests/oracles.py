"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the library's evaluation paths: the
moment oracles enumerate ALL pairings / set partitions and filter crossings,
instead of the library's block-of-the-first-element recursion, and
dstar_oracle traces the middle leg of the tensor cube that dstar never
builds.  The one exception, duality_oracle, rebuilds the duality identity
from the calculus' tensor objects, a path check_duality does not take.
"""

from fractions import Fraction
import itertools
from itertools import combinations

import numpy as np

from ncfree.derivations import d
from ncfree.ncpoly import NcPoly


def all_pairings(k):
    """Every perfect matching of range(k) as a list of index pairs."""
    if k % 2:
        return
    if k == 0:
        yield []
        return
    items = list(range(k))

    def rec(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1:]
            for tail in rec(rest):
                yield [(first, partner)] + tail

    yield from rec(items)


def all_set_partitions(k):
    """Every set partition of range(k) as a list of blocks."""
    if k == 0:
        yield []
        return

    def rec(i, blocks):
        if i == k:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def is_noncrossing(blocks):
    """Blocks cross iff a < c < b < d with a,b in one block, c,d in another."""
    for b1, b2 in combinations(blocks, 2):
        for a in b1:
            for b in b1:
                if a >= b:
                    continue
                inside = sum(1 for c in b2 if a < c < b)
                if 0 < inside < len(b2) and any(not a < c < b for c in b2):
                    return False
    return True


def semicircular_moment_oracle(word, variances):
    """Sum over all non-crossing pairings joining equal letters."""
    total = Fraction(0)
    k = len(word)
    for pairing in all_pairings(k):
        if any(word[a] != word[b] for a, b in pairing):
            continue
        if not is_noncrossing([list(p) for p in pairing]):
            continue
        product = Fraction(1)
        for a, _ in pairing:
            product *= Fraction(variances[word[a] - 1])
        total += product
    return total


def free_moment_oracle(word, cumulants):
    """Sum over all non-crossing monochromatic set partitions.

    `cumulants[i]` is the cumulant sequence kappa_1.. of generator i+1.
    """
    total = Fraction(0)
    for blocks in all_set_partitions(len(word)):
        if any(len({word[i] for i in block}) != 1 for block in blocks):
            continue
        if not is_noncrossing(blocks):
            continue
        product = Fraction(1)
        for block in blocks:
            letter = word[block[0]]
            product *= Fraction(cumulants[letter - 1][len(block) - 1])
        total += product
    return total


def moments_from_cumulants_oracle(k, kappa):
    """Single-variable m_k from cumulants by full partition enumeration."""
    word = (1,) * k
    return free_moment_oracle(word, [list(kappa) + [Fraction(0)] * k])


def conjugate_failures_oracle(xi, n, degree, moment):
    """Every (j, w, lhs, rhs) where the conjugate relation fails on word w.

    The relation on w is
        sum over w = a Z_j b of moment(a) moment(b) = sum_u c_u moment(u w),
    with xi[j - 1] a dict u -> c_u.  Coefficients and both sides are complex
    rationals as (re, im) pairs; `moment` returns a Fraction.  Every word of
    length 0..degree over 1..n is split here, with no symmetry used, and the
    failures are listed by j, then word length, then word.
    """
    failures = []
    for j in range(1, n + 1):
        for length in range(degree + 1):
            for word in itertools.product(range(1, n + 1), repeat=length):
                lhs = (Fraction(0), Fraction(0))
                for pos in range(length):
                    if word[pos] == j:
                        split = moment(word[:pos]) * moment(word[pos + 1:])
                        lhs = (lhs[0] + split, lhs[1])
                rhs = (Fraction(0), Fraction(0))
                for u, coeff in xi[j - 1].items():
                    term = _c_mul(coeff, (moment(u + word), Fraction(0)))
                    rhs = (rhs[0] + term[0], rhs[1] + term[1])
                if lhs != rhs:
                    failures.append((j, word, lhs, rhs))
    return failures


def dstar_oracle(terms, xi, j, moment):
    """dstar_j(Y) = m_xi(Y) - m_1 (id (x) tau (x) id)(d_j (x) id + id (x) d_j)(Y).

    Y is `terms`, a dict (w1, w2) -> c, and xi a dict u -> c, for xi_j; each
    c is a complex rational as an (re, im) pair, and `moment` returns a
    Fraction.  The legs are split into triples of words first, and each
    triple's middle word is traced and its outer words joined after.
    Returns the polynomial as a dict word -> (re, im), zeros left out.
    """
    result = {}

    def add(word, coeff):
        acc = result.get(word, (Fraction(0), Fraction(0)))
        result[word] = (acc[0] + coeff[0], acc[1] + coeff[1])

    triples = []
    for (w1, w2), c in terms.items():
        for u, c_u in xi.items():
            add(w1 + u + w2, _c_mul(c, c_u))
        for pos in range(len(w1)):
            if w1[pos] == j:
                triples.append((w1[:pos], w1[pos + 1:], w2, c))
        for pos in range(len(w2)):
            if w2[pos] == j:
                triples.append((w1, w2[:pos], w2[pos + 1:], c))
    for outer_left, middle, outer_right, c in triples:
        tau = moment(middle)
        add(outer_left + outer_right, (-c[0] * tau, -c[1] * tau))
    return {w: c for w, c in result.items() if c != (0, 0)}


def duality_oracle(trace, p1, p2, i):
    """The duality identity built as the composite of the calculus' objects:
    ((tau (x) id)((P1 (x) 1) d_i P2))* == (id (x) tau)((d_i P2*)(1 (x) P1*)).

    It goes through d, bimodule_mul, partial_trace and star, none of which
    check_duality uses; `trace` supplies the moments to both.
    """
    one = NcPoly.one(p1.n)
    lhs = trace.partial_trace(d(i, p2).bimodule_mul(p1, one), "left").star()
    rhs = trace.partial_trace(d(i, p2.star()).bimodule_mul(one, p1.star()), "right")
    return lhs == rhs


def _c_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return (
        (a[0] * b[0] + a[1] * b[1]) / norm,
        (a[1] * b[0] - a[0] * b[1]) / norm,
    )


def rref_nullspace_oracle(matrix):
    """Null basis of a complex matrix by Gauss-Jordan reduction to RREF.

    Entries are (re, im) pairs of Fractions.  Columns are reduced left to
    right, each on the first row with a nonzero entry in it; for each free
    column f in increasing order the basis vector has 1 at f, 0 at every
    other free column and minus the RREF entries of column f at the pivots.
    """
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    rows = [[(Fraction(re), Fraction(im)) for re, im in row] for row in matrix]
    cols = len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for c in range(cols):
        found = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][c]
        rows[r] = [_c_div(entry, lead) for entry in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and factor != zero:
                rows[i] = [_c_sub(a, _c_mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        vector = [zero] * cols
        vector[f] = one
        for row_index, c in enumerate(pivot_cols):
            entry = rows[row_index][f]
            vector[c] = (-entry[0], -entry[1])
        basis.append(vector)
    return basis


def orthogonal_polynomial_oracle(moments):
    """Norms h_j and recurrence coefficients a_j by Gram-Schmidt on monomials.

    L(x^i) = moments[i] for i <= 2k, and <p, q> = L(p q) on coefficient lists
    over Fraction.  pi_j = x^j - sum_(i<j) <x^j, pi_i> / h_i pi_i is the
    monic orthogonal polynomial, h_j = <pi_j, pi_j> its norm and
    a_j = <x pi_j, pi_j> / h_j its recurrence coefficient.  Returns h_0..h_k
    and a_0..a_(k-1), cut where the orthogonal polynomials end: h after the
    first h_j that is not positive, and a before it.
    """
    m = [Fraction(x) for x in moments]
    k = (len(m) - 1) // 2

    def inner(p, q):
        return sum(
            (c * e * m[i + j] for i, c in enumerate(p) for j, e in enumerate(q)),
            Fraction(0),
        )

    basis, h, a = [], [], []
    for j in range(k + 1):
        monomial = [Fraction(0)] * j + [Fraction(1)]
        pi = list(monomial)
        for prev, norm in zip(basis, h):
            c = inner(monomial, prev) / norm
            pi = [x - c * y for x, y in itertools.zip_longest(pi, prev, fillvalue=0)]
        norm = inner(pi, pi)
        h.append(norm)
        if norm <= 0:
            break
        if j < k:
            a.append(inner([Fraction(0)] + pi, pi) / norm)
        basis.append(pi)
    return h, a


def greedy_atom_scan_oracle(eigenvalues, window_scale, floor=None):
    """Atom candidates by one greedy pass over the windows, one at a time.

    The window at sorted position i is [ev[i], ev[i] + width] with width
    window_scale / sqrt(count).  Windows are taken by descending count (ties
    in increasing i) until one holds less than `floor` of the sample; a
    window is accepted unless it comes within one width of a window accepted
    before it, and reports the mean of its eigenvalues and its mass.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    total = len(ev)
    width = window_scale / np.sqrt(total)
    spread = max(float(ev[-1] - ev[0]), width)
    if floor is None:
        floor = 0.5 * width / spread
    ends = np.searchsorted(ev, ev + width, side="right")
    counts = ends - np.arange(total)
    found, taken = [], []
    for i in np.argsort(-counts, kind="stable"):
        mass = int(counts[i]) / total
        if mass < floor:
            break
        lo, hi = ev[i], ev[i] + width
        if any(lo - width < t_hi and hi + width > t_lo for t_lo, t_hi in taken):
            continue
        found.append((float(np.mean(ev[i:ends[i]])), mass))
        taken.append((lo, hi))
    return found


def identity_start_evaluate_oracle(poly, matrices):
    """p(X) with every word multiplied out from the identity, terms in order."""
    dim = matrices[0].shape[0]
    result = np.zeros((dim, dim), dtype=complex)
    for word, coeff in poly.terms.items():
        value = np.eye(dim, dtype=complex)
        for letter in word:
            value = value @ matrices[letter - 1]
        result += complex(coeff) * value
    return result


def gue_draw_oracle(variance, dim, rng):
    """A GUE matrix by the complex formula sqrt(v) (raw + raw^*) / (2 sqrt(dim)),
    raw = a + ib with a, b drawn from `rng` in that order."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = (raw + raw.conj().T) / (2.0 * np.sqrt(dim))
    return np.sqrt(variance) * mat


def diagonal_draw_oracle(values, weights, dim, rng):
    """A diagonal ensemble's diagonal as `Generator.choice` draws it: `dim`
    entries of `values` with probabilities `weights` (uniform if None),
    converted to complex."""
    return rng.choice(values, size=dim, p=weights).astype(complex)
