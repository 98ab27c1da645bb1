"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the library's evaluation paths: the
moment oracles enumerate ALL pairings / set partitions and filter crossings,
instead of the library's block-of-the-first-element recursion.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


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
