import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import islice
from operator import xor

import pytest

import ncfree.cli
import ncfree.reduction
import ncfree.trace
from ncfree import DistributionSpec, NcPoly, TraceFunctional
from ncfree.errors import DegreeBoundExceeded, NonPositiveMoments
from ncfree.ncpoly import words_up_to
from ncfree.reduction import (
    delta,
    delta_p,
    extract_leading_coeff,
    free_family_certified,
    gram_kernel,
    gram_matrix,
    jacobi,
    ldl,
    nullspace,
    relation_kernel,
)
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_poly, rand_self_adjoint, rand_word
from ncfree.trace import ExplicitMoments, FreeFamily, SemicircularFamily

from conftest import bernoulli_spec, gens, write_spec
from oracles import (
    free_moment_oracle,
    moments_from_cumulants_oracle,
    orthogonal_polynomial_oracle,
    rref_nullspace_oracle,
)


# -- delta ----------------------------------------------------------------------


def test_delta_on_small_monomials(trace2):
    z1, z2 = gens(2)
    assert delta(trace2, 1, z1 * z2) == z2
    assert delta(trace2, 2, z1 * z2) == NcPoly.zero(2)  # tau(Z1) = 0 kills it
    assert delta(trace2, 1, z1 * z1) == z1  # only the first slot survives tau
    assert delta(trace2, 1, NcPoly.one(2)) == NcPoly.zero(2)


def test_delta_drops_degree(rng, trace2):
    for _ in range(20):
        p = rand_poly(rng, 2, 5)
        out = delta(trace2, 1, p)
        if not out.is_zero():
            assert out.total_degree() < p.total_degree()


# -- leading coefficient extraction ------------------------------------------------


def test_extract_leading_coeff_example(trace2):
    z1, z2 = gens(2)
    p = 3 * z1 * z2 + z1
    assert extract_leading_coeff(trace2, p, (1, 2)) == Scalar(3)
    assert extract_leading_coeff(trace2, p, (2, 1)) == Scalar(0)


def test_extract_requires_maximal_length(trace2):
    z1, z2 = gens(2)
    p = z1 * z2 + z1
    with pytest.raises(ValueError):
        extract_leading_coeff(trace2, p, (1,))
    with pytest.raises(ValueError):
        extract_leading_coeff(trace2, NcPoly.zero(2), ())


def test_extract_random_polynomials(rng, trace2):
    for _ in range(60):
        p = rand_poly(rng, 2, 5)
        degree = p.total_degree()
        word = rand_word(rng, 2, degree, min_len=degree)
        assert extract_leading_coeff(trace2, p, word) == p.coeff(word)


# -- twisted reduction ----------------------------------------------------------------


def test_delta_p_rejects_a_twist_that_is_not_self_adjoint(trace2):
    z1, _ = gens(2)
    with pytest.raises(ValueError):
        delta_p(trace2, Scalar(0, 1) * z1, 1, z1)


def test_delta_p_with_unit_weight_is_delta(rng, trace2):
    for _ in range(15):
        p = rand_poly(rng, 2, 4)
        assert delta_p(trace2, NcPoly.one(2), 1, p) == delta(trace2, 1, p)


def test_weighted_iteration_identity(rng, trace2):
    # iterating delta_{q_k, i_k} along the word of a maximal-degree term
    # yields prod tau(q_k) times that term's coefficient
    for _ in range(30):
        p = rand_poly(rng, 2, 4)
        degree = p.total_degree()
        word = rand_word(rng, 2, degree, min_len=degree)
        twists = [rand_self_adjoint(rng, 2, 2) for _ in word]
        current = p
        for q, letter in zip(twists, word):
            current = delta_p(trace2, q, letter, current)
        weight = Scalar(1)
        for q in twists:
            weight = weight * trace2.trace_poly(q)
        assert current.coeff(()) == weight * p.coeff(word)
        assert current.total_degree() <= 0


# -- Gram matrices and null spaces ----------------------------------------------------


def test_gram_matrix_semicircular(trace2):
    words = [(), (1,), (2,)]
    g = gram_matrix(trace2, words)
    assert g == [
        [Scalar(1), Scalar(0), Scalar(0)],
        [Scalar(0), Scalar(1), Scalar(0)],
        [Scalar(0), Scalar(0), Scalar(1)],
    ]


def test_gram_matrix_rejects_negative_diagonal():
    spec = DistributionSpec(
        1, ExplicitMoments({(): Scalar(1), (1,): Scalar(0), (1, 1): Scalar(-2)}, 2)
    )
    with pytest.raises(NonPositiveMoments):
        gram_matrix(TraceFunctional(spec), [(), (1,)])


def test_nullspace_of_invertible_matrix_is_empty():
    matrix = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(1)]]
    assert nullspace(matrix) == []


def test_nullspace_of_rank_one_matrix():
    matrix = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]]
    basis = nullspace(matrix)
    assert len(basis) == 1
    v = basis[0]
    for row in matrix:
        total = row[0] * v[0] + row[1] * v[1]
        assert total.is_zero()


def gram_of(a, size):
    """A* A for a list of rows a over `size` columns."""
    return [
        [
            sum((row[i].conjugate() * row[j] for row in a), Scalar(0))
            for j in range(size)
        ]
        for i in range(size)
    ]


def rand_rows(rng, rank, size):
    return [
        [Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)]
        for _ in range(rank)
    ]


def assert_matches_oracle(g, expected_dim):
    basis = nullspace(g)
    pairs = [[(entry.re, entry.im) for entry in row] for row in g]
    oracle = [[Scalar(re, im) for re, im in v] for v in rref_nullspace_oracle(pairs)]
    assert basis == oracle
    assert len(basis) == expected_dim
    for v in basis:
        for row in g:
            total = Scalar(0)
            for entry, comp in zip(row, v):
                total = total + entry * comp
            assert total.is_zero()


def test_nullspace_random_singular(rng):
    # G = A* A with a deliberately rank-deficient A: G v = 0, RREF basis
    for _ in range(25):
        size = rng.randint(2, 5)
        rank = rng.randint(1, size - 1)
        g = gram_of(rand_rows(rng, rank, size), size)
        assert_matches_oracle(g, size - rank)


def test_nullspace_of_interleaved_direct_sums(rng):
    # two rank-deficient blocks on interleaved indices: two components
    for _ in range(25):
        sizes = [rng.randint(2, 4), rng.randint(2, 4)]
        ranks = [rng.randint(1, s - 1) for s in sizes]
        size = sum(sizes)
        order = list(range(size))
        rng.shuffle(order)
        slots = [sorted(order[: sizes[0]]), sorted(order[sizes[0]:])]
        g = [[Scalar(0)] * size for _ in range(size)]
        for slot, block_size, rank in zip(slots, sizes, ranks):
            block = gram_of(rand_rows(rng, rank, block_size), block_size)
            for bi, i in enumerate(slot):
                for bj, j in enumerate(slot):
                    g[i][j] = block[bi][bj]
        assert_matches_oracle(g, size - sum(ranks))


def test_nullspace_rejects_non_psd_matrices():
    # indefinite: the second Schur pivot is 1 - 4 = -3
    with pytest.raises(NonPositiveMoments):
        nullspace([[Scalar(1), Scalar(2)], [Scalar(2), Scalar(1)]])
    # a zero diagonal entry with a nonzero entry in its row
    with pytest.raises(NonPositiveMoments):
        nullspace([[Scalar(0), Scalar(1)], [Scalar(1), Scalar(1)]])
    # a non-real pivot
    with pytest.raises(NonPositiveMoments):
        nullspace([[Scalar(1, 1)]])


def rand_measure_moments(rng, atoms, count):
    """m_0..m_(count-1) of a random measure on `atoms` rational points."""
    nodes = rng.sample([Fraction(x, 3) for x in range(-9, 10)], atoms)
    weights = [Fraction(rng.randint(1, 5)) for _ in nodes]
    total = sum(weights)
    return [
        sum(w / total * x**i for x, w in zip(nodes, weights)) for i in range(count)
    ]


def assert_jacobi_matches_gram_schmidt(moments):
    """jacobi's (h, a) up to the first h that is not positive, against the oracle."""
    k = (len(moments) - 1) // 2
    h, a = [], []
    for j, (h_j, a_j) in enumerate(jacobi([Scalar(m) for m in moments])):
        assert h_j.im == 0
        h.append(h_j.re)
        if h_j.re <= 0:
            break
        assert (a_j is None) == (j == k)
        if a_j is not None:
            assert a_j.im == 0
            a.append(a_j.re)
    assert (h, a) == orthogonal_polynomial_oracle(moments)
    # the h_j are the pivots of the ldl of the Hankel matrix
    hankel = [[Scalar(m) for m in moments[i : i + k + 1]] for i in range(k + 1)]
    pivots = [pivot.re for _, pivot, _ in islice(ldl(hankel), len(h))]
    assert pivots == h
    return h


def test_ldl_of_a_hankel_matrix_is_its_orthogonal_polynomials(rng):
    # a measure on `atoms` points: h_j > 0 below the atom count, then h = 0
    for _ in range(40):
        k = rng.randint(1, 5)
        atoms = rng.randint(1, 7)
        h = assert_jacobi_matches_gram_schmidt(rand_measure_moments(rng, atoms, 2 * k + 1))
        assert len(h) == min(atoms, k) + 1
        assert (h[-1] == 0) if atoms <= k else (h[-1] > 0)


@pytest.mark.parametrize("excess", [0, Fraction(1, 7), 3])
def test_ldl_stops_at_the_first_bad_hankel_pivot(rng, excess):
    # lowering m_2j by h_j + excess lowers h_j alone: singular (excess 0) or
    # indefinite at j, and every earlier pivot stays positive
    for _ in range(30):
        k = rng.randint(1, 5)
        moments = rand_measure_moments(rng, 7, 2 * k + 1)
        j = rng.randint(1, k)
        h, _ = orthogonal_polynomial_oracle(moments)
        moments[2 * j] -= h[j] + excess
        h = assert_jacobi_matches_gram_schmidt(moments)
        assert len(h) == j + 1
        assert h[j] == -excess


def test_ldl_after_a_perturbed_odd_moment(rng):
    for _ in range(30):
        k = rng.randint(1, 5)
        moments = rand_measure_moments(rng, rng.randint(1, 7), 2 * k + 1)
        moments[2 * rng.randint(1, k) - 1] += Fraction(rng.randint(-9, 9), 4)
        assert_jacobi_matches_gram_schmidt(moments)


# -- relation detection ----------------------------------------------------------------


def test_semicircular_has_no_relations(semi2):
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2))
    assert relation_kernel(trace, 2) == []


def test_bernoulli_relation_is_detected():
    trace = TraceFunctional(bernoulli_spec())
    kernel = relation_kernel(trace, 2)
    assert len(kernel) == 1
    p = kernel[0]
    # the witness spans Z^2 - 1 up to scale
    z = NcPoly.gen(1, 1)
    scale = p.coeff((1, 1))
    assert not scale.is_zero()
    assert p == scale * (z * z - 1)
    # and it is a genuine null vector: tau(p p*) = 0
    assert trace.inner(p, NcPoly.zero(1) + p) == Scalar(0)


def test_projection_relation_is_detected():
    # a projection of trace 1/3: moments m_k = 1/3 for all k >= 1
    table = {(1,) * k: Scalar(Fraction(1, 3)) for k in range(1, 5)}
    table[()] = Scalar(1)
    spec = DistributionSpec(1, ExplicitMoments(table, 4))
    trace = TraceFunctional(spec)
    kernel = relation_kernel(trace, 2)
    assert kernel
    for p in kernel:
        assert trace.trace_poly(p * p.star()) == Scalar(0)


# -- the free-family certificate against the Gram path -------------------------------

CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430)  # free Poisson of rate 1
SHIFTED_SEMICIRCULAR = (1, 2, 4, 9, 21, 51, 127, 323)  # 1 + S
SEMICIRCULAR_MOMENTS = (0, 1, 0, 2, 0, 5, 0, 14)
BERNOULLI = (0, 1) * 4
PROJECTION = (Fraction(1, 3),) * 8
DIRAC = (3, 9, 27, 81, 243, 729, 2187, 6561)
ZERO_LETTER = (0,) * 8


def free(*sequences) -> DistributionSpec:
    return DistributionSpec(len(sequences), FreeFamily(sequences))


# name -> (spec, the least degree with a relation: the smallest atom count
# among the letters, or None when no letter has finitely many atoms)
CROSS_CHECK_SPECS = {
    "semicircular-unequal": (
        DistributionSpec(2, SemicircularFamily((Fraction(1), Fraction(1, 3)))), None
    ),
    "semicircular-3-unequal": (
        DistributionSpec(3, SemicircularFamily((Fraction(2), Fraction(1), Fraction(1, 2)))),
        None,
    ),
    "free-poisson": (free(CATALAN, CATALAN), None),
    "shifted-semicircular": (free(SHIFTED_SEMICIRCULAR), None),
    "three-letter-mix": (free(SEMICIRCULAR_MOMENTS, CATALAN, SHIFTED_SEMICIRCULAR), None),
    "bernoulli": (free(BERNOULLI), 2),
    "bernoulli-and-free-poisson": (free(BERNOULLI, CATALAN), 2),
    "projection": (free(PROJECTION, CATALAN), 2),
    "dirac": (free(DIRAC, SHIFTED_SEMICIRCULAR), 1),
    "zero-letter": (free(ZERO_LETTER, CATALAN), 1),
}


@pytest.mark.parametrize("name", list(CROSS_CHECK_SPECS))
def test_certificate_matches_the_gram_kernel(name):
    spec, first_relation = CROSS_CHECK_SPECS[name]
    max_degree = 3 if spec.n == 3 else 4
    for degree in range(max_degree + 1):
        free_of_relations = first_relation is None or degree < first_relation
        assert free_family_certified(TraceFunctional(spec), degree) == free_of_relations
        kernel = relation_kernel(TraceFunctional(spec), degree)
        assert kernel == gram_kernel(TraceFunctional(spec), degree), degree
        assert (kernel == []) == free_of_relations, degree


def _oracle_cumulants(spec):
    """Each letter's free cumulants, inverted by partition enumeration."""
    if isinstance(spec.variant, SemicircularFamily):
        return [[0, v] + [0] * 6 for v in spec.variant.variances]
    cumulants = []
    for moments in spec.variant.moments:
        kappa = []
        for k, m_k in enumerate(moments, start=1):
            kappa.append(m_k - moments_from_cumulants_oracle(k, kappa))
        cumulants.append(kappa)
    return cumulants


@pytest.mark.parametrize("name", list(CROSS_CHECK_SPECS))
def test_the_moment_fill_gives_one_memo_in_any_order(name):
    """A miss stores many subwords, so a wrong store would show up as a word
    whose value depends on which words were asked before it."""
    spec, _ = CROSS_CHECK_SPECS[name]
    words = list(words_up_to(spec.n, 8))
    shuffled = random.Random(8).sample(words, len(words))
    memos = []
    for order in (words, words[::-1], shuffled):
        trace = TraceFunctional(spec, degree_bound=8)
        for word in order:
            trace.moment(word)
        memos.append(trace._memo)
    first = memos[0]
    for other in memos[1:]:
        shared = first.keys() & other.keys()
        assert len(shared) >= len(words)
        assert [w for w in shared if first[w] != other[w]] == []
    cumulants = _oracle_cumulants(spec)
    for word in random.Random(name).sample(words, min(len(words), 12)):
        assert first[word] == Scalar(free_moment_oracle(word, cumulants)), word


@pytest.mark.parametrize("name", list(CROSS_CHECK_SPECS))
def test_a_nonzero_parity_mask_means_the_oracle_moment_is_0(name):
    spec, _ = CROSS_CHECK_SPECS[name]
    bits = TraceFunctional(spec).parity_bits
    words = words_up_to(spec.n, 8)
    masked = [w for w in words if functools.reduce(xor, map(bits.__getitem__, w), 0)]
    # a rotation of a word rotates its non-crossing partitions, so one word of
    # each necklace stands for all of its rotations
    necklaces = {min(w[k:] + w[:k] for k in range(len(w))) for w in masked}
    cumulants = _oracle_cumulants(spec)
    assert [w for w in sorted(necklaces) if free_moment_oracle(w, cumulants)] == []


def test_stored_certificates_match_a_fresh_memo_in_any_order():
    for name, (spec, _) in CROSS_CHECK_SPECS.items():
        degrees = list(range(4 if spec.n == 3 else 5))
        fresh = {degree: free_family_certified(TraceFunctional(spec), degree) for degree in degrees}
        trace = TraceFunctional(spec)
        for degree in degrees[::-1] + degrees:
            assert free_family_certified(trace, degree) == fresh[degree], (name, degree)
        assert trace.certified == fresh, name


def test_a_family_is_certified_once_per_degree(monkeypatch):
    calls = []
    original = ncfree.reduction.jacobi

    def counting(moments):
        calls.append(len(moments))
        return original(moments)

    monkeypatch.setattr(ncfree.reduction, "jacobi", counting)
    trace = TraceFunctional(free(CATALAN, SHIFTED_SEMICIRCULAR))
    assert free_family_certified(trace, 3)
    assert calls == [7, 7]  # one Hankel test per letter
    assert free_family_certified(trace, 3)
    assert relation_kernel(trace, 3) == []
    assert calls == [7, 7]
    assert free_family_certified(trace, 2)
    assert calls == [7, 7, 5, 5]
    # a failing verdict is kept as well: Bernoulli's h_2 is 0
    bernoulli = TraceFunctional(free(BERNOULLI, CATALAN))
    for _ in range(2):
        assert not free_family_certified(bernoulli, 2)
    assert calls == [7, 7, 5, 5, 5]


def test_tables_and_degrees_past_the_limits_store_no_certificate():
    table = TraceFunctional(bernoulli_spec())
    assert not free_family_certified(table, 1)
    assert table.certified == {}
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2), degree_bound=5)
    for degree in (-1, 3, 40):
        assert not free_family_certified(trace, degree)
    assert trace.certified == {}
    assert free_family_certified(trace, 2)
    assert trace.certified == {2: True}


def test_certificates_live_and_are_cleared_with_the_shared_memo(tmp_path):
    path = write_spec(tmp_path / "spec.json", free(CATALAN, CATALAN))
    argv = ["relations", "--spec", path, "--degree", "2", "--out", str(tmp_path / "out")]
    assert ncfree.cli.main(argv) == 0
    [trace] = ncfree.cli._traces.values()
    assert trace.certified == {2: True}
    # the test isolation fixture clears the CLI's functionals, and the certificates with them
    ncfree.cli._traces.clear()
    fresh = ncfree.cli.trace_from(ncfree.cli.load_spec_file(path))
    assert fresh is not trace
    assert fresh.certified == {}


def test_bernoulli_witness_is_found_through_a_free_family():
    z = NcPoly.gen(1, 1)
    assert relation_kernel(TraceFunctional(free(BERNOULLI)), 2) == [z * z - 1]
    # the same witness as the explicit table gives
    assert relation_kernel(TraceFunctional(bernoulli_spec()), 2) == [z * z - 1]


@pytest.mark.parametrize(
    "spec, degree, message",
    [
        (free((0, -1, 0, 1)), 1,
         "<w,w> for word (1,) = -1 is not a nonnegative real; "
         "the moment data is not positive"),
        # h_2 = m_4 - m_2^2 = -1/2 < 0, though every diagonal entry is positive
        (free((0, 1, 0, Fraction(1, 2)), CATALAN), 2,
         "pivot -1/2 at column 3 is not a positive real: "
         "the matrix is not positive semidefinite"),
    ],
    ids=["negative-variance", "indefinite-hankel"],
)
def test_non_positive_free_family_raises_the_gram_message(spec, degree, message):
    for kernel in (relation_kernel, gram_kernel):
        with pytest.raises(NonPositiveMoments) as info:
            kernel(TraceFunctional(spec), degree)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, degree_bound, message",
    [
        (free(CATALAN[:4], CATALAN[:4]), 12, "word length 5 exceeds supplied moment depth 4"),
        (DistributionSpec.standard_semicircular(2), 5, "word length 6 exceeds degree bound 5"),
        # the Gram matrix would meet the negative diagonal entry <Z1, Z1> first,
        # but its reach, words of length 2 * 3, is checked before any moment
        (free((0, -1, 0, 1)), 12, "word length 5 exceeds supplied moment depth 4"),
    ],
    ids=["moment-depth", "degree-bound", "negative-variance-past-depth"],
)
def test_depth_overflow_raises_the_gram_message(spec, degree_bound, message):
    for kernel in (relation_kernel, gram_kernel):
        with pytest.raises(DegreeBoundExceeded) as info:
            kernel(TraceFunctional(spec, degree_bound), 3)
        assert str(info.value) == message


def test_a_relation_kernel_past_the_limit_reads_no_moment():
    # the Gram matrix of degree 7 reaches 14 letters, past the bound of 12
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2))
    with pytest.raises(DegreeBoundExceeded, match="^word length 13 exceeds degree bound 12$"):
        relation_kernel(trace, 7)
    assert trace._memo == {(): Scalar(1)}


@pytest.mark.parametrize(
    "kernel, spec",
    [
        (relation_kernel, bernoulli_spec()),
        (relation_kernel, DistributionSpec.standard_semicircular(2)),
        (gram_kernel, DistributionSpec.standard_semicircular(2)),
    ],
    ids=["relation-kernel-table", "relation-kernel-free", "gram-kernel"],
)
def test_a_negative_degree_is_refused_not_an_empty_kernel(kernel, spec):
    with pytest.raises(ValueError, match="^degree must be non-negative, got -1$"):
        kernel(TraceFunctional(spec), -1)


def test_a_gram_past_the_limit_raises_before_it_takes_memory():
    # degree 11, 4095 words: a pre-allocated 4095 x 4095 matrix alone is
    # about 134 MB, while the rows built before the first 13-letter moment
    # take about 2 MB.  Degree 17, 262,143 words: the word list alone is
    # about 50 MB, and row 0 would meet a 13-letter word
    for degree in (11, 17):
        trace = TraceFunctional(DistributionSpec.standard_semicircular(2))
        tracemalloc.start()
        try:
            with pytest.raises(DegreeBoundExceeded) as info:
                relation_kernel(trace, degree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == "word length 13 exceeds degree bound 12"
        assert peak < 16 * 2**20


def test_free_family_relations_never_invert_cumulants(monkeypatch):
    calls = []
    original = ncfree.trace.free_cumulants

    def counting(moments):
        calls.append(moments)
        return original(moments)

    monkeypatch.setattr(ncfree.trace, "free_cumulants", counting)
    trace = TraceFunctional(free(CATALAN, SHIFTED_SEMICIRCULAR))
    assert relation_kernel(trace, 4) == []
    assert calls == []
    for letter, sequence in enumerate((CATALAN, SHIFTED_SEMICIRCULAR), start=1):
        for k, m_k in enumerate(sequence, start=1):
            assert trace.moment((letter,) * k) == Scalar(m_k)
    assert calls == []
    # tau(Z1 Z2) = tau(Z1) tau(Z2) needs the cumulants, once per letter
    assert trace.moment((1, 2)) == Scalar(1)
    assert len(calls) == 2
