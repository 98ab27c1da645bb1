import functools
import itertools
import random
from fractions import Fraction

import pytest

import ncfree
from ncfree import (
    GUE,
    ConjugateCandidate,
    DistributionSpec,
    EnsembleConfig,
    NcPoly,
    TensorPoly2,
    TraceFunctional,
    empirical_margins,
)
from ncfree.conjugate import (
    check_adjoint,
    check_conjugate,
    check_duality,
    dstar,
    dstar_left,
    dstar_right,
    fisher,
    norm_margins,
)
from ncfree.derivations import d
from ncfree.errors import (
    ConjugateCheckFailed,
    DegreeBoundExceeded,
    GeneratorCountMismatch,
    IndexOutOfRange,
    UnknownMoment,
)
from ncfree.ncpoly import words_up_to
from ncfree.reduction import free_family_certified
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_poly, rand_scalar, rand_self_adjoint, rand_word
from ncfree.trace import ExplicitMoments, FreeFamily, MomentMemo, SemicircularFamily

from conftest import bernoulli_spec, gens
from oracles import (
    conjugate_failures_oracle,
    dstar_oracle,
    duality_oracle,
    free_moment_oracle,
    semicircular_moment_oracle,
)


def semicircular_candidate(n, degree_bound=12):
    spec = DistributionSpec.standard_semicircular(n)
    return ConjugateCandidate(gens(n), spec, degree_bound)


# -- word enumeration ----------------------------------------------------------


def test_words_up_to_counts():
    assert sum(1 for _ in words_up_to(2, 3)) == 1 + 2 + 4 + 8
    assert list(words_up_to(1, 1)) == [(), (1,)]


# -- the conjugate relations --------------------------------------------------------


def test_semicircular_conjugates_are_the_generators():
    report = check_conjugate(semicircular_candidate(2), degree=5)
    assert report.passed
    assert report.max_degree_checked == 5
    assert report.failures == ()


def test_scaled_candidate_fails_with_witness():
    spec = DistributionSpec.standard_semicircular(2)
    z1, z2 = gens(2)
    cand = ConjugateCandidate([2 * z1, z2], spec)
    report = check_conjugate(cand, degree=3)
    assert not report.passed
    j, word, lhs, rhs = report.failures[0]
    # first failing word for xi_1 = 2 Z_1 is P = Z_1: lhs 1, rhs 2
    assert (j, word) == (1, (1,))
    assert (lhs, rhs) == (Scalar(1), Scalar(2))


def test_variance_scaling():
    # variance v semicircular has conjugate Z/v
    spec = DistributionSpec(1, SemicircularFamily((4,)))
    from fractions import Fraction

    z = NcPoly.gen(1, 1)
    good = ConjugateCandidate([Scalar(Fraction(1, 4)) * z], spec)
    assert check_conjugate(good, degree=5).passed
    bad = ConjugateCandidate([z], spec)
    assert not check_conjugate(bad, degree=5).passed


def test_degree_bound_guard():
    cand = semicircular_candidate(1, degree_bound=4)
    with pytest.raises(DegreeBoundExceeded):
        check_conjugate(cand, degree=4)


def test_the_longest_word_of_the_sweep_sets_the_limit():
    # tau(Z_j w) on the 12-letter words is the first moment past the bound
    with pytest.raises(DegreeBoundExceeded, match="^word length 13 exceeds degree bound 12$"):
        check_conjugate(semicircular_candidate(2), degree=12)
    # with xi = 0 the sweep reads only the splits of w, at most 4 letters here
    zero = NcPoly.zero(2)
    cand = ConjugateCandidate([zero, zero], DistributionSpec.standard_semicircular(2), 4)
    failures = check_conjugate(cand, degree=5).failures
    expected = conjugate_failures_oracle(
        [{}, {}], 2, 5, functools.cache(lambda w: semicircular_moment_oracle(w, (1, 1)))
    )
    assert expected
    assert [
        (j, word, (lhs.re, lhs.im), (rhs.re, rhs.im))
        for j, word, lhs, rhs in failures
    ] == expected


CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
#: a symmetric Bernoulli letter: its odd moments and odd free cumulants vanish
BERNOULLI_MOMENTS = (0, 1) * 5
BERNOULLI_CUMULANTS = (0, 1, 0, -1, 0, 2, 0, -5, 0, 14)


def _oracle_cases():
    """(name, spec, xi, degree, oracle moment of a word) for the cross-check."""
    semicircular_2 = DistributionSpec.standard_semicircular(2)
    variances_3 = (Fraction(1), Fraction(1, 2), Fraction(2))
    semicircular_3 = DistributionSpec(3, SemicircularFamily(variances_3))
    # free Poisson of rate 1: every free cumulant is 1, the moments are Catalan
    free_poisson = DistributionSpec(2, FreeFamily((CATALAN, CATALAN)))

    def semicircular_2_moment(w):
        return semicircular_moment_oracle(w, (1, 1))

    def semicircular_3_moment(w):
        return semicircular_moment_oracle(w, variances_3)

    def free_poisson_moment(w):
        return free_moment_oracle(w, [[1] * 8, [1] * 8])

    def bernoulli_moment(w):
        return Fraction(1 - len(w) % 2)

    # letter 1 is symmetric, letter 2 is not
    mixed = DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, CATALAN)))

    def mixed_moment(w):
        return free_moment_oracle(w, [BERNOULLI_CUMULANTS, [1] * 8])

    (z,) = gens(1)
    z1, z2 = gens(2)
    y1, y2, y3 = gens(3)
    return [
        ("semicircular-2-true", semicircular_2, [z1, z2], 6, semicircular_2_moment),
        ("semicircular-2-scaled", semicircular_2, [2 * z1, z2], 6, semicircular_2_moment),
        ("semicircular-2-not-self-adjoint", semicircular_2, [z1 * z2, z2], 5,
         semicircular_2_moment),
        ("semicircular-3-true", semicircular_3, [y1, 2 * y2, Fraction(1, 2) * y3], 4,
         semicircular_3_moment),
        ("semicircular-3-unscaled", semicircular_3, [y1, y2, y3], 4, semicircular_3_moment),
        # xi_2 is self-adjoint with complex coefficients, so a mirrored
        # failure carries the conjugate of a complex rhs
        ("free-poisson-2", free_poisson, [z1, Scalar(0, 1) * (z1 * z2 - z2 * z1)], 5,
         free_poisson_moment),
        # tau(1 w) is nonzero only where tau(2 w) is 0: failures with a zero
        # side on either side of the relation
        ("semicircular-2-swapped", semicircular_2, [z2, z1], 6, semicircular_2_moment),
        # complex and not self-adjoint: no mirror, every word evaluated
        ("semicircular-2-complex", semicircular_2,
         [Scalar(1, 1) * z1 + Scalar(0, 2) * (z1 * z2), z2 - Scalar(0, 1) * (z2 * z2 * z1)],
         4, semicircular_2_moment),
        # an explicit table: every moment is a table lookup, misses raise
        ("bernoulli-table", bernoulli_spec(6), [Scalar(1, 1) * z - z * z * z], 3,
         bernoulli_moment),
        # terms of both parities in the symmetric letters: the relations
        # that parity makes 0 = 0 are skipped, the others must still fail
        ("semicircular-2-mixed-parity", semicircular_2,
         [z1 + z1 * z2 + Fraction(1, 2) * (z2 * z1 * z2), z2 + Scalar(0, 1) * (z1 * z2)], 5,
         semicircular_2_moment),
        ("semicircular-3-mixed-parity", semicircular_3,
         [y1 + y2 * y3, 2 * y2 + y1 * y2 * y1, Fraction(1, 2) * y3 + y3 * y3 - 1], 4,
         semicircular_3_moment),
        ("bernoulli-and-free-poisson-mixed-parity", mixed,
         [z1 + z1 * z2 + Fraction(1, 2) * (z2 * z1 * z2), z2 - 1 + z1 * z1], 3,
         mixed_moment),
        ("bernoulli-table-mixed-parity", bernoulli_spec(6),
         [z + z * z + Fraction(1, 2) * (z * z * z)], 3, bernoulli_moment),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
def test_conjugate_failures_match_the_oracle(case):
    _, spec, xi, degree, moment = case
    cand = ConjugateCandidate(xi, spec)
    failures = check_conjugate(cand, degree).failures
    oracle_xi = [{u: (c.re, c.im) for u, c in p.terms.items()} for p in xi]
    expected = conjugate_failures_oracle(
        oracle_xi, spec.n, degree, functools.cache(moment)
    )
    assert [
        (j, word, (lhs.re, lhs.im), (rhs.re, rhs.im))
        for j, word, lhs, rhs in failures
    ] == expected


def test_parity_pruning_leaves_odd_words_out_of_the_memo():
    z1, z2 = gens(2)
    cand = ConjugateCandidate([2 * z1, z2], DistributionSpec.standard_semicircular(2))
    report = check_conjugate(cand, degree=8)
    assert len(report.failures) == 49
    # neither the sweep nor the moment fill below it stores an odd word; all
    # 1,023 words of up to 9 letters, odd ones asked too, would be stored
    memo = cand.trace._memo
    assert not [word for word in memo if word.count(1) % 2 or word.count(2) % 2]
    assert len(memo) == 111


def _differential_cases():
    """(name, spec, oracle moment of a word, sweep degree, xi degree)."""
    variances_3 = (Fraction(1), Fraction(1, 2), Fraction(2))
    mixed = DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, CATALAN)))
    # a table of a semicircular pair with variances 1 and 2: no parity rule,
    # no mirror, and its left sides stay with its own functional
    table = {
        w: Scalar(semicircular_moment_oracle(w, (1, 2))) for w in words_up_to(2, 8)
    }
    return [
        ("semicircular-2", DistributionSpec.standard_semicircular(2),
         lambda w: semicircular_moment_oracle(w, (1, 1)), 6, 2),
        ("semicircular-3", DistributionSpec(3, SemicircularFamily(variances_3)),
         lambda w: semicircular_moment_oracle(w, variances_3), 6, 1),
        ("bernoulli-and-free-poisson", mixed,
         lambda w: free_moment_oracle(w, [BERNOULLI_CUMULANTS, [1] * 8]), 6, 1),
        ("explicit-table", DistributionSpec(2, ExplicitMoments(table, 8)),
         lambda w: table[w].re, 6, 2),
    ]


def _random_candidates(rng, n, xi_degree):
    """Candidates with self-adjoint xi (the mirrored sweep), with xi that are
    not, and with one xi_j zero; their terms have every parity mask."""
    for shape in ("self-adjoint", "any", "self-adjoint-with-zero", "any-with-zero"):
        for _ in range(2):
            if shape.startswith("self-adjoint"):
                xi = [rand_self_adjoint(rng, n, xi_degree) for _ in range(n)]
            else:
                xi = [rand_poly(rng, n, xi_degree, max_terms=4) for _ in range(n)]
            if shape.endswith("with-zero"):
                xi[rng.randrange(n)] = NcPoly.zero(n)
            yield xi
    yield gens(n)


@pytest.mark.parametrize("case", _differential_cases(), ids=lambda case: case[0])
def test_sweeps_cold_warm_and_the_oracle_agree(rng, case):
    _, spec, oracle_moment, degree, xi_degree = case
    moment = functools.cache(oracle_moment)
    for xi in _random_candidates(rng, spec.n, xi_degree):
        ncfree.trace._shared_memo.cache_clear()
        ncfree.trace._spec_cumulants.cache_clear()
        cand = ConjugateCandidate(xi, spec)
        cold = check_conjugate(cand, degree).failures
        warm = check_conjugate(cand, degree).failures
        equal_spec = DistributionSpec.from_dict(spec.to_dict())
        other = check_conjugate(ConjugateCandidate(xi, equal_spec), degree).failures
        assert cold == warm == other
        oracle_xi = [{u: (c.re, c.im) for u, c in p.terms.items()} for p in xi]
        expected = conjugate_failures_oracle(oracle_xi, spec.n, degree, moment)
        assert [
            (j, word, (lhs.re, lhs.im), (rhs.re, rhs.im)) for j, word, lhs, rhs in cold
        ] == expected


def test_a_second_functional_on_an_equal_spec_sums_no_split(monkeypatch):
    spec = DistributionSpec(2, FreeFamily((BERNOULLI_MOMENTS, CATALAN)))
    z1, z2 = gens(2)
    first = check_conjugate(ConjugateCandidate([z1, z2], spec), degree=6)
    splits = []
    original = ncfree.conjugate._left_side

    def counting(word, *args):
        splits.append(word)
        return original(word, *args)

    monkeypatch.setattr(ncfree.conjugate, "_left_side", counting)
    equal_spec = DistributionSpec.from_dict(spec.to_dict())
    again = check_conjugate(ConjugateCandidate([z1, z2], equal_spec), degree=6)
    assert again == first and not again.passed
    # a scaled candidate has the same left sides
    scaled = check_conjugate(ConjugateCandidate([2 * z1, z2], equal_spec), degree=6)
    assert splits == []
    assert scaled.failures != first.failures
    # a deeper sweep sums only the words of the new length
    check_conjugate(ConjugateCandidate([z1, z2], equal_spec), degree=7)
    assert splits and {len(word) for word in splits} == {7}


def test_a_stored_zero_moment_is_a_hit(monkeypatch):
    spec = DistributionSpec.standard_semicircular(2)
    cold = check_conjugate(ConjugateCandidate(gens(2), spec), degree=6)
    memo = TraceFunctional(spec)._memo
    assert memo[(1, 2, 1, 2)] == Scalar(0)  # read at w = (2 1 2) for j = 1
    calls = []
    original = TraceFunctional.moment

    def counting(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(TraceFunctional, "moment", counting)
    assert check_conjugate(ConjugateCandidate(gens(2), spec), degree=6) == cold
    assert calls == []


def test_a_private_memo_copy_leaves_no_stale_left_side():
    spec = DistributionSpec.standard_semicircular(2)
    assert check_conjugate(ConjugateCandidate(gens(2), spec), degree=5).passed
    # a wrong tau(1 1) = 2 goes into a private copy of the shared memo, as in
    # test_duality_rejects_a_functional_without_the_star
    cand = ConjugateCandidate(gens(2), spec)
    cand.trace._memo = MomentMemo(cand.trace._memo)
    cand.trace._memo[(1, 1)] = Scalar(2)
    wrong = check_conjugate(cand, degree=5).failures
    # its left sides are summed from the private moments, not read from the
    # shared store: (tau (x) tau)(d_1 (1 1 1)) = 2 tau(1 1) = 4
    assert (1, (1, 1, 1), Scalar(4), Scalar(2)) in wrong
    # the copy keeps its certificates as well: h_1 = tau(1 1) = 2
    assert free_family_certified(cand.trace, 1)
    assert cand.trace._memo.certified == {1: True}
    # and none of them enters the shared store
    assert check_conjugate(ConjugateCandidate(gens(2), spec), degree=5).passed
    shared = TraceFunctional(spec)._memo
    assert shared.left_sides[1][(1, 1, 1)] == Scalar(2)
    assert shared[(1, 1)] == Scalar(1)
    assert shared.certified == {}


def test_zero_sides_are_reported():
    cand = ConjugateCandidate(gens(2)[::-1], DistributionSpec.standard_semicircular(2))
    failures = check_conjugate(cand, degree=4).failures
    assert (1, (1,), Scalar(1), Scalar(0)) in failures
    assert (1, (2,), Scalar(0), Scalar(1)) in failures
    assert all(lhs.is_zero() != rhs.is_zero() for _, _, lhs, rhs in failures)


def test_a_degree_past_the_table_still_raises():
    (z,) = gens(1)
    cand = ConjugateCandidate([z], bernoulli_spec(4))
    assert not check_conjugate(cand, degree=3).passed
    with pytest.raises(DegreeBoundExceeded, match="explicit table degree 4"):
        check_conjugate(cand, degree=4)
    # letter 2 is missing from the table: its words raise as they are met
    table = {(1,) * k: Scalar(1 - k % 2) for k in range(5)}
    cand = ConjugateCandidate(gens(2), DistributionSpec(2, ExplicitMoments(table, 4)))
    with pytest.raises(UnknownMoment, match=r"\(2,\)"):
        check_conjugate(cand, degree=1)
    # a free letter given fewer moments than the other bounds every word
    catalan = (1, 2, 5, 14, 42, 132)
    cand = ConjugateCandidate(gens(2), DistributionSpec(2, FreeFamily((catalan, catalan[:4]))))
    check_conjugate(cand, degree=3)
    with pytest.raises(DegreeBoundExceeded, match="supplied moment depth 4"):
        check_conjugate(cand, degree=4)


def test_explicit_table_reports_the_missing_word():
    # every semicircular moment up to length 4 but tau(1 2 1 1); only the
    # rhs tau(Z_1 w) of w = (2 1 1) asks for it, a word whose reversal
    # (1 1 2) sorts first and whose rotation (1 1 1 2) is in the table
    words = [w for k in range(5) for w in itertools.product((1, 2), repeat=k)]
    table = {
        w: Scalar(semicircular_moment_oracle(w, (1, 1)))
        for w in words
        if w != (1, 2, 1, 1)
    }
    spec = DistributionSpec(2, ExplicitMoments(table, 4))
    cand = ConjugateCandidate(gens(2), spec)
    with pytest.raises(UnknownMoment, match=r"\(1, 2, 1, 1\)"):
        check_conjugate(cand, degree=3)


def test_report_serialization():
    report = check_conjugate(semicircular_candidate(1), degree=3)
    data = report.to_dict()
    assert data["passed"] is True
    assert data["failures"] == []


def test_candidate_validation():
    spec = DistributionSpec.standard_semicircular(2)
    with pytest.raises(ValueError):
        ConjugateCandidate([NcPoly.gen(2, 1)], spec)
    with pytest.raises(ValueError):
        ConjugateCandidate([NcPoly.gen(1, 1), NcPoly.gen(1, 1)], spec)
    cand = semicircular_candidate(2)
    assert cand.self_adjointness() == [True, True]


# -- the adjoint -----------------------------------------------------------------


def test_dstar_on_the_unit_tensor():
    cand = semicircular_candidate(2)
    assert dstar(cand, 1, TensorPoly2.one(2)) == NcPoly.gen(2, 1)


def test_dstar_closed_form_example():
    cand = semicircular_candidate(2)
    z1, z2 = gens(2)
    # dstar_1(Z1 Z2 (x) 1) = Z1 Z2 Z1 - tau(Z2) Z... : here (id(x)tau)(d_1 P) = Z2 tau(1)? no:
    # d_1(Z1 Z2) = 1 (x) Z2, so (id (x) tau)(d_1 P) = tau(Z2) 1 = 0
    p = z1 * z2
    assert dstar_left(cand, 1, p) == p * z1
    assert dstar(cand, 1, TensorPoly2.of(p, NcPoly.one(2))) == dstar_left(cand, 1, p)


def test_dstar_closed_forms_match_general_formula(rng):
    cand = semicircular_candidate(2)
    for _ in range(40):
        p = rand_poly(rng, 2, 4)
        for j in (1, 2):
            assert dstar(cand, j, TensorPoly2.of(p, NcPoly.one(2))) == dstar_left(
                cand, j, p
            )
            assert dstar(cand, j, TensorPoly2.of(NcPoly.one(2), p)) == dstar_right(
                cand, j, p
            )


def _dstar_cases():
    """(name, spec, oracle moment of a word) for the dstar cross-check."""
    variances_3 = (Fraction(1), Fraction(1, 2), Fraction(2))
    return [
        ("semicircular-2", DistributionSpec.standard_semicircular(2),
         lambda w: semicircular_moment_oracle(w, (1, 1))),
        ("semicircular-3", DistributionSpec(3, SemicircularFamily(variances_3)),
         lambda w: semicircular_moment_oracle(w, variances_3)),
        ("free-poisson-2", DistributionSpec(2, FreeFamily((CATALAN, CATALAN))),
         lambda w: free_moment_oracle(w, [[1] * 8, [1] * 8])),
    ]


@pytest.mark.parametrize("case", _dstar_cases(), ids=lambda case: case[0])
def test_dstar_matches_the_oracle_on_sums_of_tensors(rng, case):
    _, spec, moment = case
    moment = functools.cache(moment)
    n = spec.n
    letters = gens(n)
    # each xi_j has a quadratic term: xi is not linear
    xi = [
        rand_poly(rng, n, 2) + Scalar(1, -2) * (letters[j] * letters[0])
        for j in range(n)
    ]
    cand = ConjugateCandidate(xi, spec)
    for _ in range(25):
        y = TensorPoly2.zero(n)
        for _ in range(rng.randint(2, 3)):
            y = y + rand_scalar(rng) * TensorPoly2.of(rand_poly(rng, n, 3), rand_poly(rng, n, 3))
        j = rng.randint(1, n)
        expected = dstar_oracle(
            {key: (c.re, c.im) for key, c in y.terms.items()},
            {u: (c.re, c.im) for u, c in xi[j - 1].terms.items()},
            j,
            moment,
        )
        assert dstar(cand, j, y) == NcPoly(n, {w: Scalar(*c) for w, c in expected.items()})


class _UnreadXi(tuple):
    """A candidate's xi that fails on any read by index."""

    def __getitem__(self, index):
        raise AssertionError(f"xi[{index}] read before the letter index was checked")


@pytest.mark.parametrize("j", [0, 3])
def test_every_dstar_entry_point_checks_the_letter_first(j):
    cand = semicircular_candidate(2)
    cand.xi = _UnreadXi(cand.xi)
    z1, z2 = gens(2)
    y = TensorPoly2.of(z1, z2)
    config = EnsembleConfig(2, 4, (GUE(),) * 2, 1, 7)
    calls = [
        lambda: dstar(cand, j, y),
        lambda: dstar_left(cand, j, z1),
        lambda: dstar_right(cand, j, z1),
        lambda: check_adjoint(cand, j, y, z2),
        lambda: norm_margins(cand, j, z1, 1.0, z2, 1.0),
        lambda: empirical_margins(cand, j, z1, config, q=z2),
    ]
    for call in calls:
        with pytest.raises(IndexOutOfRange, match=f"^derivative index {j} outside 1..2$"):
            call()


def test_adjointness_on_random_data(rng):
    cand = semicircular_candidate(2)
    for _ in range(30):
        y = TensorPoly2.of(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        q = rand_poly(rng, 2, 4)
        for j in (1, 2):
            assert check_adjoint(cand, j, y, q)


def test_adjointness_free_family(rng):
    # a non-semicircular trace still satisfies adjointness once the
    # candidate passes the conjugate relations; the quarter-circular-like
    # family below has conjugate system unknown, so check the identity
    # d(j,.)-adjointness directly through dstar's defining formula instead
    catalan = (0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132)
    spec = DistributionSpec(2, FreeFamily((catalan, catalan)))
    cand = ConjugateCandidate(gens(2), spec)
    assert check_conjugate(cand, degree=4).passed
    for _ in range(10):
        y = TensorPoly2.of(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        q = rand_poly(rng, 2, 3)
        assert check_adjoint(cand, 1, y, q)


# -- duality ------------------------------------------------------------------------


def test_duality_example(trace2):
    z1, z2 = gens(2)
    assert check_duality(trace2, z1, z1 * z2 * z1, 1)


def test_duality_random_monomials(rng, trace2):
    for _ in range(60):
        p1 = NcPoly.monomial(2, rand_word(rng, 2, 4))
        p2 = NcPoly.monomial(2, rand_word(rng, 2, 4))
        for i in (1, 2):
            assert check_duality(trace2, p1, p2, i)


def test_duality_random_polynomials(rng, trace2):
    for _ in range(30):
        p1 = rand_poly(rng, 2, 3)
        p2 = rand_poly(rng, 2, 3)
        assert check_duality(trace2, p1, p2, 1)


def test_rand_word_draws_what_randint_draws():
    for seed in range(50):
        for n in (1, 2, 3, 5, 7):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(50):
                word = rand_word(rng, n, 6, min_len=1)
                length = reference.randint(1, 6)
                assert word == tuple(reference.randint(1, n) for _ in range(length))
            assert rng.getstate() == reference.getstate()



def test_rand_word_rejects_an_empty_range_before_any_draw():
    rng = random.Random(3)
    state = rng.getstate()
    # at n = 0 a drawn length of 0 once gave (), and any other an IndexError
    for n, max_len, min_len in [(0, 4, 0), (0, 4, 1), (-1, 2, 0), (2, 3, 4), (2, -1, 0)]:
        with pytest.raises(ValueError):
            rand_word(rng, n, max_len, min_len)
        assert rng.getstate() == state

@functools.cache
def _duality_specs():
    """Four families with moments of words up to 7 letters, the longest
    tau(x y[:k]) of two polynomials of degree 4."""
    poisson = TraceFunctional(DistributionSpec(2, FreeFamily((CATALAN, CATALAN))))
    table = {w: poisson.moment(w) for w in words_up_to(2, 7)}
    return {
        "semicircular-2": DistributionSpec.standard_semicircular(2),
        "semicircular-3": DistributionSpec(3, SemicircularFamily((1, Fraction(1, 2), 2))),
        "bernoulli-and-free-poisson": DistributionSpec(
            2, FreeFamily((BERNOULLI_MOMENTS, CATALAN))
        ),
        "explicit-table": DistributionSpec(2, ExplicitMoments(table, 7)),
    }


DUALITY_FAMILIES = ["semicircular-2", "semicircular-3", "bernoulli-and-free-poisson",
                    "explicit-table"]


def _duality_verdicts(rng, trace, count=40):
    n = trace.spec.n
    for _ in range(count):
        p1, p2 = rand_poly(rng, n, 4), rand_poly(rng, n, 4)
        i = rng.randint(1, n)
        yield check_duality(trace, p1, p2, i), duality_oracle(trace, p1, p2, i)


@pytest.mark.parametrize("family", DUALITY_FAMILIES)
def test_duality_matches_the_composite_oracle(rng, family):
    trace = TraceFunctional(_duality_specs()[family])
    for verdict, expected in _duality_verdicts(rng, trace):
        assert verdict == expected


@pytest.mark.parametrize("family", DUALITY_FAMILIES)
def test_duality_rejects_a_functional_without_the_star(rng, family):
    trace = TraceFunctional(_duality_specs()[family])
    v = (1, 1, 2, 2)
    # tau(v) + i is not real; tau(v*) = tau(2 2 1 1) reads the old value (a
    # table) or this one (the rotation key of a free family): never its conjugate.
    # The wrong value goes into a private copy of the memo, which a free family
    # shares with every functional on it
    trace._memo = MomentMemo(trace._memo)
    trace._memo[v] = trace.moment(v) + Scalar(0, 1)
    z1, z2 = gens(trace.spec.n)[:2]
    # d_1 of Z2 Z2 Z1 splits at k = 2, so the sweep reads v = (1 1) (2 2)
    assert not check_duality(trace, z1 * z1, z2 * z2 * z1, 1)
    assert not duality_oracle(trace, z1 * z1, z2 * z2 * z1, 1)
    verdicts = list(_duality_verdicts(rng, trace, count=80))
    assert all(verdict == expected for verdict, expected in verdicts)
    assert not all(verdict for verdict, _ in verdicts)


def test_duality_raises_what_the_oracle_raises():
    trace = TraceFunctional(DistributionSpec.standard_semicircular(2), degree_bound=4)
    z1, z2 = gens(2)
    cases = [
        (z1, z1 * z2, 3, IndexOutOfRange),
        (z1, z1 * z2, 0, IndexOutOfRange),
        (NcPoly.gen(3, 1), z1 * z2, 1, GeneratorCountMismatch),
        (z1 * z2, NcPoly.gen(3, 1), 1, GeneratorCountMismatch),
        # v = (1 1 2) + (2 1 2) has 6 letters
        (z1 * z1 * z2, z2 * z1 * z2 * z1 * z1, 1, DegreeBoundExceeded),
    ]
    for p1, p2, i, error in cases:
        raised = []
        for check in (check_duality, duality_oracle):
            with pytest.raises(error) as info:
                check(trace, p1, p2, i)
            raised.append(str(info.value))
        assert raised[0] == raised[1]



def test_duality_on_a_table_names_the_missing_word_it_always_named():
    """Reading every tau(v) first, then each tau(v*) from the last term back."""
    semicircular = TraceFunctional(DistributionSpec.standard_semicircular(2))
    full = {w: semicircular.moment(w) for w in words_up_to(2, 4)}
    z1, z2 = gens(2)
    one_term = (z1 * z2, z2 * z1)
    # v = (1 2) and (1 2 1 2) for x = (1 2), y = (1 2 1); (2 1) for x = (2), y = (1)
    three_terms = (z1 * z2 + z2, z1 * z2 * z1 + z2 * z1)
    cases = [
        # tau(v) listed, tau(v*) missing, and the reverse; v = (1 2 2)
        ({(2, 2, 1)}, one_term, (2, 2, 1)),
        ({(1, 2, 2)}, one_term, (1, 2, 2)),
        # a later tau(v) is read before an earlier tau(v*)
        ({(2, 1), (1, 2, 1, 2)}, three_terms, (1, 2, 1, 2)),
        # of two missing tau(v*), the later term's
        ({(2, 1), (2, 1, 2, 1)}, three_terms, (2, 1, 2, 1)),
        ({(1, 2), (2, 1, 2, 1)}, three_terms, (1, 2)),
    ]
    for missing, (p1, p2), named in cases:
        table = {w: m for w, m in full.items() if w not in missing}
        trace = TraceFunctional(DistributionSpec(2, ExplicitMoments(table, 4)))
        with pytest.raises(UnknownMoment) as info:
            check_duality(trace, p1, p2, 1)
        assert str(info.value) == f"no table entry for word {named}"

# -- norm margins --------------------------------------------------------------------


def test_margins_are_nonnegative_for_semicircular(rng):
    cand = semicircular_candidate(2)
    for _ in range(20):
        p = rand_poly(rng, 2, 3, complex_coeffs=False)
        if p.is_zero():
            continue
        m = norm_margins(cand, 1, p, cand.trace.opnorm_lower(p, 2))
        rhs = m.xi_l2 * m.p_opnorm
        # the operator norm proxy is a lower bound, so allow small slack
        assert m.margin_adjoint_left >= -0.05 * max(1.0, rhs)
        assert m.margin_partial_left >= -0.05 * max(1.0, rhs)


def test_margin_components_for_a_generator():
    cand = semicircular_candidate(1)
    z = NcPoly.gen(1, 1)
    m = norm_margins(cand, 1, z, cand.trace.opnorm_lower(z, 3))
    rhs = m.xi_l2 * m.p_opnorm
    # dstar_left(Z) = Z^2 - 1, norm sqrt(tau(Z^4) - 2 tau(Z^2) + 1) = 1
    assert rhs - m.margin_adjoint_left == pytest.approx(1.0)
    assert 2 * rhs - m.margin_partial_left == pytest.approx(1.0)
    # rhs = ||Z||_2 tau(Z^6)^(1/6) = 5^(1/6)
    assert rhs == pytest.approx(5 ** (1 / 6), rel=1e-12)


# -- Fisher information ------------------------------------------------------------


def test_fisher_of_standard_semicircular():
    info = fisher(semicircular_candidate(2), degree=6)
    assert info.exact == Scalar(2)
    assert info.value == 2.0
    assert info.degree_checked == 6


def test_fisher_refuses_bad_candidates():
    spec = DistributionSpec.standard_semicircular(1)
    cand = ConjugateCandidate([2 * NcPoly.gen(1, 1)], spec)
    with pytest.raises(ConjugateCheckFailed):
        fisher(cand, degree=4)
