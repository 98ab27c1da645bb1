import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree import NcPoly
from ncfree.errors import EvaluationError, GeneratorCountMismatch, IndexOutOfRange
from ncfree.ncpoly import NEG_INF
from ncfree.scalars import Scalar

from conftest import gens

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, fractions, fractions)
words = st.lists(st.integers(1, 3), max_size=5).map(tuple)
polys = st.builds(
    lambda terms: NcPoly(3, dict(terms)),
    st.lists(st.tuples(words, scalars), max_size=3),
)


# -- addition -------------------------------------------------------------


def test_additive_inverse():
    z1 = NcPoly.gen(2, 1)
    assert z1 + (-z1) == NcPoly.zero(2)


def test_words_do_not_commute():
    z1, z2 = gens(2)
    p = z1 * z2 + z2 * z1
    assert len(p.terms) == 2


def test_coefficient_arithmetic():
    z1 = NcPoly.gen(1, 1)
    assert (2 * z1 + 1) + 3 * z1 == 5 * z1 + 1


# -- multiplication --------------------------------------------------------


def test_concatenation():
    z1, z2 = gens(2)
    assert z1 * z2 != z2 * z1
    assert (z1 * z2).coeff((1, 2)) == 1


def test_unit():
    z1, z2 = gens(2)
    p = 3 * z1 * z2 + z2
    assert NcPoly.one(2) * p == p


def test_distributivity_example():
    z1, z2 = gens(2)
    product = (z1 + z2) * (z1 - z2)
    assert product == z1 * z1 - z1 * z2 + z2 * z1 - z2 * z2


def test_generator_count_mismatch():
    with pytest.raises(GeneratorCountMismatch):
        NcPoly.gen(2, 1) + NcPoly.gen(3, 1)
    with pytest.raises(GeneratorCountMismatch):
        NcPoly.gen(2, 1) * NcPoly.gen(3, 1)
    with pytest.raises(IndexOutOfRange):
        NcPoly.gen(2, 3)


def test_letters_must_be_integers():
    # 1.5 lies in 1..2 but names no generator; its text would not parse back
    with pytest.raises(IndexOutOfRange, match="1.5"):
        NcPoly(2, {(1.5,): 1})
    with pytest.raises(IndexOutOfRange):
        NcPoly(2, {("1",): 1})
    # nor is a bool: its text `Z True` would not parse back either
    with pytest.raises(IndexOutOfRange, match="True"):
        NcPoly(2, {(True,): 1})
    for i in (True, 1.5):
        with pytest.raises(IndexOutOfRange, match=f"^generator index {i} outside 1..2$"):
            NcPoly.gen(2, i)


# -- star -----------------------------------------------------------------


def test_star_reverses_and_conjugates():
    z1, z2 = gens(2)
    p = Scalar(0, 1) * z1 * z2
    assert p.star() == Scalar(0, -1) * z2 * z1


def test_anticommutator_is_self_adjoint():
    z1, z2 = gens(2)
    p = z1 * z2 + z2 * z1
    assert p.star() == p


def test_star_of_unit():
    assert NcPoly.one(2).star() == NcPoly.one(2)


# -- degree ----------------------------------------------------------------


def leading_words(p):
    return {word for word in p.terms if len(word) == p.total_degree()}


def test_degree_and_leading_part():
    z1, z2 = gens(2)
    p = z1 * z2 * z1 + z2
    assert p.total_degree() == 3
    assert leading_words(p) == {(1, 2, 1)}


def test_degree_of_constant():
    assert NcPoly(2, {(): 5}).total_degree() == 0


def test_degree_of_zero():
    assert NcPoly.zero(2).total_degree() == NEG_INF
    assert leading_words(NcPoly.zero(2)) == set()


def test_leading_part_of_homogeneous():
    z1, z2 = gens(2)
    p = z1 * z2 + z2 * z1
    assert p.total_degree() == 2
    assert leading_words(p) == set(p.terms)


# -- hypothesis: ring and star axioms ---------------------------------------


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert NcPoly.one(3) * p == p == p * NcPoly.one(3)


@settings(max_examples=60)
@given(polys, polys)
def test_star_is_involutive_antiautomorphism(p, q):
    assert (p * q).star() == q.star() * p.star()
    assert p.star().star() == p


# -- evaluation ---------------------------------------------------------------


def test_evaluate_generator_and_unit():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(NcPoly.gen(1, 1).evaluate([a]), a)
    assert np.allclose(NcPoly.one(1).evaluate([a]), np.eye(2))


def test_commutator_vanishes_on_diagonal_matrices():
    z1, z2 = gens(2)
    d1 = np.diag([1.0, 2.0, 3.0])
    d2 = np.diag([-1.0, 0.5, 4.0])
    value = (z1 * z2 - z2 * z1).evaluate([d1, d2])
    # oracle: direct matrix multiplication
    assert np.allclose(value, d1 @ d2 - d2 @ d1)
    assert np.allclose(value, 0.0)


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_evaluate_is_a_unital_star_homomorphism():
    nprng = np.random.default_rng(11)
    mats = [_random_hermitian(nprng, 8) for _ in range(3)]
    import random

    pyrng = random.Random(5)
    from ncfree.sweeps import rand_poly

    for _ in range(25):
        p = rand_poly(pyrng, 3, 3)
        q = rand_poly(pyrng, 3, 3)
        pq = (p * q).evaluate(mats)
        assert np.max(np.abs(pq - p.evaluate(mats) @ q.evaluate(mats))) < 1e-10
        ps = p.star().evaluate(mats)
        assert np.max(np.abs(ps - p.evaluate(mats).conj().T)) < 1e-10


def test_evaluate_rejects_bad_assignments():
    z1 = NcPoly.gen(2, 1)
    good = np.eye(2)
    with pytest.raises(EvaluationError):
        z1.evaluate([good])  # wrong count
    with pytest.raises(EvaluationError):
        z1.evaluate([good, np.array([[0.0, 1.0], [0.0, 0.0]])])  # not Hermitian
    with pytest.raises(EvaluationError):
        z1.evaluate([good, np.eye(3)])  # dimension mismatch


# -- text form -----------------------------------------------------------------


def test_text_example():
    p = NcPoly.from_text("1 * Z 1 2 + 1 * Z 2 1", 2)
    z1, z2 = gens(2)
    assert p == z1 * z2 + z2 * z1
    assert p.to_text() == "1 * Z 1 2 + 1 * Z 2 1"


@settings(max_examples=80)
@given(polys)
def test_text_round_trip(p):
    assert NcPoly.from_text(p.to_text(), 3) == p
