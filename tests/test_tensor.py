import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfree import NcPoly, TensorPoly2
from ncfree.derivations import d
from ncfree.errors import GeneratorCountMismatch, IndexOutOfRange
from ncfree.scalars import Scalar
from ncfree.sweeps import rand_poly, rand_self_adjoint
from ncfree.tensor import TensorPoly3

from conftest import gens

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, fractions, fractions)
words = st.lists(st.integers(1, 3), max_size=3).map(tuple)
tensors = st.builds(
    lambda terms: TensorPoly2(3, dict(terms)),
    st.lists(st.tuples(st.tuples(words, words), scalars), max_size=3),
)


def elem(n, w1, w2, coeff=1):
    return TensorPoly2(n, {(tuple(w1), tuple(w2)): coeff})


# -- sharp --------------------------------------------------------------------


def test_sharp_single_term():
    s = elem(3, (1,), (2,))
    t = elem(3, (3,), ())
    assert s.sharp(t) == elem(3, (1, 3), (2,))


def test_sharp_unit():
    s = elem(3, (1, 2), (3,), Scalar(2, 1))
    one = TensorPoly2.one(3)
    assert one.sharp(s) == s
    assert s.sharp(one) == s


def test_sharp_pairing_rule(rng):
    # (P1 (x) P2) # (A (x) B) = (P1 A) (x) (B P2)
    for _ in range(20):
        p1, p2, a, b = (rand_poly(rng, 2, 2) for _ in range(4))
        lhs = TensorPoly2.of(p1, p2).sharp(TensorPoly2.of(a, b))
        assert lhs == TensorPoly2.of(p1 * a, b * p2)


@settings(max_examples=40)
@given(tensors, tensors, tensors)
def test_sharp_is_associative(s, t, u):
    assert s.sharp(t).sharp(u) == s.sharp(t.sharp(u))


def test_generator_count_mismatch():
    with pytest.raises(GeneratorCountMismatch):
        TensorPoly2.one(2).sharp(TensorPoly2.one(3))


# -- validation and canonical form ------------------------------------------------


@pytest.mark.parametrize(
    "cls, key",
    [
        (TensorPoly2, ((3,), ())),
        (TensorPoly2, ((), (1, 0))),
        (TensorPoly3, ((3,), (), ())),
        (TensorPoly3, ((), (1, 3), ())),
        (TensorPoly3, ((), (), (0,))),
    ],
)
def test_letter_out_of_range_in_any_leg(cls, key):
    with pytest.raises(IndexOutOfRange):
        cls(2, {key: 1})


@pytest.mark.parametrize("cls", [TensorPoly2, TensorPoly3])
def test_negative_generator_count(cls):
    with pytest.raises(ValueError):
        cls(-1)


def test_closed_operations_drop_cancelled_terms():
    z1, one = NcPoly.gen(1, 1), NcPoly.one(1)
    s = TensorPoly2.of(z1, one) - TensorPoly2.of(one, z1)
    assert (s - s).terms == {}
    # the two (Z1 (x) Z1) terms of s # t cancel
    t = TensorPoly2.of(one, z1) + TensorPoly2.of(z1, one)
    assert s.sharp(t).terms == {((1, 1), ()): Scalar(1), ((), (1, 1)): Scalar(-1)}
    # m_1 sends both terms of s to Z1
    assert s.collapse(one).terms == {}


# -- flip ------------------------------------------------------------------------


def test_flip_definition():
    assert elem(2, (1,), (2,)).flip() == elem(2, (2,), (1,))
    assert TensorPoly2.one(2).flip() == TensorPoly2.one(2)


@settings(max_examples=40)
@given(tensors, tensors)
def test_flip_is_star_isomorphism(s, t):
    assert s.flip().flip() == s
    assert (s * t).flip() == s.flip() * t.flip()
    assert s.star().flip() == s.flip().star()


def test_flip_coderivation_identity_example():
    # flip((d_1 P)*) = d_1(P*) for P = Z1 Z2 Z1
    z1, z2 = gens(2)
    p = z1 * z2 * z1
    assert d(1, p).star().flip() == d(1, p.star())


def test_flip_coderivation_identity_random(rng):
    for _ in range(50):
        p = rand_poly(rng, 3, 6)
        for j in (1, 2, 3):
            assert d(j, p).star().flip() == d(j, p.star())


# -- tensor star -------------------------------------------------------------------


def test_star_componentwise():
    s = elem(3, (1,), (2, 3), Scalar(0, 1))
    assert s.star() == elem(3, (1,), (3, 2), Scalar(0, -1))
    assert TensorPoly2.one(3).star() == TensorPoly2.one(3)


def test_derivative_of_anticommutator_is_self_adjoint():
    z1, z2 = gens(2)
    s = d(1, z1 * z2 + z2 * z1)
    assert s == TensorPoly2.of(NcPoly.one(2), z2) + TensorPoly2.of(z2, NcPoly.one(2))
    assert s.star() == s


@settings(max_examples=40)
@given(tensors, tensors)
def test_star_antiautomorphism(s, t):
    assert (s * t).star() == t.star() * s.star()
    assert s.star().star() == s


# -- bimodule action ------------------------------------------------------------------


def test_bimodule_example(rng):
    z1 = NcPoly.gen(2, 1)
    v = rand_self_adjoint(rng, 2, 2)
    w = rand_self_adjoint(rng, 2, 2)
    s = TensorPoly2.of(z1, z1)
    assert s.bimodule_mul(v, w) == TensorPoly2.of(v * z1, z1 * w)


def test_bimodule_units():
    s = elem(3, (1, 2), (3,), Scalar(1, 1))
    one = NcPoly.one(3)
    assert s.bimodule_mul(one, one) == s
    assert TensorPoly2.one(3).bimodule_mul(NcPoly.gen(3, 2), NcPoly.gen(3, 3)) == elem(
        3, (2,), (3,)
    )


def composed_bimodule(s, lp, rq):
    """(lp (x) 1) s (1 (x) rq) as two products in the tensor algebra."""
    one = NcPoly.one(s.n)
    return TensorPoly2.of(lp, one) * s * TensorPoly2.of(one, rq)


def test_bimodule_matches_the_composed_product(rng):
    for _ in range(60):
        s = TensorPoly2.of(rand_poly(rng, 3, 3), rand_poly(rng, 3, 3)) + TensorPoly2.of(
            rand_poly(rng, 3, 2), rand_poly(rng, 3, 2)
        )
        lp, rq = rand_poly(rng, 3, 2, max_terms=4), rand_poly(rng, 3, 2, max_terms=4)
        assert s.bimodule_mul(lp, rq) == composed_bimodule(s, lp, rq)


def test_bimodule_drops_cancelled_terms():
    z1, z2 = gens(2)
    one = NcPoly.one(2)
    # (Z1 + Z1 Z1) (Z1 - 1) = Z1 Z1 Z1 - Z1 on the left leg: Z1 Z1 cancels
    lp = Scalar(1, 2) * (z1 + z1 * z1)
    s = TensorPoly2.of(z1 - one, z2) + TensorPoly2.of(z2, Scalar(0, 1) * z1)
    rq = z2 - Scalar(3, -1) * one
    result = s.bimodule_mul(lp, rq)
    assert result == composed_bimodule(s, lp, rq)
    assert all(not c.is_zero() for c in result.terms.values())
    assert not any(w1 == (1, 1) for w1, _ in result.terms)
    # terms that cancel to nothing at all
    lp = z1 + z2
    s = TensorPoly2.of(z2, one) - TensorPoly2.of(z1, one)
    assert s.bimodule_mul(z1 - z2, rq) == composed_bimodule(s, z1 - z2, rq)
    assert TensorPoly2.zero(2).bimodule_mul(lp, rq).is_zero()
    assert s.bimodule_mul(NcPoly.zero(2), rq).is_zero()


@settings(max_examples=40, deadline=None)
@given(tensors, tensors, tensors)
def test_bimodule_matches_the_composed_product_on_sums(s, t, u):
    lp = NcPoly(3, {w1: c for (w1, _), c in t.terms.items()})
    rq = NcPoly(3, {w2: c for (_, w2), c in u.terms.items()})
    assert s.bimodule_mul(lp, rq) == composed_bimodule(s, lp, rq)


@pytest.mark.parametrize("side", ["left", "right"])
def test_bimodule_generator_count_mismatch(side):
    s = TensorPoly2.one(2)
    other = NcPoly.gen(3, 1)
    with pytest.raises(GeneratorCountMismatch):
        if side == "left":
            s.bimodule_mul(other, NcPoly.one(2))
        else:
            s.bimodule_mul(NcPoly.one(2), other)


# -- collapse -----------------------------------------------------------------------


def test_collapse_unit_eta():
    z1, z2 = gens(2)
    assert TensorPoly2.of(z1, z2).collapse(NcPoly.one(2)) == z1 * z2
    assert TensorPoly2.one(2).collapse(NcPoly.one(2)) == NcPoly.one(2)


def test_collapse_is_multiplication_for_unit_eta(rng):
    for _ in range(20):
        a = rand_poly(rng, 2, 3)
        b = rand_poly(rng, 2, 3)
        assert TensorPoly2.of(a, b).collapse(NcPoly.one(2)) == a * b


def test_collapse_linearity(rng):
    eta = rand_poly(rng, 2, 2)
    s = rand_tensor = TensorPoly2.of(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
    t = TensorPoly2.of(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
    assert (s + t).collapse(eta) == s.collapse(eta) + t.collapse(eta)


def test_collapse_anticommutator_reduction(rng):
    # for P = Z1 Z2 + Z2 Z1 and self-adjoint w:
    # m_{Z2}(w (x) 1 (d_1 P) 1 (x) w) expands to 2 (Z2 w)* (Z2 w)
    z1, z2 = gens(2)
    p = z1 * z2 + z2 * z1
    for _ in range(10):
        w = rand_self_adjoint(rng, 2, 2)
        lhs = d(1, p).bimodule_mul(w, w).collapse(z2)
        assert lhs == 2 * ((z2 * w).star() * (z2 * w))


# -- text form -------------------------------------------------------------------------


def test_tensor_text_round_trip(rng):
    for _ in range(30):
        s = TensorPoly2.of(rand_poly(rng, 3, 3), rand_poly(rng, 3, 3))
        assert TensorPoly2.from_text(s.to_text(), 3) == s
    assert TensorPoly2.from_text("0", 2) == TensorPoly2.zero(2)
    assert TensorPoly2.from_text("1 * (Z 1 | Z 2)", 2) == elem(2, (1,), (2,))
