import pytest

from ncfree import NcPoly, TensorPoly2
from ncfree.derivations import d
from ncfree.errors import IndexOutOfRange
from ncfree.sweeps import rand_poly

from conftest import gens


def test_derivative_of_generators():
    z1, z2 = gens(2)
    assert d(1, z1) == TensorPoly2.one(2)
    assert d(2, z1) == TensorPoly2.zero(2)
    assert d(1, NcPoly.one(2)) == TensorPoly2.zero(2)
    assert d(1, NcPoly(2, {(): 7})) == TensorPoly2.zero(2)


def test_palindrome_examples():
    z1, z2 = gens(2)
    p = z1 * z2 * z1
    assert d(2, p) == TensorPoly2.of(z1, z1)
    assert d(1, p) == TensorPoly2.of(NcPoly.one(2), z2 * z1) + TensorPoly2.of(
        z1 * z2, NcPoly.one(2)
    )


def test_square_example():
    z1 = NcPoly.gen(1, 1)
    one = NcPoly.one(1)
    assert d(1, z1 * z1) == TensorPoly2.of(one, z1) + TensorPoly2.of(z1, one)


def test_repeated_letter_coefficients():
    z1 = NcPoly.gen(1, 1)
    s = d(1, z1 ** 3)
    one = NcPoly.one(1)
    assert s == (
        TensorPoly2.of(one, z1 * z1)
        + TensorPoly2.of(z1, z1)
        + TensorPoly2.of(z1 * z1, one)
    )


def test_linearity(rng):
    for _ in range(20):
        p = rand_poly(rng, 2, 4)
        q = rand_poly(rng, 2, 4)
        assert d(1, p + q) == d(1, p) + d(1, q)


def test_leibniz_rule(rng):
    # d_j(PQ) = d_j(P) (1 (x) Q) + (P (x) 1) d_j(Q), written via the bimodule action
    for _ in range(60):
        p = rand_poly(rng, 3, 4)
        q = rand_poly(rng, 3, 4)
        for j in (1, 2, 3):
            lhs = d(j, p * q)
            one = NcPoly.one(3)
            rhs = d(j, p).bimodule_mul(one, q) + d(j, q).bimodule_mul(p, one)
            assert lhs == rhs


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        d(3, NcPoly.gen(2, 1))
    with pytest.raises(IndexOutOfRange):
        d(0, NcPoly.gen(2, 1))
    # an index must be an integer letter, not a float or a bool inside 1..n
    for j in (1.5, True):
        with pytest.raises(IndexOutOfRange, match=f"^derivative index {j} outside 1..2$"):
            d(j, NcPoly.gen(2, 1))

