from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncfree.scalars import Scalar

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(Scalar, fractions, fractions)


def test_basic_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(Fraction(1, 2), -1)
    assert a + b == Scalar(Fraction(3, 2), 1)
    assert a * b == Scalar(Fraction(5, 2), 0)
    assert -a == Scalar(-1, -2)
    assert a.conjugate() == Scalar(1, -2)


def test_exact_division():
    a = Scalar(1, 1)
    b = Scalar(0, 2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(fractions, fractions)
def test_a_real_scalar_is_its_own_conjugate(re, im):
    real = Scalar(re)
    assert real.conjugate() is real
    z = Scalar(re, im)
    conj = z.conjugate()
    assert (conj.re, conj.im) == (re, -im)
    assert conj == Scalar(re, -im) and hash(conj) == hash(Scalar(re, -im))
    assert conj.conjugate() == z and hash(conj.conjugate()) == hash(z)


@given(scalars)
def test_text_round_trip(a):
    assert Scalar.parse(str(a)) == a


def test_parse_forms():
    assert Scalar.parse("1") == Scalar(1)
    assert Scalar.parse("-2/3") == Scalar(Fraction(-2, 3))
    assert Scalar.parse("1/2+3/4 i") == Scalar(Fraction(1, 2), Fraction(3, 4))
    assert Scalar.parse("0-1 i") == Scalar(0, -1)
    for text in ("bananas", "1/0", "0+1/0 i", "-3/00-1 i"):
        with pytest.raises(ValueError):
            Scalar.parse(text)


# -- oracle: a pair of Fractions, computed here without going through Scalar ---------

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
large = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12)
parts = st.one_of(small, large, st.integers(-(10**15), 10**15).map(Fraction))
pairs = st.tuples(parts, parts)


def pair_text(a, b):
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)} i"


def assert_matches(value, pair):
    a, b = pair
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert (value.re, value.im) == (a, b)
    assert value == Scalar(a, b)
    assert hash(value) == hash(Scalar(a, b))
    assert str(value) == pair_text(a, b)
    assert complex(value) == complex(float(a), float(b))


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    (a, b), (c, d) = x, y
    sx, sy = Scalar(a, b), Scalar(c, d)
    assert_matches(sx, (a, b))
    assert_matches(sx + sy, (a + c, b + d))
    assert_matches(sx - sy, (a - c, b - d))
    assert_matches(sx * sy, (a * c - b * d, a * d + b * c))
    assert_matches(-sx, (-a, -b))
    assert_matches(sx.conjugate(), (a, -b))
    norm = c * c + d * d
    if norm:
        assert_matches(sx / sy, ((a * c + b * d) / norm, (b * c - a * d) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            sx / sy
    assert (sx == sy) == ((a, b) == (c, d))
    assert sx.is_zero() == (a == 0 and b == 0)
    assert sx.is_positive() == (b == 0 and a > 0)
    assert Scalar.parse(str(sx)) == sx


@given(pairs, parts, st.integers(1, 10**9))
def test_mixed_operands_match_fraction_pairs(x, r, k):
    a, b = x
    sx = Scalar(a, b)
    assert_matches(sx + r, (a + r, b))
    assert_matches(r + sx, (a + r, b))
    assert_matches(sx * r, (a * r, b * r))
    assert_matches(r - sx, (r - a, -b))
    assert_matches(sx / k, (a / k, b / k))
    assert (Scalar(r) == r) and (Scalar(r, 1) != r)
    assert hash(Scalar(r)) == hash(r)


@given(pairs, st.integers(-(10**9), 10**9).filter(bool))
def test_equal_values_have_equal_hashes(x, k):
    a, b = x
    sx = Scalar(a, b)
    # the same value reached through unreduced intermediate triples
    scaled = Scalar(a * k, b * k) / k
    summed = Scalar(a / 2, b / 2) + Scalar(a / 2, b / 2)
    for other in (scaled, summed, sx * 1, sx + 0):
        assert other == sx
        assert hash(other) == hash(sx)


def test_canonical_form_ignores_how_parts_were_written():
    assert Scalar(Fraction(2, 4), Fraction(3, 6)) == Scalar(Fraction(1, 2), Fraction(1, 2))
    quarter = Scalar(Fraction(1, 4), Fraction(1, 4))
    half = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert quarter + quarter == half
    assert hash(quarter + quarter) == hash(half)
    assert Scalar(Fraction(6, 4)) * Scalar(Fraction(2, 3)) == Scalar(1)
    assert repr(half) == "Scalar(Fraction(1, 2), Fraction(1, 2))"
