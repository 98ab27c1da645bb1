"""Exact complex scalars with rational real and imaginary parts.

All symbolic identities in this package are exact equalities, so the
coefficient field is represented without any floating point.  A scalar
a + b*i is held as three Python ints (re_num, im_num, den) with
a = re_num/den, b = im_num/den, den > 0 and gcd(re_num, im_num, den) == 1.
That form is canonical, so equality is a comparison of ints, and each sum,
product and quotient is reduced by one three-way gcd.  Floats only appear
at the very end, when a value is handed to the numerical modules.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

_RatLike = int | Fraction


class Scalar:
    """A complex number a + b*i with exact rational a, b.

    Immutable: `re` and `im` are read-only views of the private integer
    triple, which no method changes after construction.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        if type(re) is int and type(im) is int:
            self._re, self._im, self._den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        re_den, im_den = re.denominator, im.denominator
        # both parts are in lowest terms, so over the lcm the triple is too
        den = re_den // gcd(re_den, im_den) * im_den
        self._re = re.numerator * (den // re_den)
        self._im = im.numerator * (den // im_den)
        self._den = den

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (Scalar, int, Fraction)):
                return NotImplemented  # defer to the other operand's __radd__
            other = Scalar.coerce(other)
        d, e = self._den, other._den
        if d == e:
            return _lowest(self._re + other._re, self._im + other._im, d)
        return _lowest(
            self._re * e + other._re * d, self._im * e + other._im * d, d * e
        )

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._re, -self._im, self._den)

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (Scalar, int, Fraction)):
                return NotImplemented  # defer to the other operand's __rmul__
            other = Scalar.coerce(other)
        a, b, c, f = self._re, self._im, other._re, other._im
        if not b and not f:
            return _lowest(a * c, 0, self._den * other._den)
        return _lowest(a * c - b * f, a * f + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        a, b, c, f = self._re, self._im, other._re, other._im
        # (a + bi)/d / ((c + fi)/e) = (a + bi)(c - fi) e / (d (c^2 + f^2))
        e, d = other._den, self._den
        if not b and not f:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            if c < 0:
                return _lowest(-a * e, 0, -d * c)
            return _lowest(a * e, 0, d * c)
        norm = c * c + f * f
        if not norm:
            raise ZeroDivisionError("division by zero Scalar")
        return _lowest((a * c + b * f) * e, (b * c - a * f) * e, d * norm)

    def conjugate(self) -> "Scalar":
        if not self._im:
            return self  # immutable, so a real scalar is its own conjugate
        return _triple(self._re, -self._im, self._den)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_positive(self) -> bool:
        """True for a real number > 0."""
        return not self._im and self._re > 0

    def __bool__(self):
        return bool(self._re or self._im)

    def __eq__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return (
            self._re == other._re
            and self._im == other._im
            and self._den == other._den
        )

    def __hash__(self):
        if not self._im:
            return hash(self.re)  # a real Scalar equals its int / Fraction
        return hash((self._re, self._im, self._den))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._re / self._den, self._im / self._den)

    # -- text form -------------------------------------------------------
    # Grammar: `a/b` for real scalars, `a/b+c/d i` (or `a/b-c/d i`) otherwise.

    def __str__(self):
        re, im, den = self._re, self._im, self._den
        if not im:
            # gcd(re, den) == 1 here, so re/den is already in lowest terms
            return str(re) if den == 1 else f"{re}/{den}"
        sign = "+" if im > 0 else "-"
        return f"{_ratio(re, den)}{sign}{_ratio(abs(im), den)} i"

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    _PATTERN = _re.compile(
        r"^(?P<re>-?\d+(?:/\d+)?)(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?) ?i)?$"
    )

    @staticmethod
    def parse(text: str) -> "Scalar":
        m = Scalar._PATTERN.match(text.strip())
        if m is None:
            raise ValueError(f"malformed scalar: {text!r}")
        try:
            re_part = Fraction(m.group("re"))
            im_part = Fraction(m.group("im") or 0)
        except ZeroDivisionError:
            raise ValueError(f"scalar {text!r} has a zero denominator") from None
        if m.group("sign") == "-":
            im_part = -im_part
        return Scalar(re_part, im_part)


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


_new = object.__new__


def _triple(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i)/den from a triple already in canonical form."""
    value = _new(Scalar)
    value._re, value._im, value._den = re, im, den
    return value


def _lowest(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i)/den for den > 0, brought to lowest terms."""
    g = gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    value = _new(Scalar)
    value._re, value._im, value._den = re, im, den
    return value


ZERO = Scalar(0)
ONE = Scalar(1)
