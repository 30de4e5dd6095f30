"""Exact coefficient arithmetic: rationals and rational functions in one variable.

Rationals are ``fractions.Fraction`` (aliased ``Rat``).  Rational functions are
``RatFun`` objects: a numerator and a denominator over Z in the single formal
variable ``t``, coprime over Q, whose coefficients taken together have no
common factor, the denominator leading positive.  That form is unique; zero
is ``()`` over ``(1,)``.  Polynomials are tuples of Python ints in ascending
order of degree with no trailing zeros, ``()`` being zero.  All arithmetic
runs on ints: a gcd is taken primitive, so by Gauss's lemma dividing by it is
exact over Z.

Mixed arithmetic upgrades transparently: ``Fraction + RatFun`` returns a
``RatFun``, so engine code can stay on fast Fraction arithmetic until a
symbolic level actually enters a computation.  A value read back out of a
RatFun (``as_rat``, ``evaluate``, ``linear_zeros``) is a ``Fraction``.

Textual form: a Rat prints as ``p/q`` (or a bare integer), a RatFun prints as
``num(t)/den(t)`` with its integer coefficients, e.g. ``(2*t + 3)/3``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DegreeTooHigh, DivisionByZero, NonIntegralExponent, PoleAtPoint

Rat = Fraction

Poly = tuple  # tuple[int, ...], ascending degree, trimmed


# ---------------------------------------------------------------------------
# polynomial helpers (on trimmed ascending integer coefficient tuples)
# ---------------------------------------------------------------------------

def poly_trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return poly_trim(out)


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # no trim: the top entry is the product of two nonzero tops
    return tuple(out)


def poly_scale(a: Poly, c: int) -> Poly:
    if c == 1:
        return a
    return tuple(x * c for x in a) if c else ()


def _exact_div(a: Poly, g: Poly) -> Poly:
    """a / g for a primitive g that divides a over Q, so over Z as well."""
    if len(g) == 1:
        return a
    n, lead = len(g) - 1, g[-1]
    r = list(a)
    q = [0] * max(0, len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + n] // lead
        if c:
            for j in range(n):
                r[i + j] -= c * g[j]
    return tuple(q)


def _content_free(p: Poly) -> list:
    """A nonzero p divided by its content, the gcd of its coefficients."""
    g = math.gcd(*p)
    return [x // g for x in p]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with a positive leading coefficient, () when both are
    zero, 1 at once for a nonzero constant.  A primitive pseudo-remainder
    sequence: each remainder is divided by its content, which keeps its
    coefficients small."""
    if not a or not b:
        a = a or b
        return tuple(x if a[-1] > 0 else -x for x in _content_free(a)) if a else ()
    if len(a) == 1 or len(b) == 1:
        return (1,)
    A, B = _content_free(a), _content_free(b)
    if len(A) < len(B):
        A, B = B, A
    while True:
        lead = B[-1]
        while len(A) >= len(B):
            # A <- (lead/g) A - (A_top/g) t^shift B cancels the top of A
            g = math.gcd(lead, A[-1])
            u, v, shift = lead // g, A[-1] // g, len(A) - len(B)
            A = [u * x for x in A]
            for i, y in enumerate(B):
                A[i + shift] -= v * y
            while A and A[-1] == 0:
                A.pop()
        if not A:
            return tuple(B) if lead > 0 else poly_neg(B)
        if len(A) == 1:
            return (1,)
        A, B = B, _content_free(A)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_str(p: Poly) -> str:
    """Integer-coefficient polynomial in t, descending powers."""
    if not p:
        return "0"
    terms = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{d}" if mag == 1 else f"{mag}*t^{d}"
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    s = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        s += f" {sign} {body}"
    return s


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------

Scalar = Union[Fraction, "RatFun"]


class RatFun:
    """Rational function in t, canonical form: num and den over Z, coprime
    over Q, joint content 1, den leading positive."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        # int or Fraction coefficients, cleared of their denominators together
        L = math.lcm(*[Fraction(c).denominator for c in (*num, *den)])
        num = poly_trim(int(c * L) for c in num)
        den = poly_trim(int(c * L) for c in den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        # a constant denominator is a unit: the gcd is constant, nothing cancels
        if len(den) > 1:
            g = poly_gcd(num, den)
            num, den = _exact_div(num, g), _exact_div(den, g)
        r = _canonical(num, den)
        self.num, self.den = r.num, r.den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFun":
        # an int or a Fraction: numerator and denominator are coprime already
        return _canonical((c.numerator,) if c else (), (c.denominator,))

    @staticmethod
    def t() -> "RatFun":
        return RatFun((0, 1))

    # -- predicates / conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_rat(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------------
    #
    # Results are built in canonical form by Henrici's rules (Knuth, TAOCP
    # vol. 2, 4.5.1), the ones Fraction uses: a gcd is taken only where a
    # factor can cancel, and only of the polynomials it can divide.  Over Z
    # _canonical then divides out the joint content and fixes the sign.

    def _scaled(self, p: int, q: int = 1) -> "RatFun":
        """self times p/q for integers p and q != 0: nothing cancels over Q."""
        return _canonical(poly_scale(self.num, p), poly_scale(self.den, q))

    def _plus_poly(self, c: Poly, q: int) -> "RatFun":
        """self + c/q for a polynomial c and an integer q > 0: (q a + c b)/(q b),
        and gcd(q a + c b, b) = 1 over Q."""
        return _canonical(poly_add(poly_scale(self.num, q), poly_mul(c, self.den)),
                          poly_scale(self.den, q))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._plus_poly((other.numerator,), other.denominator) if other else self
        if not isinstance(other, RatFun):
            return NotImplemented
        if len(other.den) == 1:
            return self._plus_poly(other.num, other.den[0])
        if len(self.den) == 1:
            return other._plus_poly(self.num, self.den[0])
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if len(g) == 1:
            return _canonical(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))
        # b = g b', d = g d': the sum is (a d' + c b')/(g b' d'), whose
        # numerator is prime to b' and d', so only its gcd with g can cancel
        b1, d1 = _exact_div(b, g), _exact_div(d, g)
        num = poly_add(poly_mul(a, d1), poly_mul(c, b1))
        if not num:
            return _canonical(num, (1,))
        g2 = poly_gcd(num, g)
        return _canonical(_exact_div(num, g2), poly_mul(b1, _exact_div(d, g2)))

    __radd__ = __add__

    def __neg__(self):
        return _canonical(poly_neg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, RatFun)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.is_constant():
            return self._scaled(other.num[0] if other.num else 0, other.den[0])
        if self.is_constant():
            return other._scaled(self.num[0] if self.num else 0, self.den[0])
        a, b, c, d = self.num, self.den, other.num, other.den
        # (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d), g2 = gcd(c, b)
        if len(d) > 1:
            g1 = poly_gcd(a, d)
            a, d = _exact_div(a, g1), _exact_div(d, g1)
        if len(b) > 1:
            g2 = poly_gcd(c, b)
            c, b = _exact_div(c, g2), _exact_div(b, g2)
        return _canonical(poly_mul(a, c), poly_mul(b, d))

    __rmul__ = __mul__

    def _inverse(self) -> "RatFun":
        if not self.num:
            raise DivisionByZero("division by zero rational function")
        return _canonical(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero rational function")
            return self._scaled(other.denominator, other.numerator)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._inverse()._scaled(other.numerator, other.denominator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_rat())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        d = poly_eval(self.den, x)
        if d == 0:
            raise PoleAtPoint(f"pole of {self} at t = {x}")
        return poly_eval(self.num, x) / d

    __call__ = evaluate

    # -- display ---------------------------------------------------------------

    def __str__(self):
        ns, ds = _poly_str(self.num), _poly_str(self.den)
        if self.den == (1,):
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self})"


def _canonical(num: Poly, den: Poly) -> RatFun:
    """The trusted constructor: num and den already coprime over Q.  Their
    joint content is divided out, with the sign that makes den lead positive;
    a zero numerator takes the denominator 1."""
    r = RatFun.__new__(RatFun)
    if not num:
        r.num, r.den = (), (1,)
        return r
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = tuple(x // g for x in num), tuple(x // g for x in den)
    r.num, r.den = num, den
    return r


T = RatFun.t()


def as_ratfun(x: Scalar) -> RatFun:
    return x if isinstance(x, RatFun) else RatFun.const(x)


def sc_is_zero(x: Scalar) -> bool:
    return x.is_zero() if isinstance(x, RatFun) else x == 0


def _as_int(x: Scalar, what: str) -> int:
    if isinstance(x, RatFun):
        if not x.is_constant():
            raise NonIntegralExponent(f"{what} is not constant: {x}")
        x = x.as_rat()
    x = Fraction(x)
    if x.denominator != 1:
        raise NonIntegralExponent(f"{what} = {x} is not an integer")
    return int(x)


# ---------------------------------------------------------------------------
# zero extraction
# ---------------------------------------------------------------------------

def linear_zeros(f: RatFun) -> list:
    """Rational zeros of the numerator (degree <= 2), ascending, each once,
    as Fractions."""
    num = as_ratfun(f).num
    d = len(num) - 1
    if d > 2:
        raise DegreeTooHigh(f"numerator degree {d} > 2")
    if d <= 0:
        return []
    if d == 1:
        return [Fraction(-num[0], num[1])]
    c, b, a = num
    disc = b * b - 4 * a * c
    if disc < 0 or math.isqrt(disc) ** 2 != disc:
        return []
    r = math.isqrt(disc)
    return sorted({Fraction(-b - r, 2 * a), Fraction(-b + r, 2 * a)})


# ---------------------------------------------------------------------------
# parsing ("p/q" rationals)
# ---------------------------------------------------------------------------

def parse_rat(s: str) -> Rat:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise DivisionByZero(str(e)) if "zero" in str(e).lower() else ValueError(
            f"cannot parse rational {s!r}") from e
