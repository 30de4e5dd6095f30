"""Exact coefficient arithmetic: rationals and rational functions in one variable.

Rationals are ``fractions.Fraction`` (aliased ``Rat``).  Rational functions are
``RatFun`` objects: a pair of coprime polynomials over Q in the single formal
variable ``t``, with monic denominator.  Polynomials are coefficient tuples in
ascending order of degree with no trailing zeros, ``()`` being zero.

Mixed arithmetic upgrades transparently: ``Fraction + RatFun`` returns a
``RatFun``, so engine code can stay on fast Fraction arithmetic until a
symbolic level actually enters a computation.

Textual form: a Rat prints as ``p/q`` (or a bare integer), a RatFun prints as
``num(t)/den(t)`` with integer coefficients, e.g. ``(2*t + 3)/3``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DegreeTooHigh, DivisionByZero, NonIntegralExponent, PoleAtPoint

Rat = Fraction

Poly = tuple  # tuple[Fraction, ...], ascending degree, trimmed

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# polynomial helpers (on trimmed ascending coefficient tuples)
# ---------------------------------------------------------------------------

def poly_trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    # a Fraction coefficient is kept as it is; only other numbers are wrapped
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in cs)


def poly_deg(p: Poly) -> int:
    """Degree, with deg 0 = -1."""
    return len(p) - 1


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    # no trim: the top entry is the product of two nonzero tops, and every
    # entry is a Fraction, as it starts from _ZERO
    return tuple(out)


def poly_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def poly_divmod(a: Poly, b: Poly):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    n = len(b) - 1
    r = list(a)
    q = [_ZERO] * max(0, len(a) - n)
    inv_lead = 1 / b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + n] * inv_lead
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    return poly_trim(q), poly_trim(r[:n])


def _primitive(p: Poly) -> list:
    """The primitive integer polynomial with the roots of a nonzero p: p times
    the lcm of its denominators, divided by the gcd of the numerators."""
    L = math.lcm(*[c.denominator for c in p])
    ints = [c.numerator * (L // c.denominator) for c in p]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, () when both are zero, 1 at once for a nonzero constant.
    Worked over Z by a primitive pseudo-remainder sequence: each remainder is
    divided by its content, which keeps its integer coefficients small."""
    if not a or not b:
        a = a or b
        return poly_scale(a, 1 / a[-1]) if a else ()
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)
    A, B = _primitive(a), _primitive(b)
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
            return tuple(Fraction(x, lead) for x in B)
        if len(A) == 1:
            return (_ONE,)
        g = math.gcd(*A)
        A, B = B, [x // g for x in A]


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = _ZERO
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
    """Rational function in t, canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = poly_trim(num)
        den = poly_trim(den)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        # a constant denominator is a unit: the gcd is constant, nothing cancels
        if len(den) > 1:
            g = poly_gcd(num, den)
            if poly_deg(g) > 0:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
        lead = den[-1]
        if lead != 1:
            num = poly_scale(num, 1 / lead)
            den = poly_scale(den, 1 / lead)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFun":
        return _canonical(poly_trim((c,)), (_ONE,))

    @staticmethod
    def t() -> "RatFun":
        return RatFun((Fraction(0), Fraction(1)))

    # -- predicates / conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return poly_deg(self.num) <= 0 and poly_deg(self.den) == 0

    def as_rat(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] if self.num else _ZERO

    # -- arithmetic ----------------------------------------------------------
    #
    # Results are built in canonical form by Henrici's rules (Knuth, TAOCP
    # vol. 2, 4.5.1), the ones Fraction uses: a gcd is taken only where a
    # factor can cancel, and only of the polynomials it can divide.

    def _scaled(self, c) -> "RatFun":
        """self times the number c: the numerator scales, nothing cancels."""
        return _canonical(poly_scale(self.num, c), self.den)

    def _plus_poly(self, p: Poly) -> "RatFun":
        """self + p for a polynomial p: (a + p b)/b, and gcd(a + p b, b) = 1."""
        pb = p if len(self.den) == 1 else poly_mul(p, self.den)
        return _canonical(poly_add(self.num, pb), self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._plus_poly((other,)) if other else self
        if not isinstance(other, RatFun):
            return NotImplemented
        if len(other.den) == 1:
            return self._plus_poly(other.num)
        if len(self.den) == 1:
            return other._plus_poly(self.num)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if len(g) == 1:
            return _canonical(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))
        # b = g b', d = g d': the sum is (a d' + c b')/(g b' d'), whose
        # numerator is prime to b' and d', so only its gcd with g can cancel
        b1, d1 = _exact_div(b, g), _exact_div(d, g)
        num = poly_add(poly_mul(a, d1), poly_mul(c, b1))
        if not num:
            return _canonical(num, (_ONE,))
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
            return self._scaled(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.is_constant():
            return self._scaled(other.num[0] if other.num else _ZERO)
        if self.is_constant():
            return other._scaled(self.num[0] if self.num else _ZERO)
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
        inv = 1 / self.num[-1]
        return _canonical(poly_scale(self.den, inv), poly_scale(self.num, inv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero rational function")
            return self._scaled(1 / Fraction(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._inverse()._scaled(other)

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
        num, den = _integer_cleared(self.num, self.den)
        ns, ds = _poly_str(num), _poly_str(den)
        if den == (Fraction(1),):
            return ns
        if poly_deg(num) > 0:
            ns = f"({ns})"
        if poly_deg(den) > 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self})"


def _canonical(num: Poly, den: Poly) -> RatFun:
    """The trusted constructor: num and den already coprime, den monic, so
    they are stored as given; a zero numerator takes the denominator 1."""
    r = RatFun.__new__(RatFun)
    r.num, r.den = (num, den) if num else ((), (_ONE,))
    return r


def _exact_div(a: Poly, g: Poly) -> Poly:
    """a / g for a monic g that divides a."""
    return a if len(g) == 1 else poly_divmod(a, g)[0]


def _integer_cleared(num: Poly, den: Poly):
    """Rescale num/den so both have coprime integer coefficients, den leading > 0."""
    dens = [c.denominator for c in num + den] or [1]
    m = math.lcm(*dens)
    num = tuple(c * m for c in num)
    den = tuple(c * m for c in den)
    nums = [abs(c.numerator) for c in num + den if c != 0] or [1]
    g = math.gcd(*nums)
    num = tuple(Fraction(c.numerator // g) for c in num)
    den = tuple(Fraction(c.numerator // g) for c in den)
    if den and den[-1] < 0:
        num = poly_neg(num)
        den = poly_neg(den)
    return num, den


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

def _rat_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def linear_zeros(f: RatFun) -> list:
    """Rational zeros of the numerator (degree <= 2), ascending, each once."""
    f = as_ratfun(f)
    num = f.num
    d = poly_deg(num)
    if d > 2:
        raise DegreeTooHigh(f"numerator degree {d} > 2")
    if d <= 0:
        return []
    if d == 1:
        return [-num[0] / num[1]]
    c, b, a = num[0], num[1], num[2]
    disc = b * b - 4 * a * c
    r = _rat_sqrt(disc)
    if r is None:
        return []
    roots = sorted({(-b - r) / (2 * a), (-b + r) / (2 * a)})
    return roots


# ---------------------------------------------------------------------------
# parsing ("p/q" rationals)
# ---------------------------------------------------------------------------

def parse_rat(s: str) -> Rat:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise DivisionByZero(str(e)) if "zero" in str(e).lower() else ValueError(
            f"cannot parse rational {s!r}") from e
