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

from .errors import DegreeTooHigh, DivisionByZero, PoleAtPoint

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
    return poly_trim(out)


def poly_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def poly_divmod(a: Poly, b: Poly):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = 1 / b[-1]
    while len(r) >= len(b) and any(c != 0 for c in r):
        if r[-1] == 0:
            r.pop()
            continue
        d = len(r) - len(b)
        c = r[-1] * inv_lead
        q[d] = c
        for i, cb in enumerate(b):
            r[i + d] -= c * cb
        r.pop()
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])  # monic


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
        return RatFun((Fraction(c),))

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

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun((Fraction(x),))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFun(poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
                      poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        r = RatFun.__new__(RatFun)
        r.num = poly_neg(self.num)
        r.den = self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFun(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFun(poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFun((_ONE,)) / self ** (-k)
        out = RatFun((_ONE,))
        for _ in range(k):
            out = out * self
        return out

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


# ---------------------------------------------------------------------------
# spec surface: field arithmetic, evaluation, zero extraction
# ---------------------------------------------------------------------------

def field_arithmetic(a: RatFun, b: RatFun, op: str) -> RatFun:
    a, b = as_ratfun(a), as_ratfun(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def evaluate(f: RatFun, x: Rat) -> Rat:
    return as_ratfun(f).evaluate(x)


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
# parsing ("p/q" rationals and polynomial expressions in t)
# ---------------------------------------------------------------------------

def parse_rat(s: str) -> Rat:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise DivisionByZero(str(e)) if "zero" in str(e).lower() else ValueError(
            f"cannot parse rational {s!r}") from e


def parse_ratfun(s: str) -> RatFun:
    """Parse an expression over integers and t with + - * / ^ and parentheses."""
    tokens = _tokenize(s)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"parse error in {s!r} at token {tok!r}")
        pos[0] += 1
        return tok

    def atom():
        tok = peek()
        if tok == "(":
            take("(")
            v = expr()
            take(")")
            return v
        if tok == "-":
            take("-")
            return -atom()
        if tok == "t":
            take("t")
            return RatFun.t()
        if isinstance(tok, int):
            take()
            return RatFun.const(tok)
        raise ValueError(f"parse error in {s!r} at token {tok!r}")

    def power():
        base = atom()
        if peek() == "^":
            take("^")
            e = take()
            if not isinstance(e, int):
                raise ValueError(f"integer exponent expected in {s!r}")
            return base ** e
        return base

    def term():
        v = power()
        while peek() in ("*", "/"):
            op = take()
            rhs = power()
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            v = v + rhs if op == "+" else v - rhs
        return v

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {s!r}")
    return out


def _tokenize(s: str):
    out = []
    i = 0
    s = s.replace("**", "^")
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(int(s[i:j]))
            i = j
        elif c in "()+-*/^":
            out.append(c)
            i += 1
        elif c == "t":
            out.append("t")
            i += 1
        else:
            raise ValueError(f"bad character {c!r} in {s!r}")
    return out
