"""Rational functions over Z[t] against the Fraction-coefficient arithmetic
they replaced.

The reference code below is the earlier polynomial arithmetic over Q, kept
here only as an oracle: Fraction-coefficient helpers, the primitive
pseudo-remainder gcd with its round trip through the integers, the monic
canonical form the constructor built, and the integer clearing that printed
it.  A RatFun now stores that cleared form itself, so its ``num``/``den``
must equal ``_integer_cleared(old_canonical(...))`` of the same raw input and
its text must read as before.  A property test checks the canonical form
(int coefficients, coprime over Q, joint content 1, denominator leading
positive, zero as ``()`` over ``(1,)``) on random sums, differences,
products, quotients and inverses, with int and Fraction operands.
"""

import math
import random
from fractions import Fraction

import pytest

from wcoset import scalars
from wcoset.errors import DegreeTooHigh, DivisionByZero, PoleAtPoint
from wcoset.scalars import RatFun, T, linear_zeros, parse_rat


# ---------------------------------------------------------------------------
# Fraction-coefficient reference (test-only oracle)
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_neg(a):
    return tuple(-Fraction(c) for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_scale(a, c):
    if c == 0:
        return ()
    return tuple(Fraction(x) * c for x in a)


def poly_divmod(a, b):
    a, b = poly_trim(a), poly_trim(b)
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


def _primitive(p):
    """The primitive integer polynomial with the roots of a nonzero p: p times
    the lcm of its denominators, divided by the gcd of the numerators."""
    L = math.lcm(*[c.denominator for c in p])
    ints = [c.numerator * (L // c.denominator) for c in p]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def poly_gcd(a, b):
    """Monic gcd, () when both are zero, 1 at once for a nonzero constant, by
    a primitive pseudo-remainder sequence over Z."""
    a, b = poly_trim(a), poly_trim(b)
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


def old_canonical(num, den):
    """The constructor's monic canonical form as it was: coprime over Q, the
    denominator monic."""
    num, den = poly_trim(num), poly_trim(den)
    if len(den) > 1:
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
    if not num:
        return (), (_ONE,)
    lead = den[-1]
    return poly_scale(num, 1 / lead), poly_scale(den, 1 / lead)


def _integer_cleared(num, den):
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


def old_form(num, den):
    """What the Fraction arithmetic stored for num/den, cleared to integers as
    it printed it, and that text."""
    n, d = _integer_cleared(*old_canonical(num, den))
    ns, ds = scalars._poly_str(n), scalars._poly_str(d)
    if d == (1,):
        return (n, d), ns
    return (n, d), f"{f'({ns})' if len(n) > 1 else ns}/{f'({ds})' if len(d) > 1 else ds}"


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm on Fraction coefficients."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def assert_matches_old(f, num, den):
    (n, d), text = old_form(num, den)
    assert (f.num, f.den) == (n, d), (f, num, den)
    assert str(f) == text


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_rat_add():
    assert RatFun.const(Fraction(1, 2)) + RatFun.const(Fraction(1, 3)) == Fraction(5, 6)


def test_cancellation():
    one_over = RatFun.const(1) / (T + 3)
    assert one_over * (T + 3) == 1


def test_sub_mul_chain():
    f = Fraction(2, 3) * (T + 3) - 1
    assert f == (2 * T + 3) / 3
    assert str(f) == "(2*t + 3)/3"
    assert (f.num, f.den) == ((3, 2), (3,))


def test_evaluate():
    f = Fraction(2, 3) * (T + 3) - 1
    assert f(Fraction(-3, 2)) == 0
    g = RatFun.const(1) / (T + 3)
    assert g.evaluate(Fraction(-14, 5)) == 5
    with pytest.raises(PoleAtPoint):
        g.evaluate(-3)


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        T / RatFun.const(0)


def test_linear_zeros():
    assert linear_zeros(Fraction(2, 3) * (T + 3) - 1) == [Fraction(-3, 2)]
    assert linear_zeros(RatFun.const(5)) == []
    assert linear_zeros(T * T) == [0]
    assert linear_zeros((T - 1) * (T + 2)) == [-2, 1]
    assert linear_zeros((2 * T - 1) * (3 * T + 2) / (T + 7)) == [Fraction(-2, 3), Fraction(1, 2)]
    assert linear_zeros(T * T + 1) == linear_zeros(T * T - 2) == []
    with pytest.raises(DegreeTooHigh):
        linear_zeros(T * T * T + 1)


def test_values_read_out_are_fractions():
    # over int coefficients -num[0] / num[1] would be a float, which can still
    # compare equal to the value expected
    zeros = (linear_zeros(2 * T + 3) + linear_zeros(3 * T) + linear_zeros((T - 1) * (T + 2))
             + linear_zeros(T * T) + linear_zeros(Fraction(1, 2) * T - 4))
    assert zeros == [Fraction(-3, 2), 0, -2, 1, 0, 8]
    f = (2 * T + 3) / (T - 5)
    values = [RatFun.const(4).as_rat(), RatFun.const(Fraction(-7, 3)).as_rat(),
              RatFun.const(0).as_rat(), ((T + 1) / (T + 1)).as_rat(),
              f.evaluate(2), f.evaluate(Fraction(1, 3)), f(0), T.evaluate(3),
              RatFun.const(6).evaluate(Fraction(1, 2)), RatFun.const(0)(1)]
    assert values == [4, Fraction(-7, 3), 0, 1, Fraction(-7, 3), Fraction(-11, 14),
                      Fraction(-3, 5), 3, 6, 0]
    assert all(type(x) is Fraction for x in zeros + values)


def _random_ratfun(rng):
    def poly():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
    num = poly()
    den = poly()
    while all(c == 0 for c in den):
        den = poly()
    return RatFun(num, den)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_canonical_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        f = _random_ratfun(rng)
        again = RatFun(f.num, f.den)
        assert (again.num, again.den) == (f.num, f.den)


def test_evaluate_commutes_with_arithmetic():
    rng = random.Random(13)
    for _ in range(40):
        a, b = _random_ratfun(rng), _random_ratfun(rng)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for fn in (lambda u, v: u + v, lambda u, v: u * v):
            try:
                lhs = fn(a, b).evaluate(x)
                rhs = fn(a.evaluate(x), b.evaluate(x))
            except PoleAtPoint:
                continue
            assert lhs == rhs


def test_parse_and_format():
    assert parse_rat("-14/5") == Fraction(-14, 5)
    f = 1 / (T + 3)
    assert f.evaluate(Fraction(-14, 5)) == 5
    assert str(f) == "1/(t + 3)"
    assert str((T * T - 1) / (2 * T + 4)) == "(t^2 - 1)/(2*t + 4)"
    assert (2 * T + 3) / 3 == Fraction(2, 3) * (T + 3) - 1


def test_mixed_fraction_ratfun():
    assert Fraction(1, 2) + T - T == Fraction(1, 2)
    assert (Fraction(2) * T) / T == 2
    assert hash(RatFun.const(Fraction(3, 4))) == hash(Fraction(3, 4))


def test_constant_ratfun_round_trips_to_rat():
    f = RatFun.const(Fraction(5, 3))
    assert f.is_constant() and f.as_rat() == Fraction(5, 3)
    g = (T + 1) / (T + 1)
    assert g.is_constant() and g.as_rat() == 1
    with pytest.raises(ValueError):
        T.as_rat()


def _random_poly(rng, length):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(length)]


# denominators are drawn as products of these, so that two of them are often
# equal, coprime or share a factor
_FACTORS = ((Fraction(1), Fraction(1)), (Fraction(-2, 3), Fraction(2)),
            (Fraction(1, 2), Fraction(0), Fraction(3)), (Fraction(5), Fraction(-1)))


def _random_operand(rng):
    """A random RatFun: a constant, a polynomial, or a non-monic multiple of
    one or two factors over a random numerator; now and then zero."""
    num = _random_poly(rng, rng.randint(1, 3)) if rng.random() > 0.1 else []
    kind = rng.random()
    if kind < 0.2:
        return RatFun(num[:1])
    if kind < 0.4:
        return RatFun(num)
    den = (Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),)
    for _ in range(rng.randint(1, 2)):
        den = poly_mul(den, rng.choice(_FACTORS))
    return RatFun(num, den)


def _random_pair(rng):
    """Two random operands; one time in four the second is built to cancel
    the first in a sum, a product or a quotient."""
    a, b = _random_operand(rng), _random_operand(rng)
    c = poly_trim([Fraction(rng.randint(-2, 2), rng.randint(1, 3))])
    kind = rng.random()
    if kind < 0.1:  # a + b = c
        b = RatFun(poly_add(poly_mul(c, a.den), poly_neg(a.num)), a.den)
    elif kind < 0.2 and a and c:  # a * b = c
        b = RatFun(poly_mul(c, a.den), a.num)
    elif kind < 0.25 and c:  # a / b = 1/c
        b = RatFun(poly_mul(c, a.num), a.den)
    return a, b


def test_poly_gcd_matches_fraction_euclid():
    rng = random.Random(23)
    for _ in range(300):
        common = (Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 4)),)
        for _ in range(rng.randint(0, 3)):  # repeated linear and quadratic factors
            common = poly_mul(common, rng.choice(_FACTORS))
        a, b = (poly_trim(_random_poly(rng, rng.randint(0, 4))) for _ in range(2))
        k = (Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 5)),)  # a nonzero constant
        for x, y in ((a, b), (poly_mul(a, common), poly_mul(b, common)),
                     (poly_mul(a, common), common), (k, poly_mul(b, common)),
                     (common, ()), ((), ())):
            monic = euclid_gcd(x, y)
            assert poly_gcd(x, y) == monic == poly_gcd(y, x), (x, y)
            # over Z: the primitive multiple of the monic gcd, leading positive
            X, Y = (tuple(_primitive(p)) if p else () for p in (x, y))
            g = scalars.poly_gcd(X, Y)
            assert g == scalars.poly_gcd(Y, X) == (tuple(_primitive(monic)) if monic else ())
            assert all(type(c) is int for c in g) and (not g or g[-1] > 0)
            if len(g) > 1:  # a primitive divisor divides exactly over Z
                for P in (X, Y):
                    q = scalars._exact_div(P, g)
                    assert scalars.poly_mul(q, g) == P and all(type(c) is int for c in q)


def test_constructor_matches_old_canonical_form():
    rng = random.Random(17)
    constant_dens = zero_nums = 0
    branches = dict.fromkeys(("constant", "polynomial", "equal dens", "coprime dens",
                              "shared factor", "cancels"), 0)
    for _ in range(400):
        a, b = _random_pair(rng)
        if a.is_constant() or b.is_constant():
            branches["constant"] += 1
        elif len(a.den) == 1 or len(b.den) == 1:
            branches["polynomial"] += 1
        elif euclid_gcd(a.den, ()) == euclid_gcd(b.den, ()):  # equal up to a constant
            branches["equal dens"] += 1
        else:
            branches["coprime dens" if euclid_gcd(a.den, b.den) == (1,)
                     else "shared factor"] += 1
        raw = [(poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den)),
                poly_mul(a.den, b.den)),
               (poly_mul(a.num, b.num), poly_mul(a.den, b.den))]
        if b:
            raw.append((poly_mul(a.num, b.den), poly_mul(a.den, b.num)))
        for num, den in raw:
            assert_matches_old(RatFun(num, den), num, den)
            constant_dens += len(poly_trim(den)) == 1
            zero_nums += not poly_trim(num)
        results = (a + b, a * b, a / b) if b else (a + b, a * b)
        for f, (num, den) in zip(results, raw):
            assert_matches_old(f, num, den)
        branches["cancels"] += not (a.is_constant() and b.is_constant()) and any(
            f.is_constant() for f in results)
    assert constant_dens > 100 and zero_nums > 10
    assert min(branches.values()) >= 20, branches


def test_constant_denominator_skips_gcd(monkeypatch):
    f = RatFun((Fraction(1), Fraction(2)), (Fraction(3), Fraction(1), Fraction(1)))

    def fail(a, b):
        raise AssertionError("poly_gcd called")
    monkeypatch.setattr(scalars, "poly_gcd", fail)
    g = RatFun((Fraction(1), Fraction(2), Fraction(3)), (Fraction(-2),))
    assert (g.num, g.den) == ((-1, -2, -3), (2,))
    zero = RatFun((), (Fraction(5),))
    assert (zero.num, zero.den) == ((), (1,))
    assert RatFun.const(Fraction(3, 4)).as_rat() == Fraction(3, 4)
    assert (Fraction(2, 3) * T + 1) * T == (2 * T * T + 3 * T) / 3
    assert Fraction(1, 2) + RatFun.const(Fraction(1, 3)) == Fraction(5, 6)
    p = T * T - 1
    a, b = f.num, f.den
    for h, num in ((f * Fraction(2, 5), poly_scale(a, Fraction(2, 5))),
                   (3 * f, poly_scale(a, Fraction(3))),
                   (f + Fraction(1, 2), poly_add(a, poly_scale(b, Fraction(1, 2)))),
                   (f + p, poly_add(a, poly_mul(p.num, b))),
                   (p + f, poly_add(a, poly_mul(p.num, b))),
                   (f / Fraction(3, 2), poly_scale(a, Fraction(2, 3))),
                   (f - 2, poly_add(a, poly_scale(b, Fraction(-2))))):
        assert_matches_old(h, num, b)
    for divide in (lambda: f / 0, lambda: f / Fraction(0),
                   lambda: Fraction(1) / RatFun.const(0)):
        with pytest.raises(DivisionByZero):
            divide()
    with pytest.raises(AssertionError):
        RatFun((Fraction(1),), (Fraction(1), Fraction(1)))


# ---------------------------------------------------------------------------
# the canonical form over Z[t]
# ---------------------------------------------------------------------------

def assert_canonical(f):
    """int coefficients, trimmed, coprime over Q, joint content 1, den
    leading positive; zero is () over (1,)."""
    assert all(type(c) is int for c in f.num + f.den), f
    assert f.den and f.den[-1] > 0, f
    assert not f.num or f.num[-1] != 0, f
    if not f.num:
        assert f.den == (1,), f
        return
    assert math.gcd(*f.num, *f.den) == 1, f
    assert len(euclid_gcd(f.num, f.den)) == 1, f


def _raw(x):
    """num, den over Q of a RatFun, an int or a Fraction."""
    return (x.num, x.den) if isinstance(x, RatFun) else (poly_trim((x,)), (_ONE,))


def property_cases(seed, count):
    """(operation, result, raw num, raw den) of random + - * /, inverses and
    mixed int and Fraction operands, on either side; many results constant."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = _random_pair(rng)
        k = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(2, 4))))
        for name, x, y in (("", a, b), ("int/Fraction", a, k), ("int/Fraction", k, a)):
            (an, ad), (bn, bd) = _raw(x), _raw(y)
            yield f"{name}+", x + y, poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd)
            yield f"{name}-", x - y, poly_add(poly_mul(an, bd), poly_neg(poly_mul(bn, ad))), \
                poly_mul(ad, bd)
            yield f"{name}*", x * y, poly_mul(an, bn), poly_mul(ad, bd)
            if y:
                yield f"{name}/", x / y, poly_mul(an, bd), poly_mul(ad, bn)
        if a:
            yield "inverse", 1 / a, a.den, a.num
            yield "inverse", a._inverse(), a.den, a.num
        yield "neg", -a, poly_neg(a.num), a.den


def test_ratfun_arithmetic_keeps_the_canonical_form():
    seen, constants = set(), 0
    for name, f, num, den in property_cases(29, 150):
        assert_canonical(f)
        assert_matches_old(f, num, den)
        seen.add(name)
        if f.is_constant():
            constants += 1
            q = f.as_rat()
            assert f == q and hash(f) == hash(q) == hash(RatFun.const(q))
    assert constants > 300 and len(seen) == 10, (constants, seen)
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice((rng.randint(-10**20, 10**20), Fraction(rng.randint(-50, 50),
                                                               rng.randint(1, 50))))
        c = RatFun.const(q)
        assert_canonical(c)
        assert hash(c) == hash(q) and c == q and c.as_rat() == q
    f = RatFun((2, 3), (Fraction(1, 2), 2)) * RatFun((Fraction(1, 4), 1), (5,))
    assert str(f) == "(3*t + 2)/10" and (f.num, f.den) == ((2, 3), (10,))
