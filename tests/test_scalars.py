import random
from fractions import Fraction

import pytest

from wcoset import scalars
from wcoset.errors import DegreeTooHigh, DivisionByZero, PoleAtPoint
from wcoset.scalars import (RatFun, T, linear_zeros, parse_rat, poly_add, poly_deg,
                            poly_divmod, poly_gcd, poly_mul, poly_neg, poly_scale, poly_trim)


def test_rat_add():
    assert RatFun.const(Fraction(1, 2)) + RatFun.const(Fraction(1, 3)) == Fraction(5, 6)


def test_cancellation():
    one_over = RatFun.const(1) / (T + 3)
    assert one_over * (T + 3) == 1


def test_sub_mul_chain():
    f = Fraction(2, 3) * (T + 3) - 1
    assert f == (2 * T + 3) / 3
    assert str(f) == "(2*t + 3)/3"


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
    with pytest.raises(DegreeTooHigh):
        linear_zeros(T * T * T + 1)


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


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm on Fraction coefficients: the oracle
    for poly_gcd's pseudo-remainder sequence over Z."""
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def old_canonical(num, den):
    """The constructor's canonical form as it was, with the gcd always taken."""
    num, den = poly_trim(num), poly_trim(den)
    g = euclid_gcd(num, den)
    if g and poly_deg(g) > 0:
        num, _ = poly_divmod(num, g)
        den, _ = poly_divmod(den, g)
    lead = den[-1]
    return poly_scale(num, 1 / lead), poly_scale(den, 1 / lead)


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
            g = poly_gcd(x, y)
            assert g == euclid_gcd(x, y) == poly_gcd(y, x), (x, y)
            assert all(type(c) is Fraction for c in g)
            if y:
                q, r = poly_divmod(x, y)
                assert poly_add(poly_mul(q, y), r) == x and len(r) < len(y)


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
        elif a.den == b.den:
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
            f = RatFun(num, den)
            assert (f.num, f.den) == old_canonical(num, den)
            constant_dens += len(poly_trim(den)) == 1
            zero_nums += not poly_trim(num)
        results = (a + b, a * b, a / b) if b else (a + b, a * b)
        for f, (num, den) in zip(results, raw):
            assert (f.num, f.den) == old_canonical(num, den)
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
    assert (g.num, g.den) == ((Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)), (Fraction(1),))
    zero = RatFun((), (Fraction(5),))
    assert (zero.num, zero.den) == ((), (Fraction(1),))
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
        assert (h.num, h.den) == old_canonical(num, b)
    for divide in (lambda: f / 0, lambda: f / Fraction(0),
                   lambda: Fraction(1) / RatFun.const(0)):
        with pytest.raises(DivisionByZero):
            divide()
    with pytest.raises(AssertionError):
        RatFun((Fraction(1),), (Fraction(1), Fraction(1)))


def test_ratfun_arithmetic_keeps_fraction_coefficients():
    # poly_trim keeps a Fraction coefficient as it is and wraps any other number,
    # so every result holds Fractions only, over a monic denominator
    rng = random.Random(19)

    def coeff():
        n = rng.choice((-3, -2, -1, 1, 2, 3))
        return n if rng.random() < 0.5 else Fraction(n, rng.randint(2, 4))

    def operand():
        num = [coeff() if rng.random() > 0.2 else 0 for _ in range(rng.randint(0, 3))]
        return RatFun(num, [coeff() for _ in range(rng.randint(1, 3))])
    for _ in range(150):
        a, b = operand(), operand()
        results = [a, b, a + b, a - b, a * b, a + 2, 3 * a, a * Fraction(2, 5), -a]
        if b:
            results += [a / b, Fraction(1, 3) / b]
        for f in results:
            assert all(type(c) is Fraction for c in f.num + f.den), f
            assert f.den[-1] == 1
    assert poly_trim((1, Fraction(1, 2), 0, 0)) == (Fraction(1), Fraction(1, 2))
    assert all(type(c) is Fraction for c in poly_trim((1, Fraction(1, 2), 0, 0)))
    f = RatFun((2, 3), (Fraction(1, 2), 2)) * RatFun((Fraction(1, 4), 1), (5,))
    assert str(f) == "(3*t + 2)/10" and type(f.num[0]) is Fraction
