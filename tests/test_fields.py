import dataclasses
import gc
import math
import random
from fractions import Fraction

import pytest

from wcoset import catalog as cat
from wcoset import fields
from wcoset.errors import NonIntegralExponent, NonSymmetric, ResourceBound
from wcoset.fields import (ExpOp, LinComb, NormOrd, _annihilations, current_gram,
                           deriv, gen, direction_of, exp_op, exp_power, l0_apply, lc_add,
                           mode_apply, nord, ope_singular, sadd, scale, state_of_field)
from wcoset.fock import (FockState, System, boson_pair, enumerate_basis, fermion_pair,
                         front_sign, heis, normal_form, register_system, split_modes)
from wcoset.scalars import RatFun, T, sc_is_zero
from wcoset.screening import ScreeningOp, annihilates, residue_map

K1 = T
K2 = RatFun.const(Fraction(1, 3))


def gl11_system(k1=K1, k2=K2):
    b, c = fermion_pair("b", "c")
    p11 = k1 + k2 - 1
    p12 = 1 - k2
    p22 = k2 - k1 - 1
    return register_system([b, c, heis("x1"), heis("x2")],
                           [[p11, p12], [p12, p22]])


def wakimoto_images(sys, k1=K1):
    chi1, chi2 = gen("x1"), gen("x2")
    chi_sum = sadd(chi1, chi2)
    return {
        "E11": sadd(scale(-1, nord(gen("c"), gen("b"))), chi1),
        "E12": gen("b"),
        "E21": sadd(nord(gen("c"), chi_sum), scale(k1, deriv(gen("c")))),
        "E22": sadd(nord(gen("c"), gen("b")), chi2),
    }


def screening_field(op):
    """The field :P E: (E alone without a prefactor) whose (0)-mode is op's
    residue, for the mode_apply oracles."""
    return op.exp if op.prefactor is None else NormOrd(op.prefactor, op.exp)


def conformal_image(sys, k1=K1, k2=K2):
    chi1, chi2 = gen("x1"), gen("x2")
    chi_sum = sadd(chi1, chi2)
    half = Fraction(1, 2)
    return sadd(
        nord(deriv(gen("c")), gen("b")),
        scale((1 - k2) / (2 * k1 * k1), nord(chi_sum, chi_sum)),
        scale(half / k1, sadd(nord(chi1, chi1), scale(-1, nord(chi2, chi2)),
                              deriv(chi_sum))),
    )


def st(sys, *modes, mu=None):
    mu = mu if mu is not None else sys.zero_momentum()
    return FockState(mu, tuple((sys.index[n], d) for n, d in modes))


def test_heis_commutator_mode():
    sys = gl11_system()
    out = mode_apply(sys, gen("x1"), 1, st(sys, ("x1", 1)))
    assert out == {sys.vacuum(): K1 + K2 - 1}


def test_b_zero_mode_on_c():
    sys = gl11_system()
    out = mode_apply(sys, gen("b"), 0, st(sys, ("c", 1)))
    assert out == {sys.vacuum(): Fraction(1)}


def test_state_of_examples():
    sys = gl11_system()
    assert state_of_field(sys, gen("b")) == {st(sys, ("b", 1)): Fraction(1)}
    assert (state_of_field(sys, nord(gen("b"), gen("c")))
            == {st(sys, ("b", 1), ("c", 1)): Fraction(1)})
    assert state_of_field(sys, deriv(gen("x1"))) == {st(sys, ("x1", 2)): Fraction(1)}


def test_ope_bc():
    sys = gl11_system()
    poles = ope_singular(sys, gen("b"), gen("c"))
    assert set(poles) == {1}
    assert poles[1] == {sys.vacuum(): Fraction(1)}
    assert ope_singular(sys, gen("b"), gen("b")) == {}
    assert ope_singular(sys, gen("c"), gen("c")) == {}


def test_wakimoto_ope_E12_E21():
    sys = gl11_system()
    rho = wakimoto_images(sys)
    poles = ope_singular(sys, rho["E12"], rho["E21"])
    assert set(poles) == {1, 2}
    expected1 = {st(sys, ("x1", 1)): Fraction(1), st(sys, ("x2", 1)): Fraction(1)}
    assert poles[1] == expected1
    assert poles[2] == {sys.vacuum(): K1}


def test_wakimoto_full_ope_table():
    """rho is a homomorphism: all 16 pairs match the affine OPE, symbolically."""
    sys = gl11_system()
    rho = wakimoto_images(sys)
    k1, k2 = K1, K2
    # kappa is supersymmetric: antisymmetric on the odd part
    kappa = {("E11", "E11"): k1 + k2, ("E22", "E22"): k2 - k1,
             ("E11", "E22"): -k2, ("E22", "E11"): -k2,
             ("E12", "E21"): k1, ("E21", "E12"): -k1}
    bracket = {("E11", "E12"): {"E12": 1}, ("E12", "E11"): {"E12": -1},
               ("E11", "E21"): {"E21": -1}, ("E21", "E11"): {"E21": 1},
               ("E22", "E12"): {"E12": -1}, ("E12", "E22"): {"E12": 1},
               ("E22", "E21"): {"E21": 1}, ("E21", "E22"): {"E21": -1},
               ("E12", "E21"): {"E11": 1, "E22": 1},
               ("E21", "E12"): {"E11": 1, "E22": 1}}
    names = ["E11", "E12", "E21", "E22"]
    for u in names:
        for v in names:
            poles = ope_singular(sys, rho[u], rho[v])
            expect1 = {}
            for w, cf in bracket.get((u, v), {}).items():
                for s, val in state_of_field(sys, rho[w]).items():
                    expect1[s] = expect1.get(s, 0) + cf * val
            expect1 = {s: v2 for s, v2 in expect1.items() if v2 != 0}
            got1 = poles.get(1, {})
            assert got1 == expect1, (u, v)
            got2 = poles.get(2, {})
            kap = kappa.get((u, v), 0)
            expect2 = {sys.vacuum(): kap} if kap != 0 else {}
            assert got2 == expect2, (u, v)
            assert all(p <= 2 for p in poles)


def test_derivative_rule_property():
    sys = gl11_system()
    rng = random.Random(5)
    basis = enumerate_basis(sys, sys.zero_momentum(), 3)
    exprs = [gen("b"), gen("c"), gen("x1"), nord(gen("c"), gen("b"))]
    for _ in range(25):
        e = exprs[rng.randrange(len(exprs))]
        s = basis[rng.randrange(len(basis))]
        n = rng.randint(-3, 3)
        lhs = mode_apply(sys, deriv(e), n, s)
        rhs = {k: -n * v for k, v in mode_apply(sys, e, n - 1, s).items() if n != 0}
        assert lhs == {k: v for k, v in rhs.items() if v != 0}


def test_l0_vacuum_and_b():
    sys = gl11_system()
    tt = conformal_image(sys)
    assert mode_apply(sys, tt, 1, sys.vacuum()) == {}
    out = l0_apply(sys, tt, st(sys, ("b", 1)))
    assert out == {st(sys, ("b", 1)): Fraction(1)}
    out = l0_apply(sys, tt, st(sys, ("c", 1)))
    assert out == {}


def test_l0_momentum_eigenvalue():
    # weight labels (m1, m2) in the chi-basis: eigenvalues (m1, -m2)
    k1, k2 = Fraction(2), Fraction(0)
    sys = gl11_system(RatFun.const(k1), RatFun.const(k2))
    tt = conformal_image(sys, RatFun.const(k1), RatFun.const(k2))
    m1, m2 = Fraction(1), Fraction(0)
    mu = sys.momentum((m1, -m2))
    e, n = m1 - m2, (m1 + m2) / 2 - 1
    delta = ((1 - k2) / k1 * e * e + 2 * e * n + e) / (2 * k1)
    out = l0_apply(sys, tt, FockState(mu, ((sys.index["c"], 1),)))
    assert out == {FockState(mu, ((sys.index["c"], 1),)): RatFun.const(delta)}


def lattice_L1():
    return register_system(
        [heis("x"), heis("y")],
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]],
        lattice_indices=(0, 1))


def test_current_gram_xy():
    sys = lattice_L1()
    G = current_gram(sys, [gen("x"), gen("y")])
    assert G == [[1, 0], [0, -1]]


def test_current_gram_builds_one_state_per_current(monkeypatch):
    sys = lattice_L1()
    calls = []
    original = fields.state_of_field

    def counted(sys_, expr):
        calls.append(expr)
        return original(sys_, expr)

    monkeypatch.setattr(fields, "state_of_field", counted)
    currents = [gen("x"), gen("y"), sadd(gen("x"), gen("y"))]
    assert current_gram(sys, currents) == [[1, 0, 1], [0, -1, -1], [1, -1, 0]]
    assert calls == currents


def test_current_gram_refuses_an_asymmetric_entry(monkeypatch):
    # perturb x_(1) on the state of y only, the one mode the Gram reads:
    # y_(1) on the state of x stays 0, so the refusal must fire
    sys = lattice_L1()
    y_state = state_of_field(sys, gen("y"))
    original = fields.mode_apply

    def perturbed(sys_, expr, n, arg):
        if expr == gen("x") and n == 1 and arg == y_state:
            return {sys.vacuum(): Fraction(1)}
        return original(sys_, expr, n, arg)

    monkeypatch.setattr(fields, "mode_apply", perturbed)
    with pytest.raises(NonSymmetric, match=r"\(1,0\) != \(0,1\)"):
        current_gram(sys, [gen("x"), gen("y")])


def test_current_gram_refuses_a_pole_at_nonzero_momentum():
    # psi with :psi e^{2 phi}: has the double pole -|2 phi>, a Fock vacuum of
    # another momentum, not the vacuum; it has no Gram coefficient
    ks = cat.ks_fields("sl", 2, Fraction(3))
    sys = ks.side_a.system
    e = exp_op(sys, 2, direction_of(sys, {"phi": 1}))
    j = nord(gen("psi"), e)
    top = FockState(sys.vacuum().momentum + e.shift, ())
    assert top != sys.vacuum()
    assert ope_singular(sys, gen("psi"), j) == {2: {top: -1}}
    with pytest.raises(ValueError, match="not a multiple of the vacuum"):
        current_gram(sys, [gen("psi"), j])


def test_expop_residue_on_vacuum_is_zero():
    sys = lattice_L1()
    op = exp_op(sys, Fraction(1), direction_of(sys, {"x": Fraction(1)}))
    assert op.shift == sys.lattice_momentum((1, 0))
    assert mode_apply(sys, op, 0, sys.vacuum()) == {}


def test_fms_bosonization_opes():
    sys = lattice_L1()
    e_plus = exp_op(sys, Fraction(1), direction_of(sys, {"x": 1, "y": 1}))
    e_minus = exp_op(sys, Fraction(-1), direction_of(sys, {"x": 1, "y": 1}))
    assert (e_plus.shift, e_minus.shift) == (sys.lattice_momentum((1, 1)),
                                             sys.lattice_momentum((-1, -1)))
    beta_img = e_plus
    gamma_img = scale(-1, NormOrd(gen("x"), e_minus))
    poles = ope_singular(sys, beta_img, gamma_img)
    assert set(poles) == {1}
    assert poles[1] == {sys.vacuum(): Fraction(1)}
    assert ope_singular(sys, beta_img, beta_img) == {}
    assert ope_singular(sys, gamma_img, gamma_img) == {}
    # gamma(z) beta(w) ~ -1/(z-w)
    poles = ope_singular(sys, gamma_img, beta_img)
    assert poles[1] == {sys.vacuum(): Fraction(-1)}


def test_boson_fermion_correspondence():
    sys = register_system([heis("phi")], [[Fraction(1)]], lattice_indices=(0,))
    b_img = exp_op(sys, Fraction(1), direction_of(sys, {"phi": 1}))
    c_img = exp_op(sys, Fraction(-1), direction_of(sys, {"phi": 1}))
    assert (b_img.shift, c_img.shift) == (sys.lattice_momentum((1,)),
                                          sys.lattice_momentum((-1,)))
    poles = ope_singular(sys, b_img, c_img)
    assert set(poles) == {1}
    assert poles[1] == {sys.vacuum(): Fraction(1)}
    assert ope_singular(sys, b_img, b_img) == {}
    assert ope_singular(sys, c_img, c_img) == {}
    poles = ope_singular(sys, c_img, b_img)
    assert poles[1] == {sys.vacuum(): Fraction(1)}
    # the images are odd states
    from wcoset.fields import parity
    assert parity(sys, b_img) == 1


def test_skew_symmetry_generators():
    """a_(0)b = -(-1)^{p(a)p(b)} (b_(0)a - d(b_(1)a) + ...) on free generators."""
    sys = gl11_system()
    from wcoset.fields import parity
    names = ["b", "c", "x1", "x2"]
    for an in names:
        for bn in names:
            a, b = gen(an), gen(bn)
            pa, pb = parity(sys, a), parity(sys, b)
            pab = ope_singular(sys, a, b)
            pba = ope_singular(sys, b, a)
            one_ab = pab.get(1, {})
            one_ba = pba.get(1, {})
            sgn = -(-1) ** (pa * pb)
            # for generators the pole-1 states are momentum states, translate-free
            assert one_ab == {k: sgn * v for k, v in one_ba.items()}
            assert pab.get(2) == pba.get(2)


def test_nonintegral_exponent():
    sys = register_system([heis("a")], [[Fraction(7)]])
    op = exp_op(sys, Fraction(1), direction_of(sys, {"a": 1}))
    assert op.shift == sys.momentum((Fraction(7),))
    bad = FockState(sys.momentum((Fraction(7, 2),)), ())
    with pytest.raises(NonIntegralExponent):
        mode_apply(sys, op, 0, bad)


# ---------------------------------------------------------------------------
# oracle: one contraction walk per mode number, test-only
# ---------------------------------------------------------------------------
# fields._annihilations walks a state once for every nonnegative mode of a
# generator.  The two functions below apply one mode at a time, each with its
# own loop; the walk must give their terms for each n, and all of them at once.

def _heis_annihilate(sys: System, idx: int, n: int, state: FockState) -> LinComb:
    """h_(n), n >= 1, on a canonical state (even mover: no signs)."""
    acc = {}
    modes = state.modes
    for i, (s, d) in enumerate(modes):
        if d != n or not sys.species[s].is_heis:
            continue
        coeff = n * sys.pairing_of(idx, s)
        rest = FockState(state.momentum, modes[:i] + modes[i + 1:])
        lc_add(acc, rest, coeff)
    return acc


def _pair_annihilate(sys: System, idx: int, n: int, state: FockState) -> LinComb:
    """Pair-half a_(n), n >= 0: contracts partner modes at depth n+1."""
    acc = {}
    sp = sys.species[idx]
    partner = sys.index[sp.partner]
    odd_passed = 0
    for i, (s, d) in enumerate(state.modes):
        if s == partner and d == n + 1:
            coeff = sys.pair_sign(idx)
            if sp.odd and odd_passed % 2:
                coeff = -coeff
            rest = FockState(state.momentum, state.modes[:i] + state.modes[i + 1:])
            lc_add(acc, rest, Fraction(coeff))
        if sys.species[s].odd:
            odd_passed += 1
    return acc


def _annihilation_oracle(sys, idx, n, state):
    """{(n, remaining modes): (type, str) of the coefficient} of g_(n), n >= 0."""
    if not sys.species[idx].is_heis:
        lc = _pair_annihilate(sys, idx, n, state)
    elif n == 0:
        lc = {}
        lc_add(lc, state, sys.momentum_value(state.momentum, idx))
    else:
        lc = _heis_annihilate(sys, idx, n, state)
    return {(n, t.modes): (type(v), str(v)) for t, v in lc.items()}


def _walk(sys, idx, state, n=None):
    return {key: (type(v), str(v))
            for key, v in _annihilations(sys, idx, state.modes, state.momentum, n).items()}


@pytest.mark.parametrize("k1", [Fraction(7, 2), T], ids=str)
def test_annihilation_walk_matches_one_mode_oracles_gl11(k1):
    # the odd b and c give the odd-passing signs; the shifted sources give
    # nonzero Heisenberg zero modes
    spec = cat.gl11_wakimoto(k1, Fraction(1, 3))
    sys = spec.system
    terms = 0
    for i in range(3):
        mu = cat.wakimoto_shifted_screening(spec, i).source
        for state in _basis(sys, mu, 4):
            top = max((d for _, d in state.modes), default=0)
            for idx in range(len(sys.species)):
                every = {}
                for n in range(top + 2):
                    want = _annihilation_oracle(sys, idx, n, state)
                    assert _walk(sys, idx, state, n) == want, (idx, n, state)
                    every.update(want)
                assert _walk(sys, idx, state) == every, (idx, state)
                terms += len(every)
    assert terms > 1000


def test_annihilation_walk_merges_repeated_partner_modes():
    beta, gamma = boson_pair("beta", "gamma")
    sys = register_system([beta, gamma, heis("a")], [[Fraction(1)]])
    b, g = sys.index["beta"], sys.index["gamma"]
    state = st(sys, ("gamma", 2), ("gamma", 1), ("gamma", 1))
    assert sys.pair_sign(b) == 1
    want = {(1, ((g, 1), (g, 1))): Fraction(1), (0, ((g, 2), (g, 1))): Fraction(2)}
    assert _annihilations(sys, b, state.modes, state.momentum) == want
    assert _annihilations(sys, b, state.modes, state.momentum, 0) == {
        (0, ((g, 2), (g, 1))): Fraction(2)}
    for n in range(3):
        assert _walk(sys, b, state, n) == _annihilation_oracle(sys, b, n, state)


def test_annihilation_walk_drops_zero_terms():
    sys = register_system([heis("a"), heis("h")], [[Fraction(1), Fraction(0)],
                                                   [Fraction(0), Fraction(3)]])
    a = sys.index["a"]
    # a pairs with h to 0, and the momentum is zero: a_(0) and a_(1), a_(2) on
    # the h modes all vanish
    state = st(sys, ("h", 2), ("h", 1))
    assert _annihilations(sys, a, state.modes, state.momentum) == {}
    state = st(sys, ("a", 1), ("h", 2), ("h", 1))
    assert _annihilations(sys, a, state.modes, state.momentum) == {
        (1, state.modes[1:]): Fraction(1)}
    for n in range(3):
        assert _walk(sys, a, state, n) == _annihilation_oracle(sys, a, n, state)


# ---------------------------------------------------------------------------
# oracle: the breadth-first expansion of the vertex operator, test-only
# ---------------------------------------------------------------------------
# The engine evaluates eps T_s z^p E-(z) E+(z) in closed form.  The code below
# builds both exponentials term by term, breadth first with 1/k! bookkeeping,
# and keys states and levels differently; mode_apply must agree with it exactly.

def _direction_annihilate(sys: System, direction, m: int, state: FockState) -> LinComb:
    acc = {}
    for pos, c in enumerate(direction):
        if sc_is_zero(c):
            continue
        idx = sys.heis_indices[pos]
        for s, v in _heis_annihilate(sys, idx, m, state).items():
            lc_add(acc, s, v * c)
    return acc


def _direction_create(sys: System, direction, m: int, state: FockState) -> LinComb:
    acc = {}
    for pos, c in enumerate(direction):
        if sc_is_zero(c):
            continue
        idx = sys.heis_indices[pos]
        out = normal_form(sys, state.momentum, ((idx, m),) + state.modes)
        if out is not None:
            lc_add(acc, out[0], c * out[1])
    return acc


def _exp_plus_table(sys: System, op: ExpOp, state: FockState):
    """exp(-sum (c/m) lambda_(m) z^-m) |state> grouped by the z^-b it carries."""
    table = {0: {state: Fraction(1)}}
    frontier = dict(table[0])
    dmax = sys.state_degree(state)
    k = 1
    while frontier:
        nxt = {}
        for st, coeff in frontier.items():
            b_st = dmax - sys.state_degree(st)
            for m in range(1, dmax - b_st + 1):
                step = _direction_annihilate(sys, op.direction, m, st)
                for s2, v2 in step.items():
                    lc_add(nxt, s2, v2 * coeff * (-op.coeff) / (m * k))
        for s2, v2 in nxt.items():
            b = dmax - sys.state_degree(s2)
            lc_add(table.setdefault(b, {}), s2, v2)
        frontier = nxt
        k += 1
    return table


def _exp_minus_apply(sys: System, op: ExpOp, lc: LinComb, a: int) -> LinComb:
    """Degree-a part of exp(sum (c/m) lambda_(-m) z^m) applied to lc."""
    if a == 0:
        return dict(lc)
    levels = {0: dict(lc)}
    frontier = {st: (v, 0) for st, v in lc.items()}
    k = 1
    while frontier:
        nxt = {}
        for st, (coeff, lvl) in frontier.items():
            for m in range(1, a - lvl + 1):
                step = _direction_create(sys, op.direction, m, st)
                for s2, v2 in step.items():
                    key = s2
                    cur = nxt.get(key)
                    add = v2 * coeff * op.coeff / (m * k)
                    if cur is None:
                        nxt[key] = (add, lvl + m)
                    else:
                        nxt[key] = (cur[0] + add, lvl + m)
        cleaned = {}
        for s2, (v2, lvl) in nxt.items():
            if sc_is_zero(v2) or lvl > a:
                continue
            lc_add(levels.setdefault(lvl, {}), s2, v2)
            cleaned[s2] = (v2, lvl)
        frontier = cleaned
        k += 1
    return levels.get(a, {})


def _expop_mode(sys: System, op: ExpOp, n: int, state: FockState) -> LinComb:
    mu = state.momentum
    p = exp_power(sys, op, mu)
    eps = sys.cocycle(op.shift, mu)
    plus = _exp_plus_table(sys, op, state)
    target_mu = mu + op.shift
    acc = {}
    for b, terms in plus.items():
        a = b - n - 1 - p
        if a < 0:
            continue
        shifted = {}
        for st, v in terms.items():
            lc_add(shifted, FockState(target_mu, st.modes), v)
        for s2, v2 in _exp_minus_apply(sys, op, shifted, a).items():
            lc_add(acc, s2, v2 * eps)
    return acc


def _oracle_compare(monkeypatch, sys, fld, states, modes=(0,)):
    """mode_apply of fld against the oracle on every state; returns #nonzero."""
    nonzero = 0
    for st in states:
        for n in modes:
            got = mode_apply(sys, fld, n, st)
            with monkeypatch.context() as mp:
                mp.setattr(fields, "_expop_mode", _expop_mode)
                want = mode_apply(sys, fld, n, st)
            assert got == want, (fld, n, st)
            nonzero += bool(got)
    return nonzero


def _basis(sys, mu, max_degree):
    return [st for d in range(max_degree + 1) for st in enumerate_basis(sys, mu, d)]


def test_vertex_operator_oracle_gl11_shifted(monkeypatch):
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    for i in range(3):
        op = cat.wakimoto_shifted_screening(spec, i)
        assert op.prefactor == gen("b")
        states = _basis(sys, op.source, 4)
        assert _oracle_compare(monkeypatch, sys, screening_field(op), states) > len(states) // 4


def test_vertex_operator_oracle_lattice_cocycle(monkeypatch):
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "bosonized")
    sys = spec.system
    fld = [screening_field(op) for op in spec.screenings] + [spec.generator_map["gamma"]]
    signs = set()
    for label in ((0, 0), (1, 0)):
        mu = sys.lattice_momentum(label)
        for f in fld:
            signs.add(sys.cocycle(fields.shift_of(sys, f), mu))
            assert _oracle_compare(monkeypatch, sys, f, _basis(sys, mu, 4)) > 0
    assert signs == {1, -1}


def test_vertex_operator_oracle_symbolic_coset(monkeypatch):
    sub = cat.subregular_realization("sl", 2, T, "coset")
    sup = cat.principal_super_realization("sl", 2, cat.dual_level("sl", 2, T), "coset")
    for spec, max_degree in ((sub, 4), (sup, 4)):
        sys = spec.system
        states = _basis(sys, sys.zero_momentum(), max_degree)
        for op in spec.screenings:
            assert _oracle_compare(monkeypatch, sys, screening_field(op), states) > 0


def test_vertex_operator_oracle_repeated_modes(monkeypatch):
    compared = 0
    for K, max_degree in ((Fraction(7, 2), 6), (T, 4)):
        spec = cat.rank1_ff(K)
        sys = spec.system
        for v in (0, 1, -2):
            mu = sys.momentum((Fraction(v),))
            states = _basis(sys, mu, max_degree)
            assert any(len(set(st.modes)) < len(st.modes) for st in states)
            for op in spec.screenings:
                fld = screening_field(op)
                try:
                    exp_power(sys, fld, mu)
                except NonIntegralExponent:
                    continue
                compared += 1
                assert _oracle_compare(monkeypatch, sys, fld, states,
                                       modes=(-1, 0, 1)) > 0
    assert compared == 8


# ---------------------------------------------------------------------------
# the per-System records of exponential operators
# ---------------------------------------------------------------------------
# _expop_mode reads p, eps, the target momentum, the E+ factors and the E- parts
# from a record kept on the System.  A warm System, one that has applied the
# operator before at another momentum or degree, must give what a fresh one does.

def _images(spec, at, max_degree):
    fld, mu = at(spec)
    sys = spec.system
    return [mode_apply(sys, fld, n, st) for st in _basis(sys, mu, max_degree) for n in (0, 1)]


def _warm_equals_fresh(build, runs):
    """Apply each run in order on one warm System; each result must equal the one
    from a System built for that run alone.  A run is (at, max_degree), with
    at(spec) giving the field and the source momentum."""
    warm = build()
    nonzero = 0
    for at, max_degree in runs:
        got = _images(warm, at, max_degree)
        want = _images(build(), at, max_degree)
        assert len(got) == len(want)
        assert all(a == b for a, b in zip(got, want)), max_degree
        nonzero += sum(bool(a) for a in got)
    return nonzero


def test_expop_records_lattice_momenta():
    def build():
        return cat.subregular_realization("sl", 2, Fraction(-14, 5), "bosonized")

    spec = build()
    sys = spec.system
    mu = sys.lattice_momentum((1, 0))
    assert {sys.cocycle(op.exp.shift, mu) for op in spec.screenings} == {1, -1}
    for i in range(len(spec.screenings)):
        def at(label, i=i):
            return lambda s: (screening_field(s.screenings[i]), s.system.lattice_momentum(label))
        # both labels, and each again at a lower degree after warming higher
        runs = [(at((0, 0)), 2), (at((1, 0)), 4), (at((0, 0)), 4), (at((1, 0)), 2),
                (at((0, 0)), 1)]
        assert _warm_equals_fresh(build, runs) > 0


@pytest.mark.parametrize("k1,top", [(Fraction(7, 2), 4), (T, 3)])
def test_expop_records_gl11_shifted_sources(k1, top):
    # S[0..2] share one ExpOp over three source momenta, each with its own p
    def build():
        return cat.gl11_wakimoto(k1, Fraction(1, 3))

    def at(j):
        def field_and_source(spec):
            op = cat.wakimoto_shifted_screening(spec, j)
            return screening_field(op), op.source
        return field_and_source
    runs = [(at(0), top - 1), (at(1), top), (at(2), top), (at(0), top), (at(1), top - 2)]
    assert _warm_equals_fresh(build, runs) > 0


def test_mode_apply_reaches_expop_mode_by_name(monkeypatch):
    # the oracle tests above swap fields._expop_mode in by this name
    seen = []
    real = fields._expop_mode

    def spy(sys, op, n, state):
        seen.append(n)
        return real(sys, op, n, state)

    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    monkeypatch.setattr(fields, "_expop_mode", spy)
    sys = spec.system
    images = [mode_apply(sys, screening_field(spec.screenings[0]), 0, st)
              for st in _basis(sys, sys.zero_momentum(), 2)]
    assert seen and any(images)


# ---------------------------------------------------------------------------
# the Z ring of _images against its field ring
# ---------------------------------------------------------------------------
# On a rational record, _images sums a slice of columns over Z on one
# denominator Z and returns integer entries with Z.  Forced onto the field
# ring, which a RatFun record takes, it sums the same columns one product at a
# time and returns values with Z None; run on the same jobs, every integer
# entry over Z must equal the field ring's value, by type and string.

def _entries(img, Z=None):
    """An image's entries as (type, str) of their values: an integer entry
    over Z is read as a Fraction."""
    assert Z is None or all(type(v) is int for v in img.values())
    return {key: (type(x), str(x)) for key, x in
            ((key, v if Z is None else Fraction(v, Z)) for key, v in img.items())}


def _core_against_field_ring(monkeypatch, sys, cases, max_degree):
    """For each case (name, prefactor, ExpOp, source momentum), build the
    residue map of every slice through max_degree, and apply the ExpOp's
    (0)- and (1)-modes to each state, with every slice of columns also summed
    on the field ring.  Asserts, naming the case, that each column took the Z
    ring and matched; returns each case's number of nonzero columns."""
    real = fields._images
    columns, counts = [], []

    def both(sys, op, rec, cols, nmax, top, S, index=None, memo=None):
        cols = [list(jobs) for jobs in cols]
        Z, got = real(sys, op, rec, cols, nmax, top, S, index, memo)
        rational = rec.zparts is not None and not any(
            isinstance(v, RatFun) for jobs in cols for _, v, _ in jobs)
        # the field ring grows its own parts, so rec's zparts keep pace with
        # rec's parts; it writes through the same index and keeps no memo
        on_field = dataclasses.replace(rec, parts=list(rec.parts), zparts=None)
        no_Z, want = real(sys, op, on_field, cols, nmax, top, S, index)
        assert no_Z is None and len(got) == len(want) == len(cols)
        columns.extend((rational and Z is not None, _entries(g, Z) == _entries(w), bool(g))
                       for g, w in zip(got, want))
        return Z, got

    monkeypatch.setattr(fields, "_images", both)
    for name, prefactor, exp, mu in cases:
        columns.clear()
        op = ScreeningOp(sys, exp, mu, prefactor, name)
        residue_map(op, range(max_degree + 1))
        for d in range(max_degree + 1):
            for st in enumerate_basis(sys, mu, d):
                mode_apply(sys, exp, 0, st)
                mode_apply(sys, exp, 1, st)
        assert columns and all(rational for rational, _, _ in columns), name
        assert all(equal for _, equal, _ in columns), name
        counts.append(sum(nonzero for _, _, nonzero in columns))
    return counts


def _bare_cases(spec, momenta):
    return [(f"{op.name} at {mu}", None, op.exp, mu)
            for op in spec.screenings for mu in momenta]


@pytest.mark.parametrize("k1", [Fraction(15, 7), Fraction(-14, 5)], ids=str)
def test_rational_core_matches_field_helpers_no_prefactor(monkeypatch, k1):
    spec = cat.subregular_realization("sl", 2, k1, "bosonized")
    sys = spec.system
    cases = _bare_cases(spec, [sys.lattice_momentum(label) for label in ((0, 0), (1, 0))])
    assert all(_core_against_field_ring(monkeypatch, sys, cases, 4))
    spec = cat.rank1_ff(k1)
    sys = spec.system
    cases = []
    for name, _, exp, mu in _bare_cases(spec, [sys.momentum((Fraction(v),))
                                               for v in (0, 1, -2)]):
        try:
            exp_power(sys, exp, mu)
        except NonIntegralExponent:
            continue
        cases.append((name, None, exp, mu))
    assert len(cases) >= 3
    assert all(_core_against_field_ring(monkeypatch, sys, cases, 6))


def _gl11_cases(spec, prefactors=()):
    """S[0..2] under their b prefactor, and the bare exponential, over the
    three source momenta; then under each (name, prefactor) given."""
    ops = [cat.wakimoto_shifted_screening(spec, i) for i in range(3)]
    return ([(op.name, op.prefactor, op.exp, op.source) for op in ops]
            + [(f"bare {op.name}", None, op.exp, op.source) for op in ops]
            + [(f"{name} {op.name}", pref, op.exp, op.source)
               for name, pref in prefactors for op in ops])


@pytest.mark.parametrize("k1,k2", [(Fraction(7, 2), Fraction(1, 3)),
                                   (Fraction(-11, 3), Fraction(9, 8))], ids=str)
def test_rational_core_matches_field_helpers_gl11(monkeypatch, k1, k2):
    spec = cat.gl11_wakimoto(k1, k2)
    cases = _gl11_cases(spec)
    assert cases[0][1] == gen("b") and len({mu for *_, mu in cases}) == 3
    assert all(_core_against_field_ring(monkeypatch, spec.system, cases, 4))
    # x1 brings seeds with a denominator, and so does the scale of -3/2 b
    cases = _gl11_cases(spec, [("x1", gen("x1")), ("-3/2 b", scale(Fraction(-3, 2), gen("b")))])
    assert all(_core_against_field_ring(monkeypatch, spec.system, cases[6:], 3))


def test_rational_core_negative_control(monkeypatch):
    # one integer E+ factor off in the record of S[1]; S[0] still matches
    spec = cat.gl11_wakimoto(Fraction(-11, 3), Fraction(9, 8))
    cases = _gl11_cases(spec)
    name, _, exp, mu = cases[1]
    D, zf = fields._expop_record(spec.system, exp, mu).zfactors
    zf[next(iter(zf))] += 1
    with pytest.raises(AssertionError) as failure:
        _core_against_field_ring(monkeypatch, spec.system, cases[:2], 3)
    assert name in str(failure.value) and cases[0][0] not in str(failure.value)


# ---------------------------------------------------------------------------
# packed monomial keys
# ---------------------------------------------------------------------------
# _images keys a monomial by one 8-bit digit per (species, depth), so a product
# of monomials is a sum of keys.  A digit that could pass 255 would carry into
# the next position and alias another monomial: it must be refused instead.

def test_packed_keys_refuse_a_digit_overflow():
    spec = cat.rank1_ff(Fraction(7, 2))
    sys = spec.system
    pk = sys._packing
    h = sys.heis_indices[0]
    full = ((h, 1),) * 255
    assert pk.unpack(pk.pack(full)) == full
    # with one species, 256 h(-1) would carry into the digit of h(-2)
    with pytest.raises(ResourceBound):
        pk.pack(full + ((h, 1),))
    state = FockState(sys.zero_momentum(), ((h, 1),) * 254)
    exp = spec.screenings[0].exp
    rec = fields._expop_record(sys, exp, state.momentum)
    assert rec.p == 0 and list(rec.factors) == [h]
    # the (253)-mode contracts all 254 modes and meets P_0: a kept digit, P_0
    # and no front stay under 256
    assert mode_apply(sys, exp, 253, state) == {
        FockState(rec.target, ()): rec.eps * rec.factors[h] ** 254}
    # the (252)-mode reaches P_1, so a digit could count 254 + 1 + 1 modes
    with pytest.raises(ResourceBound):
        mode_apply(sys, exp, 252, state)


def core(sys, exp, rec, columns):
    """fields._images on columns of jobs (modes, seed, places): each state
    split over rec's contracted species, the bounds read off the jobs."""
    jobs = [[(split_modes(sys._packing, rec.factors, modes), seed, places)
             for modes, seed, places in column] for column in columns]
    return fields._images(sys, exp, rec, jobs, *fields._bounds(jobs, rec.p))


def test_odd_front_ahead_of_a_state_takes_its_sign_or_zero():
    # b is odd; its creation mode put ahead of a state's b modes reorders them
    # with a sign, and repeating one of them gives zero
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    op = spec.screenings[0]
    exp = op.exp
    rec = fields._expop_record(sys, exp, op.source)
    b = sys.index["b"]

    def image(front, modes):
        # the (-1 - p)-mode meets P_0 with every mode of the state kept
        Z, (img,) = core(sys, exp, rec, [[(modes, 1, ((-1 - rec.p, front),))]])
        return {key: Fraction(v, Z) for key, v in img.items()}

    key = sys._packing.pack(((b, 2), (b, 1)))
    assert image((b, 2), ((b, 1),)) == {key: 1}
    assert image((b, 1), ((b, 2),)) == {key: -1}
    assert image((b, 1), ((b, 1),)) == {}
    assert image((b, 2), ((b, 2),)) == {}


def test_odd_front_repeating_a_mode_adds_nothing_among_shared_places():
    # a slice's front places are built once and shared by its states: on a
    # state holding b(-1), the place whose front is b(-1) has sign 0 and adds
    # nothing, and the job's other place still counts
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    exp = spec.screenings[0].exp
    rec = fields._expop_record(sys, exp, spec.screenings[0].source)
    b = sys.index["b"]
    modes = ((b, 1),)
    places = ((-2 - rec.p, (b, 1)), (-1 - rec.p, (b, 2)))
    assert front_sign(sys, (b, 1), modes) == 0

    def image(places):
        Z, (img,) = core(sys, exp, rec, [[(modes, 1, places)]])
        return {key: Fraction(v, Z) for key, v in img.items()}

    assert image(places[:1]) == {}
    assert image(places) == image(places[1:]) == {sys._packing.pack(((b, 2), (b, 1))): 1}


def test_heisenberg_zero_mode_reads_the_momentum():
    # x1_(0) on modes over mu is mu's x1 value, a term of its own beside the
    # contractions; through residue_images it seeds the E_(-1) job of :x1 E:
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    op = cat.wakimoto_shifted_screening(spec, 2)
    x1, x2 = sys.index["x1"], sys.index["x2"]
    modes, mu = ((x1, 2), (x2, 1)), op.source
    assert sys.momentum_value(mu, x1) == -2
    contractions = {(2, ((x2, 1),)): 2 * sys.pairing_of(x1, x1),
                    (1, ((x1, 2),)): sys.pairing_of(x1, x2)}
    assert all(contractions.values())
    assert _annihilations(sys, x1, modes, mu) == {(0, modes): Fraction(-2), **contractions}
    assert _annihilations(sys, x1, modes, mu, 0) == {(0, modes): Fraction(-2)}
    assert _annihilations(sys, x1, modes, sys.zero_momentum()) == contractions
    x1_op = ScreeningOp(sys, op.exp, mu, gen("x1"))
    Z, (img,) = fields.residue_images(x1_op, [[(modes, 1)]])
    got = {FockState(op.target(), sys._packing.unpack(k)): Fraction(v, Z) for k, v in img.items()}
    want = mode_apply(sys, nord(gen("x1"), op.exp), 0, FockState(mu, modes))
    assert got == want and want
    # on |mu> itself the x1_(0) term is the whole residue: -2 eps |mu + s>
    Z, (img,) = fields.residue_images(x1_op, [[((), 1)]])
    eps = fields._expop_record(sys, op.exp, mu).eps
    assert {k: Fraction(v, Z) for k, v in img.items()} == {0: -2 * eps}
    assert mode_apply(sys, nord(gen("x1"), op.exp), 0, FockState(mu, ())) == {
        FockState(op.target(), ()): -2 * eps}


# ---------------------------------------------------------------------------
# the suffix-image core against the E+ table it replaced
# ---------------------------------------------------------------------------
# ref_images is the earlier body of fields._images: per state the whole E+
# table {(b, kept modes): coefficient}, each term times the E- part it meets.
# Run on the same columns, the core must give the same Z and every entry,
# by type and string, its keys read through the call's index.

def ref_expop_plus(pk, factors: dict, D, modes: tuple, seed) -> dict:
    """E+ on a state: {(b, packed kept modes): coefficient} of its terms at z^-b.

    Each Heisenberg mode h_s(-d) with a factor is kept, or contracted for
    factors[s] z^-d; other modes are kept.  `seed` is the coefficient of the
    state (eps and any sign ride on it).  Over Z, ref_images passes the integer
    factors D f, and a kept mode is multiplied by D, so every term stands for
    its value times D^(number of modes)."""
    plus = {(0, 0): seed}
    for mode in modes:
        f, w = factors.get(mode[0]), pk[mode]
        if f is None:
            plus = {(b, kept + w): v if D == 1 else v * D for (b, kept), v in plus.items()}
            continue
        nxt = {}
        for (b, kept), v in plus.items():
            key = (b, kept + w)
            v_kept = v if D == 1 else v * D
            old = nxt.get(key)
            nxt[key] = v_kept if old is None else old + v_kept
            key = (b + mode[1], kept)
            old = nxt.get(key)
            nxt[key] = v * f if old is None else old + v * f
        plus = nxt
    return plus


def ref_images(sys, op, rec, columns) -> tuple:
    """Vertex-operator images over rec.target of a list of columns, each a
    list of jobs: (Z, per column a dict from packed key to nonzero entry).

    A job (modes, seed, places) asks, for each (n, front) of places, for the
    (n)-mode image of a canonical state with the creation mode `front` (or
    None) put ahead.  E+ terms at z^-b meet the E- part a = b - n - 1 - p, a
    product of monomials being a sum of keys.  E+ and E- touch only even
    Heisenberg modes, so the sign is that of front ahead of the state (0 when
    it repeats an odd mode), read off the canonical state by front_sign.  The
    ring is chosen once per call.  Over Z an E+ term stands for its value
    times D^nmax, the parts through the call's top carry their lcm
    denominator Q and the seeds theirs, S, so Z = D^nmax Q S serves the call
    and an entry is an integer, its value times Z; over the field every scale
    is 1, an entry is its value and Z is None.
    """
    pk = sys._packing
    jobs = [job for column in columns for job in column]
    seeds = [v for _, v, _ in jobs]
    field = rec.zparts is None or any(isinstance(v, RatFun) for v in seeds)
    D, factors = (1, rec.factors) if field else rec.zfactors
    S = 1 if field else math.lcm(*[v.denominator for v in seeds])
    nmax = max((len(modes) for modes, _, _ in jobs), default=0)
    tables, top = [], -1
    for modes, v, places in jobs:
        v = v if field else v.numerator * (S // v.denominator) * D ** (nmax - len(modes))
        tables.append((modes, ref_expop_plus(pk, factors, D, modes, v), places))
        if places:
            top = max(top, max(tables[-1][1])[0] - min(places)[0] - 1 - rec.p)
    # a digit of an image counts a kept mode, one of P_a's and the front
    pk.check(nmax + top + 1)
    # the parts on the field, put over Z here apart from the core's own Z
    # parts: each over the lcm L_a of the denominators of P_0..P_a
    fields._grow_parts(sys, op, rec, top, True)
    parts = rec.parts[:top + 1]
    if not field:
        L, zparts = 1, []
        for _, part in parts:
            L = math.lcm(L, *[w.denominator for w in part.values()])
            zparts.append((L, {key: w.numerator * (L // w.denominator)
                               for key, w in part.items()}))
        parts = zparts
    Q = parts[-1][0] if parts else 1
    Z, scales = D ** nmax * Q * S, [Q // L for L, _ in parts]
    negated = [-x for x in scales]
    out, tables = [], iter(tables)
    for column in columns:
        acc = {}
        # zip stops at the end of the column before drawing from tables
        for _, (modes, plus, places) in zip(column, tables):
            for n, front in places:
                mults, base = scales, 0
                if front is not None:
                    sign = front_sign(sys, front, modes)
                    if not sign:
                        continue
                    mults, base = scales if sign == 1 else negated, pk[front]
                b0 = n + 1 + rec.p
                for (b, kept), v in plus.items():
                    a = b - b0
                    if a < 0:
                        continue
                    m = v if mults[a] == 1 else v * mults[a]
                    kept += base
                    for key, w in parts[a][1].items():
                        key += kept
                        t = m * w
                        old = acc.get(key)
                        acc[key] = t if old is None else old + t
        out.append(acc)
    return None if field else Z, [{key: s for key, s in acc.items() if s} for acc in out]


def _against_ref(monkeypatch, run, perturb=False):
    """Call run() with every fields._images call also made by ref_images on
    the same columns, asserting equal Z and entries; with perturb, the core
    is given one integer contraction factor off by one.  Returns the number
    of nonzero columns compared."""
    real, nonzero = fields._images, []

    def both(sys, op, rec, cols, nmax, top, S, index=None, memo=None):
        cols = [list(jobs) for jobs in cols]
        # ref_images reads each job's modes, not their split
        Z_ref, want = ref_images(sys, op, rec, [[(st[0], seed, places) for st, seed, places in jobs]
                                                for jobs in cols])
        if perturb and rec.zparts is not None:
            D, zf = rec.zfactors
            s = next(iter(zf))
            rec = dataclasses.replace(rec, zfactors=(D, {**zf, s: zf[s] + 1}))
        Z, got = real(sys, op, rec, cols, nmax, top, S, index, memo)
        assert Z == Z_ref and len(got) == len(want) == len(cols)
        keys = fields._PACKED if index is None else index
        for g, w in zip(got, want):
            assert _entries(g) == _entries({keys[k]: x for k, x in w.items()})
        nonzero.append(sum(map(bool, got)))
        return Z, got

    with monkeypatch.context() as m:
        m.setattr(fields, "_images", both)
        run()
    return sum(nonzero)


def test_core_matches_ref_images_on_the_golden_maps(monkeypatch):
    from test_screening import _golden_cases
    for name, (sys, ops, degrees) in _golden_cases().items():
        assert _against_ref(monkeypatch, lambda: [residue_map(op, degrees) for op in ops]), name


def test_core_matches_ref_images_on_the_gl11_chain(monkeypatch):
    # S[-2..3] carry the odd prefactor b, so every first sum has odd fronts
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    ops = [cat.wakimoto_shifted_screening(spec, j) for j in range(-2, 4)]
    assert {op.prefactor for op in ops} == {gen("b")} and sys.odd_flags[sys.index["b"]]
    assert _against_ref(monkeypatch, lambda: [residue_map(op, range(5)) for op in ops]) > 100


@pytest.mark.parametrize("K", [Fraction(7, 2), T], ids=str)
def test_core_matches_ref_images_rank1(monkeypatch, K):
    spec = cat.rank1_ff(K)
    sys = spec.system
    ops = []
    for v in (0, 1, -2):
        for op in spec.screenings:
            try:
                exp_power(sys, op.exp, sys.momentum((Fraction(v),)))
            except NonIntegralExponent:
                continue
            ops.append(op.at(sys.momentum((Fraction(v),))))
    assert len(ops) >= 2
    assert _against_ref(monkeypatch, lambda: [residue_map(op, range(7)) for op in ops]) > 0


def test_core_matches_ref_images_on_annihilated_vectors(monkeypatch):
    # homogeneous vectors with Fraction coefficients, and the images of the
    # generators, which the screening kills
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    rng = random.Random("annihilates")
    vectors = [state_of_field(sys, img) for img in spec.generator_map.values()]
    for d in (1, 2, 3):
        states = enumerate_basis(sys, sys.zero_momentum(), d)
        vectors += [{s: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
                     for s in rng.sample(states, 3)} for _ in range(4)]
    killed = []
    assert _against_ref(monkeypatch, lambda: killed.extend(
        annihilates(spec.screenings, v) for v in vectors)) > 0
    assert killed[:len(spec.generator_map)] == [True] * len(spec.generator_map)
    assert not all(killed)


def test_core_matches_ref_images_in_mode_apply(monkeypatch):
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "bosonized")
    sys = spec.system
    mu = sys.lattice_momentum((1, 0))
    states = [s for d in range(4) for s in enumerate_basis(sys, mu, d)]
    exps = [op.exp for op in spec.screenings]
    assert _against_ref(monkeypatch, lambda: [mode_apply(sys, exp, n, st) for exp in exps
                                              for n in range(-3, 3) for st in states]) > 0


def test_ref_images_comparison_negative_control(monkeypatch):
    # one integer contraction factor off by one in the core: the comparison fails
    spec = cat.gl11_wakimoto(Fraction(-11, 3), Fraction(9, 8))
    op = cat.wakimoto_shifted_screening(spec, 1)
    with pytest.raises(AssertionError):
        _against_ref(monkeypatch, lambda: residue_map(op, range(4)), perturb=True)
    assert _against_ref(monkeypatch, lambda: residue_map(op, range(4))) > 0


# ---------------------------------------------------------------------------
# no reference cycles
# ---------------------------------------------------------------------------
# A memo of suffix images held by a recursive closure is a reference cycle:
# every map would leave garbage that only the cycle collector frees.

def test_residue_maps_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        lv = cat.LevelData.from_k1("sl", 2, Fraction(15, 7))
        maps = [residue_map(op, range(6))
                for spec in (cat.subregular_realization("sl", 2, lv.k1, "coset"),
                             cat.principal_super_realization("sl", 2, lv.k2, "coset"))
                for op in spec.screenings]
        gl11 = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
        maps.append(residue_map(cat.wakimoto_shifted_screening(gl11, 1), range(4)))
        symbolic = cat.get_realization("subregular-sl:2:coset", T)
        maps.append(residue_map(symbolic.screenings[0], range(4)))
        assert all(any(c for _, columns, _ in gm.slices.values() for c in columns)
                   for gm in maps)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
