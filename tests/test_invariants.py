"""Cross-cutting engine invariants on catalog systems."""

import random
from fractions import Fraction

from wcoset import catalog as cat
from wcoset.fields import gen, mode_apply, ope_singular, parity, weight
from wcoset.fock import enumerate_basis
from wcoset.screening import residue_map


def test_mode_apply_respects_grading():
    rng = random.Random(21)
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    exprs = list(spec.generator_map.values()) + [spec.conformal]
    for _ in range(40):
        d = rng.randint(0, 3)
        basis = enumerate_basis(sys, sys.zero_momentum(), d)
        s = basis[rng.randrange(len(basis))]
        e = exprs[rng.randrange(len(exprs))]
        n = rng.randint(-2, 3)
        w = weight(sys, e, s.momentum)
        out = mode_apply(sys, e, n, s)
        for t in out:
            assert sys.state_degree(t) == d + w - n - 1


def test_skew_symmetry_on_catalog_generators():
    """a_(0)b = -(-1)^{p(a)p(b)} b_(0)a modulo translates, on weight-1 pairs."""
    specs = [cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)),
             cat.subregular_realization("so", 2, Fraction(-19, 7), "miura"),
             cat.principal_super_realization("sl", 2, Fraction(3), "miura")]
    for spec in specs:
        sys = spec.system
        names = [sp.name for sp in sys.species]
        for an in names:
            for bn in names:
                a, b = gen(an), gen(bn)
                pab = ope_singular(sys, a, b)
                pba = ope_singular(sys, b, a)
                sgn = -(-1) ** (parity(sys, a) * parity(sys, b))
                # free generators: pole-1 states carry no derivative corrections
                assert pab.get(1, {}) == {k: sgn * v for k, v in pba.get(1, {}).items()}
                assert pab.get(2, {}) == pba.get(2, {})


def test_conformal_field_virasoro_ope():
    """T(z)T(w): central charge 0, pole 2 = 2T, pole 1 = dT; currents primary."""
    from wcoset.fields import deriv, lc_scale, state_of_field
    from wcoset.scalars import T as tvar
    spec = cat.gl11_wakimoto(tvar, Fraction(1, 3))
    sys = spec.system
    tt = spec.conformal
    poles = ope_singular(sys, tt, tt)
    t_state = state_of_field(sys, tt)
    dt_state = state_of_field(sys, deriv(tt))
    assert 4 not in poles and 3 not in poles  # c = 0, no cubic pole
    assert poles.get(2, {}) == lc_scale(t_state, Fraction(2))
    assert poles.get(1, {}) == dt_state
    for name, img in spec.generator_map.items():
        jp = ope_singular(sys, tt, img)
        assert set(jp) <= {1, 2}, name
        assert jp.get(2, {}) == state_of_field(sys, img), name
        assert jp.get(1, {}) == state_of_field(sys, deriv(img)), name


def test_screening_degree_shift_bookkeeping():
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "coset")
    for op in spec.screenings:
        gm = residue_map(op, range(3))
        assert gm.degree_shift == -1
        for d in range(3):
            tgt = enumerate_basis(spec.system, op.target(), d - 1)
            assert len(gm.blocks[d]) == len(tgt)
