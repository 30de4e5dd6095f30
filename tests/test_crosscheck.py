"""Fermionic vs bosonized kernels of the same algebra, sector by sector.

The two free-field realizations of the principal super side cut out the same
algebra: the bc-based screening system and its bosonization, where b, c become
lattice exponentials.  The correspondence sends the lowest charge-m monomial
(b(-1)..b(-m) or c(-1)..c(-|m|)) to the lattice vector |m phi>, so the engine
degrees of matching states differ by m(m+1)/2.  The joint screening kernels
must therefore satisfy, per degree D and charge m,

    dim Ker_fermionic(D, charge m) = dim Ker_bosonized(sector m, D - m(m+1)/2).

The fermionic screenings are charge-homogeneous (the b-prefactor screening
raises charge by 1), so the joint kernel splits over charge and the left side
is computable by restricting sources to fixed-charge columns.  This drives the
whole exponential-operator machinery (momentum-dependent powers, shifts, the
two-cocycle) through actual matrix computations rather than single states.
"""

from fractions import Fraction

import pytest

from wcoset import catalog as cat
from wcoset.fock import enumerate_basis
from wcoset.linalg import rank
from wcoset.screening import ScreeningOp, compose_check, joint_kernel, residue_map

from test_screening import oracle_block


def charge(sys, state):
    b, c = sys.index["b"], sys.index["c"]
    nb = sum(1 for s, _ in state.modes if s == b)
    nc = sum(1 for s, _ in state.modes if s == c)
    return nb - nc


def fermionic_charge_kernel_dims(spec, max_degree, charges):
    """dim of the joint kernel restricted to each bc-charge, per degree."""
    sys = spec.system
    vac = sys.zero_momentum()
    out = {m: [] for m in charges}
    for d in range(max_degree + 1):
        src = enumerate_basis(sys, vac, d)
        cols = {m: [j for j, s in enumerate(src) if charge(sys, s) == m]
                for m in charges}
        # build all screening images once
        images = []
        for op in spec.screenings:
            assert op.source == vac
            images.append(oracle_block(sys, op, d))
        for m in charges:
            sel = cols[m]
            if not sel:
                out[m].append(0)
                continue
            stacked = []
            for M in images:
                for row in M:
                    stacked.append([row[j] for j in sel])
            live = [r for r in stacked if any(x != 0 for x in r)]
            r = rank(live) if live else 0
            out[m].append(len(sel) - r)
    return out


def bosonized_sector_dims(pair, n, ell, sector, degrees):
    spec = cat.principal_super_realization(pair, n, ell, "bosonized")
    sys = spec.system
    src = sys.lattice_momentum((sector,))
    return joint_kernel([residue_map(op.at(src), degrees) for op in spec.screenings],
                        degrees)


def composite_square(s1, s2, degrees):
    """compose_check of s2 after s1, each residue map built once."""
    m1 = residue_map(s1, degrees)
    m2 = residue_map(s2, [d + m1.degree_shift for d in degrees])
    return compose_check(m2, m1)


def test_odd_lattice_screening_squares_to_zero():
    """Odd exponentials with regular self-OPE have vanishing residue squares."""
    # both squares lower the degree by 3 (shifts -1 then -2): out of degrees
    # 0..2 they pass through an empty slice, so only 3..5 are checked
    expect = {0: None, 1: None, 2: None, 3: True, 4: True, 5: True}
    # the fermionizing screening on the two-boson lattice
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "bosonized")
    sys = spec.system
    qx = spec.screenings[0]
    src1 = sys.lattice_momentum((1, 0))
    assert composite_square(qx, qx.at(src1, "Qx'"), range(6)) == expect
    # the rank-one fermion lattice
    sup = cat.principal_super_realization("sl", 2, Fraction(3), "bosonized")
    sysb = sup.system
    b_res = ScreeningOp(sysb, sup.generator_map["b"], sysb.zero_momentum(), None, "b")
    assert b_res.exp.shift == sysb.lattice_momentum((1,))
    b_next = b_res.at(sysb.lattice_momentum((1,)), "b'")
    assert composite_square(b_res, b_next, range(6)) == expect


@pytest.mark.parametrize("pair,n,k2", [("sl", 1, Fraction(4)),
                                       ("sl", 2, Fraction(3)),
                                       ("so", 2, Fraction(-1))])
def test_fermionic_vs_bosonized_kernels(pair, n, k2):
    max_degree = 3
    spec = cat.principal_super_realization(pair, n, k2, "miura")
    charges = range(-3, 3)
    left = fermionic_charge_kernel_dims(spec, max_degree, charges)
    for m in charges:
        off = m * (m + 1) // 2
        degrees = [d - off for d in range(max_degree + 1)]
        right = bosonized_sector_dims(pair, n, k2, m, degrees)
        assert left[m] == right, (pair, n, m, left[m], right)
    # the charge pieces exhaust the full kernel
    full = joint_kernel(
        [residue_map(op, range(max_degree + 1))
         for op in spec.screenings], range(max_degree + 1))
    totals = [sum(left[m][d] for m in charges) for d in range(max_degree + 1)]
    assert totals == full
