from fractions import Fraction

import pytest

from wcoset import screening
from wcoset.errors import MomentumMismatch, ResourceBound, ShapeMismatch
from wcoset.fields import direction_of, gen, state_of_field
from wcoset.fock import FockState, heis, register_system
from wcoset.linalg import rank
from wcoset.screening import (ScreeningOp, annihilates, compose_check, joint_kernel,
                              residue_map)

from test_fields import gl11_system, wakimoto_images


def series_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1]):
            if i + j <= n:
                out[i + j] += x * y
    return out


def euler_inv(n):
    """Coefficients of prod (1-q^m)^-1 up to degree n."""
    out = [1] + [0] * n
    for m in range(1, n + 1):
        for d in range(m, n + 1):
            out[d] += out[d - m]
    return out


def gl11_vacuum_character(n):
    """prod (1+q^m)^2 (1-q^m)^-2, the V(gl(1|1)) PBW character."""
    ferm = [1] + [0] * n
    for m in range(1, n + 1):
        nxt = ferm[:]
        for d in range(m, n + 1):
            nxt[d] += ferm[d - m]
        ferm = nxt
    f2 = series_mul(ferm, ferm, n)
    p = euler_inv(n)
    p2 = series_mul(p, p, n)
    return series_mul(f2, p2, n)


def parts_ge2(n):
    """Partitions of d into parts >= 2, for d = 0..n."""
    out = [1] + [0] * n
    for m in range(2, n + 1):
        for d in range(m, n + 1):
            out[d] += out[d - m]
    return out


def test_oracles_fixed_values():
    assert gl11_vacuum_character(3) == [1, 4, 12, 32]
    assert parts_ge2(6) == [1, 0, 1, 1, 2, 2, 4]


def resolution_screening(sys, k1, n_from=0):
    """S: W_{-n alpha} -> W_{-(n+1) alpha} with alpha = chi1 + chi2."""
    lam = direction_of(sys, {"x1": Fraction(1), "x2": Fraction(1)})
    shift = sys.momentum((Fraction(-1), Fraction(1)))
    src = sys.momentum((Fraction(-n_from), Fraction(n_from)))
    return ScreeningOp(sys, -1 / k1, lam, shift, src, prefactor=gen("b"), name="S")


GL11_LEVELS = [(Fraction(7, 2), Fraction(1, 3)), (Fraction(-5, 3), Fraction(4, 7))]


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_degree0_action(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    vac = sys.vacuum()
    assert S.apply({vac: Fraction(1)}) == {}
    c_state = FockState(sys.zero_momentum(), ((sys.index["c"], 1),), 1)
    out = S.apply({c_state: Fraction(1)})
    target_vac = FockState(S.target(), (), 1)
    assert out == {target_vac: Fraction(1)}


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_kernel_dims(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    gm = residue_map(sys, S, range(4))
    report = joint_kernel([gm], range(4))
    assert report.dims == [1, 4, 12, 32]
    # exact linear algebra sanity: rank + kernel = source dimension
    for d in range(4):
        M = gm.blocks[d]
        r = rank(M) if M and M[0] else 0
        assert r + report.dims[d] == gm.source_dims[d]


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_kernel_dim4_matches_character(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    report = joint_kernel([residue_map(sys, S, [4])], [4])
    assert report.dims == [gl11_vacuum_character(4)[4]] == [76]


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_s_compose_s_zero(k1, k2):
    sys = gl11_system(k1, k2)
    s1 = resolution_screening(sys, k1, 0)
    s2 = resolution_screening(sys, k1, 1)
    out = compose_check(sys, s2, s1, range(5))
    assert all(out.values())


def test_compose_check_honours_cap(monkeypatch):
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    s1 = resolution_screening(sys, k1, 0)
    s2 = resolution_screening(sys, k1, 1)

    def no_product(A, B):
        raise AssertionError("composition built despite the cap")

    monkeypatch.setattr(screening, "mat_mul", no_product)
    with pytest.raises(ResourceBound):
        compose_check(sys, s2, s1, range(5), cap=10)


def test_compose_momentum_mismatch():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    s1 = resolution_screening(sys, k1, 0)
    s3 = resolution_screening(sys, k1, 2)
    with pytest.raises(MomentumMismatch):
        compose_check(sys, s3, s1, range(2))


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_screening_annihilates_wakimoto_images(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    rho = wakimoto_images(sys, k1)
    for name, img in rho.items():
        v = state_of_field(sys, img)
        assert annihilates(sys, [S], v), name
    chi_state = {FockState(sys.zero_momentum(), ((sys.index["x1"], 1),), 1): Fraction(1)}
    assert not annihilates(sys, [S], chi_state)


def rank1_system(K):
    return register_system([heis("a")], [[2 * K]])


def rank1_screenings(sys, K):
    lam = direction_of(sys, {"a": Fraction(1)})
    plus = ScreeningOp(sys, Fraction(1), lam, sys.momentum((2 * K,)),
                       sys.zero_momentum(), name="e^a")
    minus = ScreeningOp(sys, -1 / K, lam, sys.momentum((-2,)),
                        sys.zero_momentum(), name="e^(-a/K)")
    return plus, minus


@pytest.mark.parametrize("K", [Fraction(7, 2), Fraction(5, 3)])
def test_rank1_ff_kernels(K):
    sys = rank1_system(K)
    plus, minus = rank1_screenings(sys, K)
    expect = parts_ge2(6)
    for op in (plus, minus):
        gm = residue_map(sys, op, range(7))
        assert joint_kernel([gm], range(7)).dims == expect


def test_joint_kernel_empty_maps():
    K = Fraction(7, 2)
    sys = rank1_system(K)
    report = joint_kernel([], range(5), sys=sys, source=sys.zero_momentum())
    assert report.dims == [1, 1, 2, 3, 5]


def test_joint_kernel_order_and_rescale_invariance():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    lam = direction_of(sys, {"x1": Fraction(1), "x2": Fraction(1)})
    S5 = ScreeningOp(sys, -1 / k1, lam, S.shift, S.source, prefactor=gen("b"))
    gm = residue_map(sys, S, range(3))
    gm5 = residue_map(sys, S5, range(3))
    gm5.blocks = {d: [[5 * x for x in row] for row in M] for d, M in gm5.blocks.items()}
    a = joint_kernel([gm, gm5], range(3)).dims
    b = joint_kernel([gm5, gm], range(3)).dims
    assert a == b == joint_kernel([gm], range(3)).dims


def test_kernel_bases_reduced():
    K = Fraction(7, 2)
    sys = rank1_system(K)
    plus, _ = rank1_screenings(sys, K)
    gm = residue_map(sys, plus, range(4))
    rep = joint_kernel([gm], range(4), with_bases=True)
    for d, dim in zip(rep.degrees, rep.dims):
        assert len(rep.bases[d]) == dim
        for v in rep.bases[d]:
            M = gm.blocks[d]
            if M and M[0]:
                image = [sum(row[j] * v[j] for j in range(len(v))) for row in M]
                assert all(x == 0 for x in image)


def test_shape_mismatch():
    k1, k2 = GL11_LEVELS[0]
    sysa = gl11_system(k1, k2)
    sysb = rank1_system(Fraction(7, 2))
    Sa = resolution_screening(sysa, k1)
    plus, _ = rank1_screenings(sysb, Fraction(7, 2))
    with pytest.raises(ShapeMismatch):
        joint_kernel([residue_map(sysa, Sa, range(2)),
                      residue_map(sysb, plus, range(2))], range(2))
