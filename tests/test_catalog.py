import itertools
import random
from fractions import Fraction

import pytest

import wcoset
from wcoset import catalog as cat
from wcoset import fock
from wcoset import rootdata as rd
from wcoset.errors import ExcludedLevel, InputError, NonEnumerable, ZeroK1
from wcoset.fields import (Deriv, ExpOp, NormOrd, Scale, Sum, current_gram, direction_of,
                           exp_op, gen, heis_comb, state_of_field)
from wcoset.scalars import RatFun, T


def test_dual_level_examples():
    assert cat.dual_level("sl", 2, Fraction(-14, 5)) == 3
    assert cat.dual_level("so", 2, Fraction(-5, 2)) == -1
    with pytest.raises(ExcludedLevel):
        cat.dual_level("sl", 2, Fraction(-3))


def test_dual_level_involutive():
    rng = random.Random(2)
    for pair in rd.PAIRS:
        for n in (1, 2, 3):
            for _ in range(10):
                k1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                if k1 == -rd.h1(pair, n):
                    continue
                k2 = cat.dual_level(pair, n, k1)
                lv = cat.LevelData.from_k2(pair, n, k2)
                assert lv.k1 == k1
                assert rd.lacity(pair) * (k1 + rd.h1(pair, n)) * (k2 + rd.h2(pair, n)) == 1


def test_dual_level_symbolic():
    k2 = cat.dual_level("sl", 2, T)
    assert (T + 3) * (k2 + 2) == 1


def test_dual_level_maps_x1_to_x2():
    # k2 = x2 exactly when k1 = x1, so excluding S1 on the k1 side suffices
    for pair in rd.PAIRS:
        for n in range(1, 7):
            x1, x2 = cat.degeneracy_constants(pair, n)
            assert cat.dual_level(pair, n, x1) == x2
            lv = cat.LevelData.from_k1(pair, n, x1)
            assert lv.k2 in lv.excluded_sets()["S2"]


def test_degeneracy_constants():
    assert cat.degeneracy_constants("sl", 2) == (Fraction(-3, 2), Fraction(-4, 3))
    assert cat.degeneracy_constants("so", 2) == (Fraction(-2), Fraction(-3, 2))
    assert cat.degeneracy_constants("sl", 1) == (Fraction(0), Fraction(-1, 2))


def test_admissible_levels():
    assert cat.is_admissible_k1("sl", 2, Fraction(-3, 2))
    assert not cat.is_admissible_k1("sl", 2, Fraction(-14, 5))


def test_delta_conformal_values():
    assert cat.delta_conformal(1, 1, Fraction(2), Fraction(0), "minus") == Fraction(7, 8)
    # e = 0 weights always have dimension 0 (the A-type modules)
    assert cat.delta_conformal(0, 0, Fraction(2), Fraction(0), "plus") == 0
    assert cat.delta_conformal(5, 0, Fraction(2), Fraction(7), "minus") == 0
    with pytest.raises(ZeroK1):
        cat.delta_conformal(1, 1, Fraction(0), Fraction(0), "minus")


def test_delta_verma_consistency():
    # the highest Verma at (n, e) is the lowest one at (n-1, e)
    rng = random.Random(4)
    for _ in range(20):
        n = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        e = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        k1 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        k2 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert (cat.delta_conformal(n, e, k1, k2, "plus")
                == cat.delta_conformal(n - 1, e, k1, k2, "minus"))


def test_gl11_screening_direction_isotropic():
    spec = cat.gl11_wakimoto(T, RatFun.const(Fraction(1, 3)))
    sys = spec.system
    op = spec.screenings[0]
    # (alpha|alpha) under the kappa - kappa_2 table vanishes
    acc = 0
    for i in range(2):
        for j in range(2):
            acc = acc + sys.pairing[i][j]
    assert acc == 0
    # the displayed shift T_{-alpha}: zero-mode eigenvalues (-1, +1)
    assert op.exp.shift.values == (Fraction(-1), Fraction(1))


def test_gl11_zero_k1():
    with pytest.raises(ZeroK1):
        cat.gl11_wakimoto(Fraction(0), Fraction(1))


def test_omega_vectors():
    assert rd.omega1_coeffs("sl", 2) == [Fraction(2, 3), Fraction(1, 3)]
    assert rd.omega1_coeffs("so", 3) == [1, 1, 1]
    assert rd.omega0_coeffs("sl", 1) == [Fraction(-2), Fraction(-1)]
    assert rd.omega0_coeffs("so", 2) == [Fraction(-2), Fraction(-2), Fraction(-1)]
    # coweight property: (omega1|alpha_j) = delta_{1j}, (omega0|alpha_j) = delta_{0j}
    for pair in rd.PAIRS:
        for n in (1, 2, 3):
            G1, G2 = rd.g1_gram(pair, n), rd.g2_gram(pair, n)
            w1, w0 = rd.omega1_coeffs(pair, n), rd.omega0_coeffs(pair, n)
            for j in range(n):
                e = [Fraction(i == j) for i in range(n)]
                assert rd.pairing(G1, w1, e) == (1 if j == 0 else 0)
            for j in range(n + 1):
                e = [Fraction(i == j) for i in range(n + 1)]
                assert rd.pairing(G2, w0, e) == (1 if j == 0 else 0)


def test_htilde2_orthogonality():
    """The h~2 displays are pinned by orthogonality to the reduced block."""
    for pair in rd.PAIRS:
        for n in (2, 3):
            G1 = rd.g1_gram(pair, n)
            h = rd.htilde2_g1_coeffs(pair, n)
            a1 = [Fraction(i == 0) for i in range(n)]
            assert rd.pairing(G1, h, a1) == 0
            G2 = rd.g2_gram(pair, n)
            hs = rd.htilde2_g2_coeffs(pair, n)
            b0 = [Fraction(i == 0) for i in range(n + 1)]
            b1 = [Fraction(i == 1) for i in range(n + 1)]
            assert rd.pairing(G2, hs, b0) == 0
            assert rd.pairing(G2, hs, b1) == 0
    # the osp(2|4) delta-term: coefficient -2 on alpha_0, unlike n >= 3
    assert rd.htilde2_g2_coeffs("so", 2)[0] == -2
    assert rd.htilde2_g2_coeffs("so", 3)[0] == -1


def test_coset_gram_sl2_bordermatrix():
    spec = cat.subregular_realization("sl", 2, T, "coset")
    K = T + 3
    expect = [[1 + 0 * K, -K, 0 * K],
              [-K, 2 * K, -K],
              [0 * K, -K, 2 * K]]
    assert [list(r) for r in spec.system.pairing] == expect


def test_coset_gram_so_last_entry():
    spec = cat.subregular_realization("so", 2, T, "coset")
    K = T + 3
    G = spec.system.pairing
    assert G[2][2] == 4 * K       # 2rK with r = 2
    assert G[1][2] == -2 * K      # -rK


def test_coset_gram_equality_all():
    for pair in rd.PAIRS:
        for n in (2, 3):
            sub = cat.subregular_realization(pair, n, T, "coset")
            ell = cat.dual_level(pair, n, T)
            sup = cat.principal_super_realization(pair, n, ell, "coset")
            ga = [[RatFun.const(0) + x for x in row] for row in sub.system.pairing]
            gb = [[RatFun.const(0) + x for x in row] for row in sup.system.pairing]
            assert ga == gb, (pair, n)


def _hand_built_coset_gram(lv, K):
    """The tridiagonal bordered Gram of the subregular coset basis, entry by
    entry, with its n = 1 and lacity special cases."""
    n, r = lv.n, lv.r
    m = n + 1
    G = [[0 * K] * m for _ in range(m)]
    G[0][0] = 1 + 0 * K
    G[0][1] = G[1][0] = -K
    for i in range(1, m):
        G[i][i] = 2 * K
        if 1 <= i < m - 1:
            G[i][i + 1] = G[i + 1][i] = -K
    if n >= 2:
        G[m - 2][m - 1] = G[m - 1][m - 2] = -r * K
    G[m - 1][m - 1] = 2 * r * K
    if n == 1:
        G[0][1] = G[1][0] = -r * K
    return G


def test_coset_gram_matches_hand_built_matrix():
    for pair in rd.PAIRS:
        for n in range(1, 6):
            for k1 in (T, Fraction(16, 7)):
                lv = cat.LevelData.from_k1(pair, n, k1)
                got = cat._coset_gram_alpha(lv, lv.K1)
                want = _hand_built_coset_gram(lv, lv.K1)
                assert ([[(type(x), str(x)) for x in row] for row in got]
                        == [[(type(x), str(x)) for x in row] for row in want]), (pair, n, k1)


def test_super_miura_screening_count():
    spec = cat.principal_super_realization("sl", 2, T, "miura")
    assert len(spec.screenings) == 3
    sub = cat.subregular_realization("sl", 2, T, "miura")
    assert len(sub.screenings) == 2
    assert {sp.name for sp in sub.system.species} == {"beta", "gamma", "a1", "a2"}


def test_beta0_self_pairing():
    for pair in rd.PAIRS:
        spec = cat.principal_super_realization(pair, 2, T, "coset")
        assert spec.system.pairing[0][0] == 1


def test_ks_xy_gram():
    ks = cat.ks_fields("sl", 2, Fraction(3))
    fa = ks.side_a.generator_map
    G = current_gram(ks.side_a.system, [fa["X"], fa["Y"], fa["A1"], fa["A2"]])
    assert G[0][0] == 1 and G[1][1] == -1 and G[0][1] == 0
    assert G[0][2] == G[0][3] == G[1][2] == G[1][3] == 0


def test_ks_an_for_so():
    ks = cat.ks_fields("so", 3, T)
    fa = ks.side_a.generator_map
    # A_n is the bare a_n field; A_1, A_2 carry the lacity factor r = 2
    assert fa["A3"] == gen("a3")
    from wcoset.fields import Scale
    assert isinstance(fa["A2"], Scale) and fa["A2"].coeff == 2


def test_ks_needs_rank2():
    with pytest.raises(InputError):
        cat.ks_fields("sl", 1, Fraction(3))


@pytest.mark.parametrize("pair", rd.PAIRS)
def test_rank_two_floor_refuses_rank_one(pair):
    # h~2 and the Kazama-Suzuki systems read the one rank floor, check_rank(.., 2)
    for build in (rd.htilde2_g1_coeffs, rd.htilde2_g2_coeffs,
                  lambda pair, n: cat.ks_fields(pair, n, Fraction(3))):
        with pytest.raises(InputError, match="rank n must be >= 2"):
            build(pair, 1)
        build(pair, 2)
    with pytest.raises(InputError, match="unknown pair"):
        rd.htilde2_g1_coeffs("sp", 2)


@pytest.mark.parametrize("k1", [Fraction(16, 7), T], ids=str)
@pytest.mark.parametrize("pair,n", [(pair, n) for pair in rd.PAIRS for n in (2, 3)])
def test_ks_sides_are_the_bosonized_systems_and_one_lattice_boson(pair, n, k1):
    """Side A is the super side's bosonized System and psi of norm -1, side B
    the subregular side's and phi of norm 1, orthogonal to the rest."""
    lv = cat.LevelData.from_k1(pair, n, k1)
    ks = cat.ks_fields(pair, n, lv.k2)
    names = {"super": ["phi"] + [f"a{i}" for i in range(n + 1)],
             "subregular": ["x", "y"] + [f"a{i}" for i in range(1, n + 1)]}
    for side, family, boson, norm in ((ks.side_a, "super", "psi", -1),
                                      (ks.side_b, "subregular", "phi", 1)):
        sys, base = side.system, cat.form_system(family, "bosonized", lv)
        m = len(base.species)
        assert [s.name for s in base.species] == names[family]
        assert [s.name for s in sys.species] == names[family] + [boson]
        assert all(s.is_heis for s in sys.species)
        assert [list(row) for row in sys.pairing] == (
            [list(row) + [0] for row in base.pairing] + [[0] * m + [norm]])
        assert sys.lattice_indices == base.lattice_indices + (m,)


def test_form_system_refuses_unknown_names():
    lv = cat.LevelData.from_k1("sl", 2, Fraction(16, 7))
    for family, form in (("bogus", "nonsense"), ("bogus", "bosonized"), ("ks-a", "bosonized"),
                         ("subregular", "nonsense"), ("super", "Miura")):
        with pytest.raises(InputError, match="unknown form"):
            cat.form_system(family, form, lv)
    with pytest.raises(InputError, match="unknown form"):
        cat.subregular_realization("sl", 2, Fraction(16, 7), "nonsense")
    with pytest.raises(InputError, match="unknown form"):
        cat.principal_super_realization("sl", 2, Fraction(16, 7), "nonsense")


def has_weight0_boson_half(sys):
    return any(sp.kind == fock.BOSON_HALF and sp.engine_weight == 0 for sp in sys.species)


def test_counting_systems_are_the_enumerable_registry_forms():
    """The counting catalog names no form of its own: after gl(1|1) and rank 1
    it is, rank by rank, every `_FORMS` entry whose System has no weight-0
    boson half, in registry order within each family, subregular first."""
    keys = [key for key, _ in cat.enumerable_counting_systems()]
    want = ["wakimoto-gl11", "rank1-ff"]
    for pair in rd.PAIRS:
        for n in (2, 3):
            lv = cat.LevelData.from_k1(pair, n, Fraction(-14, 5))
            want += [f"{fam}-{pair}:{n}:{form}" for family in ("subregular", "super")
                     for fam, form in cat._FORMS if fam == family and
                     not has_weight0_boson_half(cat.form_system(fam, form, lv))]
    assert keys == want and len(keys) == 22
    assert not [key for key in keys if key.startswith("subregular-") and key.endswith(":miura")]


@pytest.mark.parametrize("pair", rd.PAIRS)
def test_only_the_subregular_miura_system_is_not_enumerable(pair):
    """Its gamma is a weight-0 boson half, so fock refuses to count its slices."""
    for n in (1, 2, 3):
        lv = cat.LevelData.from_k1(pair, n, Fraction(16, 7))
        for family, form in cat._FORMS:
            sys = cat.form_system(family, form, lv)
            if (family, form) == ("subregular", "miura"):
                assert has_weight0_boson_half(sys)
                with pytest.raises(NonEnumerable):
                    fock.slice_dimension(sys, 0)
            else:
                assert fock.slice_dimension(sys, 0) >= 1


def test_system_is_the_one_constructor():
    assert wcoset.System is fock.System
    assert not hasattr(wcoset, "register_system") and not hasattr(fock, "register_system")


@pytest.mark.parametrize("k1", [Fraction(16, 7), T], ids=str)
@pytest.mark.parametrize("pair", rd.PAIRS)
def test_miura_cartan_tail(pair, k1):
    """Both Miura sides of rank n >= 2 end their generator maps with ht2 and
    h3..hn = a3..an, and each such current u scales the companion S_beta by
    -(beta|u): beta = alpha at Heisenberg position 1 (lower), or the sum of
    those at positions 0 and 1 (upper)."""
    for n in (1, 2, 3):
        lv = cat.LevelData.from_k1(pair, n, k1)
        tail = ["ht2"] + [f"h{i}" for i in range(3, n + 1)] if n >= 2 else []
        sub = cat.subregular_realization(pair, n, lv.k1, "miura")
        sup = cat.principal_super_realization(pair, n, lv.k2, "miura")
        assert list(sub.generator_map) == ["e1", "h1", "f1"] + tail
        assert list(sup.generator_map) == ["E12", "E21", "E11", "E22", "h0", "h1"] + tail
        assert list(sub.covariance) == (["e1", "f1", "h1"] + tail if n >= 2 else [])
        assert list(sup.covariance) == ["E12", "E21", "h0", "h1"] + tail
        for spec, G, htilde2 in ((sub, rd.g1_gram(pair, n), rd.htilde2_g1_coeffs),
                                 (sup, rd.g2_gram(pair, n), rd.htilde2_g2_coeffs)):
            names = [sp.name for sp in spec.system.species if sp.is_heis]
            m = len(names)
            lower, upper = [int(j == 1) for j in range(m)], [int(j < 2) for j in range(m)]
            for u in tail:
                h = (htilde2(pair, n) if u == "ht2" else
                     [int(name == f"a{u[1:]}") for name in names])
                assert spec.generator_map[u] == (heis_comb(names, h) if u == "ht2"
                                                 else gen(f"a{u[1:]}"))
                assert spec.covariance[u] == {"lower": {"lower": -rd.pairing(G, lower, h)},
                                              "upper": {"upper": -rd.pairing(G, upper, h)}}


def test_catalog_keys_resolve():
    for key in cat.catalog_keys():
        spec = cat.get_realization(key, k1=Fraction(-14, 5), k2=None)
        assert spec.system is not None


def test_excluded_levels():
    with pytest.raises(ExcludedLevel):
        cat.subregular_realization("sl", 2, Fraction(-3), "miura")
    with pytest.raises(ExcludedLevel):
        cat.principal_super_realization("sl", 2, Fraction(-2), "miura")


def test_wakimoto_momentum_and_labels():
    spec = cat.gl11_wakimoto(Fraction(2), Fraction(0))
    sys = spec.system
    mu = cat.wakimoto_momentum(sys, Fraction(1), Fraction(0))
    assert mu.values == (Fraction(1), Fraction(0))
    n, e = cat.wakimoto_labels(Fraction(1), Fraction(0))
    assert (n, e) == (Fraction(-1, 2), Fraction(1))


def test_h1_state_shape():
    sub = cat.subregular_realization("sl", 2, Fraction(-14, 5), "miura")
    v = state_of_field(sub.system, sub.distinguished["H1"])
    assert len(v) == 3  # omega coefficients on a1, a2 and the beta-gamma pair


# ---------------------------------------------------------------------------
# lattice labels read off the pairing table
# ---------------------------------------------------------------------------
# Every lattice system of the catalog is an orthogonal sum of norm +-1
# species, so its labels, cocycle and parity follow from the pairing table.
# They are checked here against the general formulas over an integer lattice
# Gram, written out per family as the systems' lattices are V_Z and
# V_{sqrt(-1) Z}.

LATTICE_GRAMS = {"subregular": [[1, 0], [0, -1]], "super": [[1]],
                 "ks-a": [[1, 0], [0, -1]], "ks-b": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}


def gram_cocycle(G, s, m):
    """epsilon(s, m) from the basis table of an integer Gram G: 1 above the
    diagonal, (-1)^(G_ij + G_ii G_jj) below, (-1)^(G_ii (G_ii - 1)/2) on it."""
    e = 0
    for i in range(len(s)):
        e += (G[i][i] * (G[i][i] - 1) // 2) * s[i] * m[i]
        for j in range(i):
            e += (G[i][j] + G[i][i] * G[j][j]) * s[i] * m[j]
    return -1 if e % 2 else 1


def gram_parity(G, label):
    return sum(G[a][b] * x * y for a, x in enumerate(label) for b, y in enumerate(label)) % 2


def exponentials(expr):
    """Every ExpOp in a field expression."""
    if isinstance(expr, ExpOp):
        return [expr]
    if isinstance(expr, Sum):
        return [e for t in expr.terms for e in exponentials(t)]
    if isinstance(expr, NormOrd):
        return exponentials(expr.left) + exponentials(expr.right)
    if isinstance(expr, (Scale, Deriv)):
        return exponentials(expr.expr)
    return []


LATTICE_KEYS = [key for key in cat.catalog_keys()
                if key.endswith(":bosonized") or key.startswith("ks-")]


@pytest.mark.parametrize("k1", [Fraction(-14, 5), T], ids=str)
@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_lattice_labels_follow_from_the_pairing_table(key, k1):
    spec = cat.get_realization(key, k1)
    sys = spec.system
    G = LATTICE_GRAMS[key.rsplit("-", 1)[0]]
    pos = [sys.heis_pos[i] for i in sys.lattice_indices]
    assert [[sys.pairing[p][q] for q in pos] for p in pos] == G
    labels = list(itertools.product(range(-1, 3), repeat=len(G)))
    momenta = [sys.lattice_momentum(label) for label in labels]
    for label, mu in zip(labels, momenta):
        assert [mu.values[p] for p in pos] == [sum(g * x for g, x in zip(row, label))
                                               for row in G]
        assert sys.lattice_label(mu) == label
        assert sys.momentum_parity(mu) == gram_parity(G, label)
    for (s, shift), (m, mu) in itertools.product(zip(labels, momenta), repeat=2):
        assert sys.cocycle(shift, mu) == gram_cocycle(G, s, m), (s, m)
    # the catalog's exponentials, and e^{c phi} on each lattice species
    exps = [op.exp for op in spec.screenings]
    for expr in list(spec.generator_map.values()) + list(spec.companions.values()):
        exps += exponentials(expr)
    assert len(exps) >= (4 if key.endswith(":bosonized") else 0)
    for idx, c in itertools.product(sys.lattice_indices, (1, -1, 2)):
        exps.append(exp_op(sys, Fraction(c), direction_of(sys, {sys.species[idx].name: 1})))
    for exp in exps:
        assert sys.lattice_label(exp.shift) == tuple(exp.coeff * exp.direction[p] for p in pos)
