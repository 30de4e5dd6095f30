import random
from fractions import Fraction

import pytest

from wcoset import catalog as cat
from wcoset import fields, fock, screening
from wcoset import verify as ver
from wcoset.errors import ResourceBound
from wcoset.fields import (current_gram, gen, ope_singular, scale, state_of_field,
                           vacuum_coefficient)
from wcoset.scalars import RatFun, T
from wcoset.screening import annihilates

from test_fock import recursive_mode_sets, signature


def test_homomorphism_sl2_wakimoto_symbolic():
    rep = ver.check_homomorphism(cat.subregular_realization("so", 3, T, "miura"))
    assert rep.status == "pass"


def test_covariance_super_rank1():
    # sl(1|2): the N=2-algebra-side screening family transforms correctly
    rep = ver.check_screening_covariance(
        cat.principal_super_realization("sl", 1, T, "miura"))
    assert rep.status == "pass" and len(rep.items) == 8


def test_level_data_validates_relation():
    import pytest as _pytest
    with _pytest.raises(cat.ExcludedLevel):
        cat.LevelData("sl", 2, Fraction(1), Fraction(1))


def test_covariance_negative_control():
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "miura")
    assert ver.check_screening_covariance(spec).status == "pass"
    assert ver.check_screening_covariance(spec, perturb="flip-companion").status == "fail"


def test_resolution_report():
    # the (7/2, 1/3) report is acceptance criterion 3's battery row
    with pytest.raises(ver.ZeroK1):
        ver.check_resolution(Fraction(0), Fraction(1, 3))


def test_check_resolution_honours_cap(monkeypatch):
    # the cap bounds every residue map of the chain, so an oversized slice
    # raises before any composition is built
    def no_product(a_cols, b_cols):
        raise AssertionError("composition built despite the cap")

    monkeypatch.setattr(screening, "product_vanishes", no_product)
    with pytest.raises(ResourceBound):
        ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 3, 2, cap=10)


def test_checks_never_read_dense_blocks(monkeypatch):
    # residue slices stay sparse from the build to rank and product: the
    # dense GradedMap.blocks view is for reading, and no check reads it
    def dense(self):
        raise AssertionError("a check read GradedMap.blocks")

    monkeypatch.setattr(screening.GradedMap, "blocks", property(dense))
    with pytest.raises(AssertionError, match="read GradedMap.blocks"):
        screening.residue_map(cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)).screenings[0],
                              [1]).blocks
    assert ver.check_coset_duality("sl", 2, Fraction(16, 7), 4).status == "pass"
    assert ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 3, 2).status == "pass"
    assert ver.full_battery(random.Random(1)).status == "pass"


def test_residue_slices_build_no_fock_state(monkeypatch):
    # a residue slice is read off the slice table: with enumerate_basis and
    # FockState construction refused, coset duality runs whole, and so do the
    # residue maps of the resolution (its annihilation checks apply the
    # generators to states, so there FockState is refused inside the maps)

    def refused(*args, **kwargs):
        raise AssertionError("refused")

    dual = ver.check_coset_duality("so", 3, Fraction(16, 7), 4, symbolic=False)
    res = ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 3, 2)
    monkeypatch.setattr(fock, "enumerate_basis", refused)
    monkeypatch.setattr(screening, "enumerate_basis", refused)
    real_map = ver.residue_map

    def guarded_map(*args):
        with monkeypatch.context() as m:
            m.setattr(fock.FockState, "__init__", refused)
            return real_map(*args)

    monkeypatch.setattr(ver, "residue_map", guarded_map)
    assert ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 3, 2) == res
    monkeypatch.setattr(fock.FockState, "__init__", refused)
    assert ver.check_coset_duality("so", 3, Fraction(16, 7), 4, symbolic=False) == dual
    assert dual.status == res.status == "pass"
    # the guard bites: the symbolic Gram check applies currents to states
    with pytest.raises(AssertionError, match="refused"):
        ver.check_coset_duality("so", 3, Fraction(16, 7), 1)


def test_symbolic_gram_check_builds_systems_alone(monkeypatch):
    # the pairing tables and the engine Gram read only the coset Systems: a
    # realization at t is built only when kernels over Q(t) are asked for
    def rational_only(build):
        def checked(pair, n, k, form="miura"):
            if isinstance(k, RatFun):
                raise AssertionError("a realization at t was built")
            return build(pair, n, k, form)
        return checked

    for name in ("subregular_realization", "principal_super_realization"):
        monkeypatch.setattr(cat, name, rational_only(getattr(cat, name)))
    rep = ver.check_coset_duality("sl", 2, Fraction(16, 7), 2)
    assert [i.id for i in rep.items] == ["gram equality (symbolic K)",
                                         "engine gram = table (symbolic)"]
    assert rep.status == "pass"
    with pytest.raises(AssertionError, match="realization at t"):
        ver.check_coset_duality("sl", 2, Fraction(16, 7), 2, symbolic_kernels=2)


def test_check_resolution_builds_one_map_per_screening(monkeypatch):
    built = []
    original = ver.residue_map

    def counted(op, degrees, cap=None, memo=None):
        built.append((op.name, list(degrees)))
        return original(op, degrees, cap, memo)

    monkeypatch.setattr(ver, "residue_map", counted)
    rep = ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 3, 2)
    assert rep.status == "pass"
    # terms + 1 maps; every gl(1|1) degree shift is 0
    assert built == [(f"S[{i}]", [0, 1, 2, 3, 4]) for i in range(3)]


def test_check_resolution_to_degree_5():
    # the chain S[0..2] through degree 6, the kernel of S[0] to degree 5
    rep = ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 5, 2)
    assert rep.status == "pass"
    assert [(p.degree, p.dim_right) for p in rep.per_degree] == list(
        enumerate([1, 4, 12, 32, 76, 168]))


def test_check_resolution_fails_a_vacuous_composition(monkeypatch):
    monkeypatch.setattr(ver, "compose_check", lambda m2, m1: {d: None for d in m1.blocks})
    rep = ver.check_resolution(Fraction(7, 2), Fraction(1, 3), 1, 1)
    assert [(i.id, i.computed) for i in rep.items if i.id.startswith("S.S")] == [
        ("S.S=0 on W[-0a]..W[-2a]", "fail")]
    assert rep.status == "fail"


def test_coset_duality_excluded():
    with pytest.raises(cat.ExcludedLevel):
        ver.check_coset_duality("sl", 2, Fraction(-3, 2))  # x1


def test_coset_duality_symbolic_kernels():
    rep = ver.check_coset_duality("so", 2, Fraction(-5, 2), max_degree=3,
                                  symbolic_kernels=3)
    assert rep.status == "pass"
    item = [i for i in rep.items if i.id == "symbolic kernel dims agree"][0]
    assert item.expected == "[1, 0, 1, 1]"


def test_symbolic_elimination_cap():
    from wcoset.errors import ResourceBound
    from wcoset.linalg import rank
    from wcoset.scalars import T
    M = [[T if i == j else T * 0 for j in range(65)] for i in range(65)]
    with pytest.raises(ResourceBound):
        rank(M)


def test_symbolic_kernels_width_fails_fast(monkeypatch):
    from wcoset.errors import ResourceBound

    def no_map(*args, **kwargs):
        raise AssertionError("residue map built despite the symbolic width limit")

    monkeypatch.setattr(ver, "residue_map", no_map)
    with pytest.raises(ResourceBound, match="symbolic elimination limited to 64 columns"):
        ver.check_coset_duality("so", 2, Fraction(7, 3), max_degree=5, symbolic=False,
                                symbolic_kernels=5)


def assert_duality_dims(pair, n, dims):
    rep = ver.check_coset_duality(pair, n, Fraction(16, 7), len(dims) - 1)
    assert rep.status == "pass"
    assert [p.degree for p in rep.per_degree] == list(range(len(dims)))
    assert [p.dim_left for p in rep.per_degree] == dims
    assert [p.dim_right for p in rep.per_degree] == dims


# the highest degrees any test reaches, so a slower rank shows here: the
# stacked slices are tall, so their rank is taken on the columns

def test_coset_duality_sl2_to_degree_7():
    assert_duality_dims("sl", 2, [1, 0, 1, 2, 4, 6, 12, 18])


def test_coset_duality_so3_to_degree_6():
    assert_duality_dims("so", 3, [1, 0, 1, 1, 3, 3, 7])


def test_coset_duality_sl3_to_degree_7():
    # the degree-7 slice is 2296 x 1240 a side
    assert_duality_dims("sl", 3, [1, 0, 1, 2, 4, 6, 12, 18])


def test_coset_duality_symmetric_sides():
    """Swapping which side is enumerated first never changes the dims."""
    lv = cat.LevelData.from_k1("so", 2, Fraction(-5, 2))
    sub = cat.subregular_realization("so", 2, lv.k1, "coset")
    sup = cat.principal_super_realization("so", 2, lv.k2, "coset")
    from wcoset.screening import joint_kernel, residue_map
    degrees = range(4)
    dims = {}
    for order in ("lr", "rl"):
        specs = (sub, sup) if order == "lr" else (sup, sub)
        got = []
        for spec in specs:
            maps = [residue_map(op, degrees) for op in spec.screenings]
            got.append(joint_kernel(maps, degrees))
        dims[order] = got
    assert dims["lr"][0] == dims["rl"][1]
    assert dims["lr"][1] == dims["rl"][0]


def test_coset_currents_annihilated():
    for pair in ("sl", "so"):
        rep = ver.check_coset_currents(pair, 2, Fraction(-14, 5)
                                       if pair == "sl" else Fraction(-19, 7))
        assert rep.status == "pass", [i.id for i in rep.items if not i.equal]


def test_h1_single_state_not_screening_closed():
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "miura")
    sys = spec.system
    one = state_of_field(sys, gen("a1"))
    assert not annihilates(spec.screenings, one)


def test_ks_symbolic_and_negative():
    # the symbolic checks are acceptance criterion 9's battery rows
    assert ver.check_ks("sl", 2, Fraction(3), perturb="drop-psi").status == "fail"


def test_character_oracle_examples():
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    assert ver.character_oracle(spec.system, 3) == [2, 8, 24, 64]
    sup = cat.principal_super_realization("sl", 2, Fraction(3), "coset")
    assert ver.character_oracle(sup.system, 4) == [1, 3, 9, 22, 51]
    from wcoset.fock import register_system
    empty = register_system([], [])
    assert ver.character_oracle(empty, 4) == [1, 0, 0, 0, 0]


def test_counting_consistency_small():
    rep = ver.check_counting(max_degree=4)
    assert rep.status == "pass"


def count_one_tuple_short(monkeypatch):
    """check_counting(8) with one mode tuple dropped from entry (0, 3) of every
    slice table.  A fresh registry is patched in first, so a warm table cannot
    serve an intact entry."""
    monkeypatch.setattr(fock, "_BASES", {})
    build = fock._mode_sets

    def one_tuple_short(sys, degree, k=0):
        if (k, degree) == (0, 3) and (0, 3) not in sys._slices:
            sys._slices[0, 3] = build(sys, 3)[1:]  # a warm entry stays intact
        return build(sys, degree, k)
    monkeypatch.setattr(fock, "_mode_sets", one_tuple_short)
    return ver.check_counting(8)


def test_counting_negative_control_drops_a_shape(monkeypatch):
    """Counting is checked against the Euler product, so it cannot pass by
    construction: one mode tuple dropped from entry (0, 3) of every slice table
    fails every system, though every real table is warm and kept."""
    warm = cat.enumerable_counting_systems()
    assert ver.check_counting(8).status == "pass"
    rep = count_one_tuple_short(monkeypatch)
    assert rep.status == "fail"
    assert rep.items and not any(i.equal for i in rep.items)
    assert len(rep.items) == len(warm)


def test_counting_negative_control_leaks_no_entry(monkeypatch):
    """Bases are kept for the process, so the control's short entries must stay
    in its own registry: afterwards a fresh System of each counting signature
    reads an intact entry (0, 3) from the real one."""
    assert count_one_tuple_short(monkeypatch).status == "fail"
    monkeypatch.undo()
    for key, sys in cat.enumerable_counting_systems():
        assert sys._slices is fock._BASES[signature(sys)][0]
        assert fock._mode_sets(sys, 3) == recursive_mode_sets(sys, 3), key


def test_check_delta_random():
    samples = ver.delta_samples(random.Random(99), 5)
    assert ver.check_delta(samples).status == "pass"


def test_delta_samples_seeded():
    a = ver.delta_samples(random.Random(7), 4)
    assert a == ver.delta_samples(random.Random(7), 4)
    assert len(a) == 4 and all(k1 != 0 for k1, _, _, _ in a)
    assert ver.delta_samples(random.Random(7), 0) == []


def test_coset_duality_excluded_message():
    with pytest.raises(cat.ExcludedLevel, match=r"excluded set S1 = \{-3, -3/2\}"):
        ver.check_coset_duality("sl", 2, Fraction(-3, 2))
    with pytest.raises(cat.ExcludedLevel, match=r"excluded set K1 = \{-3\}"):
        ver.check_coset_duality("sl", 2, Fraction(-3))


def test_delta_zero_weight_is_zero():
    rep = ver.check_delta([(Fraction(2), Fraction(0), Fraction(0), Fraction(0))])
    assert rep.status == "pass"
    assert all("0" in i.expected for i in rep.items)


def test_gram_bilinear_under_scale_and_sum():
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "coset")
    sys = spec.system
    a, b, c = (gen(sp.name) for sp in sys.species)
    G = current_gram(sys, [a, b])
    G2 = current_gram(sys, [scale(Fraction(3), a), b])
    assert G2[0][0] == 9 * G[0][0] and G2[0][1] == 3 * G[0][1]
    from wcoset.fields import sadd
    G3 = current_gram(sys, [sadd(a, b), c])
    Gac = current_gram(sys, [a, c])
    Gbc = current_gram(sys, [b, c])
    assert G3[0][1] == Gac[0][1] + Gbc[0][1]


def per_entry_gram(sys, currents):
    """The Gram matrix one OPE at a time, each entry building its own state."""
    return [[vacuum_coefficient(sys, ope_singular(sys, a, b).get(2, {}))
             for b in currents] for a in currents]


@pytest.mark.parametrize("pair", ["sl", "so"])
@pytest.mark.parametrize("n", [2, 3])
def test_ks_grams_match_the_per_entry_oracle(pair, n):
    ks = cat.ks_fields(pair, n, T)
    fa, fb = ks.side_a.generator_map, ks.side_b.generator_map
    sides = [(ks.side_a.system, [fa[nm] for nm in ["Ht2", "X", "Y"]]
              + [fa[f"A{i}"] for i in range(1, n + 1)]),
             (ks.side_b.system, [fb["Ht1"], fb["phit"]]
              + [fb[f"B{i}"] for i in range(n + 1)])]
    for sys, currents in sides:
        assert current_gram(sys, currents) == per_entry_gram(sys, currents)


@pytest.mark.parametrize("pair", ["sl", "so"])
def test_norm_grams_match_the_per_entry_oracle(pair):
    for n in (1, 2, 3):
        for spec, name in ((cat.subregular_realization(pair, n, T, "miura"), "H1"),
                           (cat.principal_super_realization(pair, n, T, "miura"), "H2")):
            currents = [spec.distinguished[name]]
            assert current_gram(spec.system, currents) == per_entry_gram(spec.system,
                                                                         currents)


def test_check_ks_takes_one_gram_per_side(monkeypatch):
    sizes = []
    original = ver.current_gram

    def counted(sys, currents):
        sizes.append(len(currents))
        return original(sys, currents)

    monkeypatch.setattr(ver, "current_gram", counted)
    assert ver.check_ks("sl", 3, T).status == "pass"
    # side a: H~2, X, Y, A1..A3; side b: H~1, phi~, B0..B3
    assert sizes == [6, 6]


def test_check_homomorphism_builds_one_state_per_generator(monkeypatch):
    spec = cat.subregular_realization("sl", 2, T, "miura")
    built = []
    original = fields.state_of_field

    def counted(sys, expr):
        built.append(expr)
        return original(sys, expr)

    monkeypatch.setattr(fields, "state_of_field", counted)
    monkeypatch.setattr(ver, "state_of_field", counted)
    assert ver.check_homomorphism(spec).status == "pass"
    assert len(spec.structure) > len(spec.generator_map)
    assert built == list(spec.generator_map.values())


def test_negative_controls_all_fail():
    for name in ver.NEGATIVE_CONTROLS:
        assert ver.run_negative_control(name).status == "fail", name


def test_catalog_realizations_pass_at_two_levels():
    """Homomorphism + annihilation hold at two independent generic levels."""
    rng = random.Random(17)
    for pair in ("sl", "so"):
        x1, _ = cat.degeneracy_constants(pair, 2)
        for _ in range(2):
            k1 = ver.generic_rational(rng, exclude=[Fraction(-cat.rd.h1(pair, 2)), x1])
            sub = cat.subregular_realization(pair, 2, k1, "miura")
            assert ver.check_homomorphism(sub).status == "pass"
            v = state_of_field(sub.system, sub.distinguished["H1"])
            assert annihilates(sub.screenings, v)
            lv = cat.LevelData.from_k1(pair, 2, k1)
            sup = cat.principal_super_realization(pair, 2, lv.k2, "miura")
            assert ver.check_homomorphism(sup).status == "pass"
            v = state_of_field(sup.system, sup.distinguished["H2"])
            assert annihilates(sup.screenings, v)
