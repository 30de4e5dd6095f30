import gc
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from wcoset import catalog as cat
from wcoset import fock
from wcoset import rootdata as rd
from wcoset.errors import (AsymmetricPairing, MomentumMismatch, NonEnumerable,
                           NonIntegralExponent, ResourceBound, UnpairedFermionHalf)
from wcoset.fock import (Species, boson_pair, enumerate_basis, fermion_pair,
                         graded_dimension, heis, normal_form, register_system,
                         slice_dimension, state_str)
from wcoset.scalars import RatFun, T


def bc_heis2(p11=Fraction(3), p12=Fraction(1), p22=Fraction(-2)):
    b, c = fermion_pair("b", "c")
    return register_system(
        [b, c, heis("x1"), heis("x2")],
        [[p11, p12], [p12, p22]])


def test_register_gl11_like():
    sys = bc_heis2()
    assert sys.species[0].name == "b"
    assert sys.pairing_of(2, 3) == 1


def test_register_lattice():
    sys = register_system([heis("x"), heis("y")],
                          [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]],
                          lattice_indices=(0, 1))
    mu = sys.lattice_momentum((2, 2))
    assert mu.values == (Fraction(2), Fraction(-2))
    assert sys.lattice_label(mu) == (2, 2)
    assert sys.momentum_parity(mu) == 0
    assert sys.momentum_parity(sys.lattice_momentum((1, 0))) == 1


def test_lattice_label_refuses_a_momentum_off_the_lattice():
    sys = register_system([heis("x"), heis("a")],
                          [[Fraction(-1), Fraction(0)], [Fraction(0), T]],
                          lattice_indices=(0,))
    # only the lattice coordinate is read; a constant RatFun is accepted
    assert sys.lattice_label(sys.momentum((Fraction(3), T))) == (-3,)
    assert sys.lattice_label(sys.momentum((RatFun.const(Fraction(-2)), T))) == (2,)
    for off, why in ((Fraction(1, 2), "= -1/2 is not an integer"), (T, "is not constant")):
        with pytest.raises(NonIntegralExponent, match=f"lattice coordinate {why}"):
            sys.lattice_label(sys.momentum((off, Fraction(0))))


def lattice_system(pairing, lattice_indices):
    b, c = fermion_pair("b", "c")
    return register_system([heis("x"), b, c, heis("y")], pairing, lattice_indices)


def test_lattice_index_must_name_a_heisenberg_species():
    unit = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert lattice_system(unit, (0, 3)).lattice_label(
        fock.Momentum((Fraction(2), Fraction(-1)))) == (2, -1)
    for idx in (1, 4, -1):  # a pair half, past the end, negative
        with pytest.raises(AsymmetricPairing, match="not a heisenberg species"):
            lattice_system(unit, (0, idx))


def test_lattice_species_must_pair_with_no_other_species():
    # x pairs with y: its eigenvalue would not fix its lattice coordinate
    table = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(3)]]
    with pytest.raises(AsymmetricPairing, match="x pairs with another species"):
        lattice_system(table, (0,))
    with pytest.raises(AsymmetricPairing, match="y pairs with another species"):
        lattice_system(table, (3,))


def test_lattice_species_must_have_norm_one():
    for norm in (Fraction(2), Fraction(0), T, Fraction(1, 2)):
        with pytest.raises(AsymmetricPairing, match=f"x has norm {norm}, not"):
            lattice_system([[norm, Fraction(0)], [Fraction(0), Fraction(1)]], (0,))
    # norm 2: e^{x} would shift the eigenvalue by 2 and the label by 1
    with pytest.raises(AsymmetricPairing, match="norm 2"):
        register_system([heis("x")], [[Fraction(2)]], lattice_indices=(0,))


def test_momentum_hash_computed_once():
    sys = bc_heis2()
    a = sys.momentum((Fraction(1, 2), Fraction(-3)))
    b = sys.zero_momentum() + a
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(a.values)
    assert {a: 1}[b] == 1
    assert a != sys.momentum((Fraction(1, 2), Fraction(3)))
    assert "_hash" not in repr(a)


def test_momentum_of_the_wrong_length_refused():
    sys = bc_heis2()
    for values in ((Fraction(1),), (Fraction(0),) * 3):
        with pytest.raises(MomentumMismatch, match=f"momentum of {len(values)} eigenvalues "
                                                   "on a system of 2 Heisenberg species"):
            sys.momentum(values)


def test_unpaired_half():
    b = Species("b", "odd", "fermion-pair-half", 1, "c")
    with pytest.raises(UnpairedFermionHalf):
        register_system([b, heis("x")], [[Fraction(1)]])


def test_asymmetric_pairing():
    with pytest.raises(AsymmetricPairing):
        register_system([heis("x"), heis("y")],
                        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]])
    # the vertex operators treat Heisenberg modes as even, of weight 1
    for odd_or_heavy in (Species("x", "odd"), Species("x", engine_weight=2)):
        with pytest.raises(AsymmetricPairing, match="must be even, weight 1"):
            register_system([odd_or_heavy], [[Fraction(1)]])


def test_normal_form_swap():
    sys = bc_heis2()
    mu = sys.zero_momentum()
    # c(-1) b(-1) -> -b(-1) c(-1)
    st, sign = normal_form(sys, mu, [(1, 1), (0, 1)])
    assert st.modes == ((0, 1), (1, 1))
    assert sign == -1
    # fermionic square is zero
    assert normal_form(sys, mu, [(0, 1), (0, 1)]) is None
    # bosons commute: x1(-2) x1(-1) stays with sign +1
    st, sign = normal_form(sys, mu, [(2, 1), (2, 2)])
    assert st.modes == ((2, 2), (2, 1))
    assert sign == 1


def test_normal_form_permutation_consistency():
    sys = bc_heis2()
    mu = sys.zero_momentum()
    modes = [(0, 2), (1, 3), (1, 1), (2, 1), (3, 2)]
    rng = random.Random(3)
    ref = None
    for _ in range(20):
        perm = modes[:]
        sign = 1
        # track the parity of the permutation restricted to odd modes
        for _ in range(10):
            i = rng.randrange(len(perm) - 1)
            a, b = perm[i], perm[i + 1]
            if sys.species[a[0]].odd and sys.species[b[0]].odd:
                sign = -sign
            perm[i], perm[i + 1] = b, a
        st, s = normal_form(sys, mu, perm)
        if ref is None:
            ref = (st, s * sign)
        assert (st, s * sign) == ref


def insertion_normal_form(sys, raw_modes, sign=1):
    """The seed's normal form, test-only: an insertion sort that flips the sign
    at each odd-odd swap, then zero on a repeated odd mode."""
    modes = list(raw_modes)
    for i in range(1, len(modes)):
        j = i
        while j > 0 and (modes[j - 1][0], -modes[j - 1][1]) > (modes[j][0], -modes[j][1]):
            a, b = modes[j - 1], modes[j]
            if sys.species[a[0]].odd and sys.species[b[0]].odd:
                sign = -sign
            modes[j - 1], modes[j] = b, a
            j -= 1
    for i in range(1, len(modes)):
        if modes[i] == modes[i - 1] and sys.species[modes[i][0]].odd:
            return None
    return tuple(modes), sign


def test_canonical_modes_matches_insertion_sort():
    rng = random.Random(17)
    bos = boson_pair("beta", "gamma", (1, 1))
    systems = [bc_heis2(),
               register_system([*fermion_pair("b", "c"), heis("x"), *bos],
                               [[Fraction(1)]])]
    seen = Counter()
    for sys in systems:
        mu = sys.zero_momentum()
        for _ in range(600):
            raw = [(rng.randrange(len(sys.species)), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 7))]
            sign = rng.choice((1, -1))
            want = insertion_normal_form(sys, raw, sign)
            got = fock.canonical_modes(sys, raw)
            assert (got if got is None else (got[0], got[1] * sign)) == want, raw
            out = normal_form(sys, mu, raw)
            assert (out if out is None else (out[0].modes, out[1] * sign)) == want
            seen[want is None, want is not None and want[1] != sign] += 1
    # zeros, kept signs and flipped signs all occur
    assert len(seen) == 3


def test_front_sign_matches_canonical_modes():
    """front_sign reads the sign of a front mode ahead of a canonical state
    as canonical_modes gives it, 0 for the zero vector, on every state of the
    first slices and for every front (idx, j + 1) up to one past the degree."""
    systems = [cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)).system,
               cat.principal_super_realization("sl", 2, Fraction(1, 3), "miura").system]
    seen = Counter()
    for sys in systems:
        assert any(sys.odd_flags)
        mu = sys.zero_momentum()
        for d in range(5):
            for state in enumerate_basis(sys, mu, d):
                for idx in range(len(sys.species)):
                    for j in range(d + 1):
                        front = (idx, j + 1)
                        out = fock.canonical_modes(sys, (front,) + state.modes)
                        want = 0 if out is None else out[1]
                        assert fock.front_sign(sys, front, state.modes) == want
                        seen[want] += 1
    # zeros, kept signs and flipped signs all occur
    assert all(seen[s] > 50 for s in (0, 1, -1))


def test_enumerate_bc_degree2():
    sys = register_system(list(fermion_pair("b", "c")), [])
    mu = sys.zero_momentum()
    basis = enumerate_basis(sys, mu, 2)
    names = {state_str(sys, s) for s in basis}
    assert names == {"b(-2)|mu=()>", "b(-2)c(-1)|mu=()>", "b(-1)c(-2)|mu=()>",
                     "b(-1)c(-2)c(-1)|mu=()>", "c(-3)|mu=()>", "c(-3)c(-1)|mu=()>"}
    assert len(basis) == 6


def test_rank2_heisenberg_degree2():
    sys = register_system([heis("a"), heis("b")],
                          [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
    assert graded_dimension(sys, sys.zero_momentum(), range(7)) == [1, 2, 5, 10, 20, 36, 65]


def test_rank1_partition_numbers():
    sys = register_system([heis("a")], [[Fraction(2)]])
    assert graded_dimension(sys, sys.zero_momentum(), range(7)) == [1, 1, 2, 3, 5, 7, 11]


def test_bc_heis2_character():
    sys = bc_heis2()
    assert graded_dimension(sys, sys.zero_momentum(), range(4)) == [2, 8, 24, 64]
    assert [slice_dimension(sys, d) for d in range(-1, 4)] == [0, 2, 8, 24, 64]


def test_degree0_vacuum_only():
    sys = register_system([heis("a"), heis("b")],
                          [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
    basis = enumerate_basis(sys, sys.zero_momentum(), 0)
    assert len(basis) == 1 and basis[0].modes == ()


def test_weight0_boson_not_enumerable():
    beta, gamma = boson_pair("beta", "gamma")
    sys = register_system([beta, gamma], [])
    with pytest.raises(NonEnumerable):
        enumerate_basis(sys, sys.zero_momentum(), 0)


def test_no_repeated_fermionic_modes():
    sys = bc_heis2()
    for d in range(6):
        for st in enumerate_basis(sys, sys.zero_momentum(), d):
            ferm = [m for m in st.modes if sys.species[m[0]].odd]
            assert len(ferm) == len(set(ferm))
            assert sum(dd - 1 + sys.species[s].engine_weight for s, dd in st.modes) == d


def test_deterministic_order():
    sys = bc_heis2()
    a = enumerate_basis(sys, sys.zero_momentum(), 3)
    b = enumerate_basis(sys, sys.zero_momentum(), 3)
    assert a == b
    assert a == sorted(a, key=lambda s: s.modes)


# ---------------------------------------------------------------------------
# the (species, degree) table against the recursive enumerator it replaced
# ---------------------------------------------------------------------------

def species_mode_shapes(sys, idx, degree):
    """Test-only: all canonical depth tuples of one species totalling the given
    degree, by a depth-first walk from the deepest mode."""
    sp = sys.species[idx]
    w = sp.engine_weight
    if sp.kind == fock.BOSON_HALF and w == 0:
        raise NonEnumerable(
            f"species {sp.name} is a weight-0 boson: graded slices are infinite")
    fermionic = sp.odd
    out = []

    def rec(remaining, max_depth, acc):
        if remaining == 0:
            out.append(tuple(acc))
        for d in range(max_depth, 0, -1):
            dd = d - 1 + w
            if dd > remaining:
                continue
            if dd == 0:
                # zero-degree modes (weight-0 fermion at depth 1) trail the shape
                if remaining == 0:
                    acc.append(d)
                    out.append(tuple(acc))
                    acc.pop()
                continue
            acc.append(d)
            rec(remaining - dd, d - 1 if fermionic else d, acc)
            acc.pop()

    rec(degree, max(0, degree + 1 - w), [])
    return out


def recursive_mode_sets(sys, degree):
    """Test-only oracle: a depth-first walk over the species for every degree,
    then one sort."""
    per_species = [{d: species_mode_shapes(sys, idx, d) for d in range(degree + 1)}
                   for idx in range(len(sys.species))]
    out = []

    def rec(idx, remaining, acc):
        if idx == len(sys.species):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for d in range(remaining, -1, -1):
            for shape in per_species[idx][d]:
                acc.extend((idx, dep) for dep in shape)
                rec(idx + 1, remaining - d, acc)
                for _ in shape:
                    acc.pop()

    rec(0, degree, [])
    out.sort()
    return tuple(out)


def signature(sys):
    return tuple((s.kind, s.engine_weight, s.odd) for s in sys.species)


class CountingTable(dict):
    """A slice table that counts each entry written into it, by table and (k, d)."""

    def __init__(self, builds):
        super().__init__()
        self.builds = builds

    def __setitem__(self, key, value):
        self.builds[id(self), key] += 1
        super().__setitem__(key, value)


def count_builds(monkeypatch):
    """Patch a fresh, empty registry in whose every new basis gets a counting
    slice table and split table, and return the counts of entries written."""
    builds = Counter()

    class Registry(dict):
        def __setitem__(self, sig, basis):
            table, packing, indices, splits = basis
            assert not table and not splits
            super().__setitem__(sig, (CountingTable(builds), packing, indices,
                                      CountingTable(builds)))
    monkeypatch.setattr(fock, "_BASES", Registry())
    return builds


def basis(sys):
    return sys._slices, sys._packing, sys._indices, sys._splits


def same(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_mode_sets_match_oracle_on_counting_catalog():
    for key, sys in cat.enumerable_counting_systems():
        for d in range(9):
            assert fock._mode_sets(sys, d) == recursive_mode_sets(sys, d), (key, d)


def _rank2_counting_systems():
    """The counting catalog without its n = 3 systems."""
    return [(key, sys) for key, sys in cat.enumerable_counting_systems() if ":3:" not in key]


def test_mode_sets_warm_system_out_of_order(monkeypatch):
    builds = count_builds(monkeypatch)
    warm = _rank2_counting_systems()[:4]
    for key, sys in warm:
        for d in (5, 2, 8, 2):
            assert fock._mode_sets(sys, d) == recursive_mode_sets(sys, d), (key, d)
    assert builds
    builds.clear()
    for (key, sys), (fresh_key, fresh) in zip(warm, _rank2_counting_systems()):
        assert fresh_key == key and fresh is not sys and fresh._slices is sys._slices
        for d in (8, 5, 2):
            assert fock._mode_sets(fresh, d) == fock._mode_sets(sys, d)
            assert len(fock._mode_sets(sys, d)) == slice_dimension(fresh, d)
    assert not builds, f"warm entries built again: {sorted(k for _, k in builds)}"


def test_each_entry_built_once_per_signature(monkeypatch):
    builds = count_builds(monkeypatch)
    systems = [sys for _, sys in cat.enumerable_counting_systems()]
    expected = {id(sys): {d: recursive_mode_sets(sys, d) for d in range(9)} for sys in systems}
    for sys in systems:
        for d in (4, 8, 0, 6, 8, 3):
            assert fock._mode_sets(sys, d) == expected[id(sys)][d]
        for d in range(9):
            assert fock._mode_sets(sys, d) == expected[id(sys)][d]
    assert builds and set(builds.values()) == {1}
    tables = {id(sys._slices): sys for sys in systems}
    assert len(tables) == len({signature(sys) for sys in systems}) < len(systems)
    for t, sys in tables.items():
        assert {key for s, key in builds if s == t} == \
            {(k, d) for k in range(len(sys.species) + 1) for d in range(9)}


def test_one_signature_shares_one_table_in_either_order(monkeypatch):
    builds = count_builds(monkeypatch)

    def make(names, p):
        b, c = fermion_pair(*names)
        return register_system([heis(names[0] + "x"), b, c], [[Fraction(p)]])
    for first, second in ((("b", "c"), ("psi", "chi")), (("psi", "chi"), ("b", "c"))):
        one = make(first, 2)
        assert fock._mode_sets(one, 6) == recursive_mode_sets(one, 6)
        two = make(second, -3)  # other names and pairing, the same signature
        assert two._slices is one._slices
        assert same(fock._BASES[signature(two)], basis(one))
        for d in (7, 6, 3):
            assert fock._mode_sets(two, d) == recursive_mode_sets(two, d)
        assert fock._mode_sets(one, 7) is fock._mode_sets(two, 7)
    assert set(builds.values()) == {1}


def counting_systems_at(k):
    """The systems of the counting catalog with every level set to k."""
    forms = (("subregular", "bosonized"), ("subregular", "coset"),
             ("super", "miura"), ("super", "bosonized"), ("super", "coset"))
    out = [cat.gl11_system(k, Fraction(1, 3)), cat.rank1_system(k)]
    for pair in rd.PAIRS:
        for n in (2, 3):
            lv = cat.LevelData.from_k1(pair, n, k)
            out += [cat.form_system(fam, form, lv) for fam, form in forms]
    return out


def test_one_basis_per_signature(monkeypatch):
    monkeypatch.setattr(fock, "_BASES", {})
    systems = [sys for _, sys in cat.enumerable_counting_systems()]
    systems += counting_systems_at(Fraction(16, 7)) + counting_systems_at(Fraction(7, 2))
    assert len(systems) == 3 * 22
    groups = {}
    for sys in systems:
        groups.setdefault(signature(sys), []).append(sys)
    assert len(fock._BASES) == len(groups) == 7
    for sig, group in groups.items():
        first = group[0]
        assert same(fock._BASES[sig], basis(first))
        for sys in group:
            assert sys._packing is first._packing
            assert all(fock.slice_index(sys, d) is fock.slice_index(first, d)
                       for d in range(5))


def test_signatures_apart_in_weight_parity_or_kind_do_not_share():
    b, c = fermion_pair("b", "c", (1, 0))
    cc, bb = fermion_pair("b", "c", (0, 1))
    beta, gamma = boson_pair("b", "c", (1, 1))
    b1, c1 = fermion_pair("b", "c", (1, 1))
    # a pair of fermion kind but even parity: apart from b1, c1 only in parity
    e1, e2 = (replace(s, parity="even") for s in (b1, c1))
    groups = [[b, c], [cc, bb], [beta, gamma], [b1, c1], [e1, e2]]
    systems = [register_system(g, []) for g in groups]
    assert len({id(sys._slices) for sys in systems}) == len(systems)
    for sys in systems:
        for d in range(7):
            assert fock._mode_sets(sys, d) == recursive_mode_sets(sys, d), (sys, d)
    # the even "fermion" pair counts as beta, gamma do, from its own table
    assert fock._mode_sets(systems[4], 6) == fock._mode_sets(systems[2], 6)
    assert fock._mode_sets(systems[4], 6) is not fock._mode_sets(systems[2], 6)


def test_a_basis_outlives_its_systems(monkeypatch):
    """A System made after the last one of its signature went gets the same
    table, packing and indices, and builds no entry or index."""
    builds = count_builds(monkeypatch)
    beta, gamma = boson_pair("beta", "gamma", (3, 2))
    species = [heis("x"), beta, gamma, heis("y")]
    one = register_system(species, [[1, 0], [0, 1]])
    sig, packing = signature(one), one._packing
    # hold entries and indices, not the table or the index dict: only the
    # registry may keep those
    slices = [fock._mode_sets(one, d) for d in range(6)]
    indices = [fock.slice_index(one, d) for d in range(6)]
    del one
    gc.collect()
    assert builds
    builds.clear()

    def no_pack(packing, modes):
        raise AssertionError(f"an index was built again, packing {modes}")
    monkeypatch.setattr(fock._Packing, "pack", no_pack)
    two = register_system(species, [[2, 1], [1, 2]])
    assert same(basis(two), fock._BASES[sig]) and two._packing is packing
    assert same([fock._mode_sets(two, d) for d in range(6)], slices)
    assert same([fock.slice_index(two, d) for d in range(6)], indices)
    assert not builds


def test_mode_sets_weight0_fermion_and_weight1_bosons():
    b, c = fermion_pair("b", "c")                   # c(-1) has degree 0
    cc, bb = fermion_pair("cc", "bb", weights=(0, 1))  # the weight-0 half first
    beta, gamma = boson_pair("beta", "gamma", weights=(1, 1))
    systems = [
        register_system([b, c], []),
        register_system([cc, bb, heis("x")], [[Fraction(2)]]),
        register_system([heis("x"), beta, gamma, b, c], [[Fraction(1)]]),
        register_system([beta, gamma], []),
    ]
    for sys in systems:
        for d in range(7):
            assert fock._mode_sets(sys, d) == recursive_mode_sets(sys, d), (sys, d)
    assert slice_dimension(systems[0], 0) == 2  # vacuum and c(-1)
    # beta, gamma both of weight 1: (1 - q^n)^-2 over n >= 1
    assert graded_dimension(systems[3], systems[3].zero_momentum(), range(5)) == \
        [1, 2, 5, 10, 20]


def test_weight0_boson_half_not_enumerable_anywhere_in_table():
    beta, gamma = boson_pair("beta", "gamma")
    sys = register_system([heis("x"), beta, gamma], [[Fraction(1)]])
    for count in (lambda: slice_dimension(sys, 0),
                  lambda: graded_dimension(sys, sys.zero_momentum(), range(3)),
                  lambda: enumerate_basis(sys, sys.zero_momentum(), 0)):
        with pytest.raises(NonEnumerable):
            count()


def test_slice_index_is_the_packed_slice_built_once_per_signature():
    sys = bc_heis2()
    for d in range(-1, 4):
        index = fock.slice_index(sys, d)
        states = enumerate_basis(sys, sys.zero_momentum(), d)
        assert index == {sys._packing.pack(s.modes): i for i, s in enumerate(states)}
        assert fock.slice_index(sys, d) is index
    # a System of the same signature, at another pairing, shares the index
    other = bc_heis2(Fraction(5), Fraction(0), Fraction(7))
    assert same(basis(other), basis(sys))
    assert fock.slice_index(other, 3) is fock.slice_index(sys, 3)
    fock.slice_index(sys, 3, cap=64)
    with pytest.raises(ResourceBound, match=r"slice size 64 exceeds cap 63 \(degree 3\)"):
        fock.slice_index(sys, 3, cap=63)
    with pytest.raises(ResourceBound, match=r"slice size 64 exceeds cap 63 \(degree 3\)"):
        fock.slice_index(bc_heis2(), 3, cap=63)


def test_graded_dimension_cap():
    sys = bc_heis2()
    mu = sys.zero_momentum()
    assert graded_dimension(sys, mu, range(4)) == [2, 8, 24, 64]
    fock._check_cap(64, 64, 3)
    with pytest.raises(ResourceBound) as counted:
        fock._check_cap(slice_dimension(sys, 2), 23, 2)
    with pytest.raises(ResourceBound) as built:
        enumerate_basis(sys, mu, 2, cap=23)
    assert str(counted.value) == str(built.value) == \
        "slice size 24 exceeds cap 23 (degree 2)"
    assert graded_dimension(sys, mu, [-1]) == [0]


# ---------------------------------------------------------------------------
# slice splits
# ---------------------------------------------------------------------------
# A residue slice reads each source state split for the Heisenberg species its
# E+ contracts: the contracted modes with their packed key, the packed key of
# the other modes and the contracted depth, with the slice's most modes and
# largest contracted depth.  A basis keeps one Split per (contracted
# positions, degree), built once like its slice table entries.

def split_of_slice_modes(sys, positions, d):
    """The Split of slice d for the Heisenberg positions, made here from
    slice_modes."""
    species, pk = {sys.heis_indices[p] for p in positions}, sys._packing
    states = []
    for modes in fock.slice_modes(sys, d):
        contracted = tuple(m for m in modes if m[0] in species)
        others = tuple(m for m in modes if m[0] not in species)
        states.append((modes, contracted, pk.pack(contracted), pk.pack(others),
                       sum(depth for _, depth in contracted)))
    return (d, tuple(states), max((len(st[0]) for st in states), default=0),
            max((st[4] for st in states), default=0))


def three_heisenberg(p=Fraction(2)):
    return register_system([heis("x"), heis("y"), heis("z")],
                           [[p, 1, 0], [1, -p, 3], [0, 3, 1]])


def position_subsets(sys):
    n = len(sys.heis_indices)
    return [tuple(p for p in range(n) if mask >> p & 1) for mask in range(2 ** n)]


@pytest.mark.parametrize("build", [three_heisenberg,
                                   lambda: cat.gl11_system(Fraction(7, 2), Fraction(1, 3))],
                         ids=["3 heisenberg", "gl11"])
def test_slice_split_matches_a_split_of_slice_modes(build):
    sys = build()
    subsets = position_subsets(sys)
    assert len(subsets) == 2 ** len(sys.heis_indices) >= 4
    for positions in subsets:
        for d in (5, 0, 3, 1, 4, 2):
            split = fock.slice_split(sys, positions, d)
            assert split == split_of_slice_modes(sys, positions, d), (positions, d)
            assert split[1] and split[0] == d
    # the empty slice below degree 0
    assert fock.slice_split(sys, subsets[-1], -1) == (-1, (), 0, 0)


def test_each_split_built_once_per_signature_positions_and_degree(monkeypatch):
    builds = count_builds(monkeypatch)
    systems = [three_heisenberg(), three_heisenberg(Fraction(-5, 3)), bc_heis2(),
               cat.gl11_system(Fraction(7, 2), Fraction(1, 3))]
    for sys in systems:
        for positions in position_subsets(sys):
            for d in (4, 1, 4, 0, 2, 1):
                assert fock.slice_split(sys, positions, d) == split_of_slice_modes(sys, positions, d)
    # bc_heis2 and gl11 share a signature, and so do the two three_heisenberg
    splits = {id(sys._splits): sys for sys in systems}
    assert len(splits) == 2 and set(builds.values()) == {1}
    for t, sys in splits.items():
        assert {key for s, key in builds if s == t} == \
            {(positions, d) for positions in position_subsets(sys) for d in (0, 1, 2, 4)}


def test_one_signature_shares_its_splits_across_pairings():
    one, two = bc_heis2(), bc_heis2(Fraction(5), Fraction(0), Fraction(7))
    assert one.pairing != two.pairing and two._splits is one._splits
    for positions in position_subsets(one):
        for d in range(4):
            assert fock.slice_split(two, positions, d) is fock.slice_split(one, positions, d)
    # a screening of one re-sourced on the other's System reads the same split
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    other = cat.gl11_system(Fraction(-11, 3), Fraction(9, 8))
    exp = spec.screenings[0].exp
    assert exp.contracted == (0, 1)
    assert fock.slice_split(other, exp.contracted, 3) is fock.slice_split(spec.system, (0, 1), 3)


def test_a_slice_over_the_cap_is_refused_before_any_image(monkeypatch):
    from wcoset import fields
    from wcoset.screening import residue_map
    written = []
    real = fields._images

    def spy(*args, **kwargs):
        written.append(args[3])
        return real(*args, **kwargs)
    monkeypatch.setattr(fields, "_images", spy)
    count_builds(monkeypatch)  # a fresh registry: no split is built yet
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    op = spec.screenings[0]
    size = slice_dimension(spec.system, 3)
    assert size == 64 and op.degree_shift() == 0
    with pytest.raises(ResourceBound, match=r"slice size 64 exceeds cap 63 \(degree 3\)"):
        fock.slice_split(spec.system, op.exp.contracted, 3, cap=63)
    with pytest.raises(ResourceBound, match=r"slice size 64 exceeds cap 63 \(degree 3\)"):
        residue_map(op, [3], cap=63)
    assert not written and (op.exp.contracted, 3) not in spec.system._splits
    residue_map(op, [3], cap=size)
    assert written and (op.exp.contracted, 3) in spec.system._splits
