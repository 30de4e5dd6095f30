import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from wcoset import catalog as cat
from wcoset import fields, fock
from wcoset.errors import (InputError, MomentumMismatch, NonEnumerable, ResourceBound,
                           ShapeMismatch)
from wcoset.fields import (_expop_record, deriv, direction_of, exp_op, exp_power, gen,
                           mode_apply, nord, parity, residue_images, scale, state_of_field)
from wcoset.fock import FockState, Momentum, System, enumerate_basis, fermion_pair, heis
from wcoset.linalg import kernel_basis, rank
from wcoset.scalars import RatFun, T, sc_is_zero
from wcoset.screening import (ScreeningOp, annihilates, compose_check, joint_kernel,
                              residue_map)

from test_fields import gl11_system, screening_field, wakimoto_images


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
    src = sys.momentum((Fraction(-n_from), Fraction(n_from)))
    return ScreeningOp(sys, exp_op(sys, -1 / k1, lam), src, prefactor=gen("b"), name="S")


GL11_LEVELS = [(Fraction(7, 2), Fraction(1, 3)), (Fraction(-5, 3), Fraction(4, 7))]


def image_values(Z, image):
    """An image of residue_images as values: integer entries over Z are read
    as Fractions, a Q(t) image (Z None) is its values."""
    return image if Z is None else {key: Fraction(v, Z) for key, v in image.items()}


def as_slice(M, ncols, scale=1):
    """The dense matrix M of ncols columns as residue_map stores a slice:
    (Z, one sparse column {row: entry} per column, row count).  Over Q the
    entries are integers over Z, the lcm of M's denominators times `scale`;
    with a RatFun entry they are M's values and Z is None."""
    assert all(len(row) == ncols for row in M)
    if any(isinstance(x, RatFun) for row in M for x in row):
        return None, [{i: row[j] for i, row in enumerate(M) if row[j]}
                      for j in range(ncols)], len(M)
    Z = math.lcm(*[x.denominator for row in M for x in row if x]) * scale
    return Z, [{i: int(row[j] * Z) for i, row in enumerate(M) if row[j]}
               for j in range(ncols)], len(M)


def write_block(gm, d, M):
    """Store the dense matrix M as gm's degree-d slice, of the same width."""
    gm.slices[d] = as_slice(M, len(gm.slices[d][1]))


def columns_of(vectors):
    """Vectors as residue_images takes them: columns of (modes, coefficient)."""
    return [[(s.modes, x) for s, x in v.items()] for v in vectors]


def apply_residue(op, vectors):
    """op's residue on each vector (a LinComb over op.source), through
    residue_images, as LinCombs over op.target()."""
    sys = op.system
    Z, images = residue_images(op, columns_of(vectors))
    return [{FockState(op.target(), sys._packing.unpack(key)): x
             for key, x in image_values(Z, img).items()} for img in images]


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_degree0_action(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    vac = sys.vacuum()
    c_state = FockState(sys.zero_momentum(), ((sys.index["c"], 1),))
    on_vac, out = apply_residue(S, [{vac: Fraction(1)}, {c_state: Fraction(1)}])
    assert on_vac == {}
    target_vac = FockState(S.target(), ())
    assert out == {target_vac: Fraction(1)}


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_kernel_dims(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    gm = residue_map(S, range(4))
    dims = joint_kernel([gm], range(4))
    assert dims == [1, 4, 12, 32]
    # exact linear algebra sanity: rank + kernel = source dimension
    for d in range(4):
        M = gm.blocks[d]
        r = rank(M) if M and M[0] else 0
        assert r + dims[d] == len(gm.slices[d][1])


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_resolution_kernel_dim4_matches_character(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    assert joint_kernel([residue_map(S, [4])], [4]) == [gl11_vacuum_character(4)[4]] == [76]


@pytest.mark.parametrize("k1,k2", GL11_LEVELS)
def test_s_compose_s_zero(k1, k2):
    sys = gl11_system(k1, k2)
    m1 = residue_map(resolution_screening(sys, k1, 0), range(5))
    assert m1.target == resolution_screening(sys, k1, 1).source
    m2 = residue_map(resolution_screening(sys, k1, 1),
                     [d + m1.degree_shift for d in range(5)])
    out = compose_check(m2, m1)
    assert list(out) == list(range(5))
    assert all(out.values())


@pytest.mark.parametrize("k1,k2", [(Fraction(7, 2), Fraction(1, 3)),
                                   (Fraction(-11, 3), Fraction(9, 8))], ids=str)
def test_chain_maps_with_a_shared_memo_equal_maps_built_alone(k1, k2):
    # a suffix image depends on n + p and the suffix, not on the source
    # momentum, so the re-sourced copies S[0..2] of S0 share one memo in
    # check_resolution; each System is fresh, so no other cache is shared
    def chain(memos):
        spec = cat.gl11_wakimoto(k1, k2)
        return [residue_map(cat.wakimoto_shifted_screening(spec, i), range(5), None, memo)
                for i, memo in enumerate(memos)]

    shared, alone = {}, [{}, {}, {}]
    together = chain([shared] * 3)
    for m, ref in zip(together, chain(alone)):
        assert m.slices.keys() == ref.slices.keys() == set(range(5))
        for d in range(5):
            (Z, columns, rows), (Z_ref, columns_ref, rows_ref) = m.slices[d], ref.slices[d]
            assert (Z, rows) == (Z_ref, rows_ref) and type(Z) is int
            assert columns == columns_ref
            assert all(type(v) is int for column in columns for v in column.values())
    # the chain reuses suffix images: fewer are built than one at a time
    size = [sum(map(len, memo.values())) for memo in [shared] + alone]
    assert 0 < size[0] < sum(size[1:])


def test_maps_at_momenta_of_different_powers_share_a_memo():
    # along the gl(1|1) chain p = c(lambda|mu) is 0 throughout; here it is not,
    # so a memo keyed by n alone, not n + p, would hand out wrong images
    ops_at = (0, 1, -2, 3)

    def maps(memos):
        spec = cat.rank1_ff(Fraction(7, 2))
        ops = [spec.screenings[0].at(spec.system.momentum((Fraction(v),))) for v in ops_at]
        assert len({exp_power(op.exp, op.source) for op in ops}) == 4
        return [residue_map(op, range(7), None, memo) for op, memo in zip(ops, memos)]

    shared = {}
    together = maps([shared] * len(ops_at))
    assert all(m.slices == ref.slices for m, ref in zip(together, maps([{} for _ in ops_at])))
    assert any(column for m in together for _, columns, _ in m.slices.values()
               for column in columns)


def test_residue_map_caps_the_target_slice_too():
    # out of the rank-1 module at -2 the residue raises degree by 1: the
    # degree-6 source slice (11 states) is under the cap, its target (15) not
    spec = cat.rank1_ff(Fraction(7, 2))
    op = spec.screenings[0].at(spec.system.momentum((Fraction(-2),)))
    assert op.degree_shift() == 1
    assert residue_map(op, [6], cap=15).slices[6][2] == 15
    with pytest.raises(ResourceBound, match=r"slice size 15 exceeds cap 12 \(degree 7\)"):
        residue_map(op, [6], cap=12)
    with pytest.raises(ResourceBound, match=r"slice size 11 exceeds cap 10 \(degree 6\)"):
        residue_map(op, [6], cap=10)


def test_maps_of_two_operators_may_share_a_memo():
    # one memo holds one sub-memo per operator and ring
    def maps(memos):
        spec = cat.subregular_realization("sl", 2, Fraction(16, 7), "coset")
        assert len({op.exp for op in spec.screenings}) == len(spec.screenings) > 1
        return [residue_map(op, range(5), None, memo)
                for op, memo in zip(spec.screenings, memos)]

    shared = {}
    together = maps([shared] * 2)
    assert together and all(m.slices == ref.slices for m, ref in zip(together, maps([{}, {}])))
    assert len(shared) == 2


def test_compose_momentum_mismatch():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    m1 = residue_map(resolution_screening(sys, k1, 0), range(2))
    m3 = residue_map(resolution_screening(sys, k1, 2), range(2))
    with pytest.raises(MomentumMismatch):
        compose_check(m3, m1)


def test_compose_needs_every_degree_the_first_map_reaches():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    m1 = residue_map(resolution_screening(sys, k1, 0), range(3))
    m2 = residue_map(resolution_screening(sys, k1, 1), range(2))
    with pytest.raises(ShapeMismatch, match="lacks degree 2"):
        compose_check(m2, m1)


def test_compose_refuses_a_ratfun_level_and_a_middle_slice_of_another_size():
    sys = gl11_system(T, Fraction(1, 3))
    m1 = residue_map(resolution_screening(sys, T, 0), range(3))
    m2 = residue_map(resolution_screening(sys, T, 1), range(3))
    assert m1.slices[2][0] is None
    with pytest.raises(InputError, match="over Q only"):
        compose_check(m2, m1)
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    m1 = residue_map(resolution_screening(sys, k1, 0), range(3))
    m2 = residue_map(resolution_screening(sys, k1, 1), range(3))
    Z, columns, rows = m2.slices[2]
    m2.slices[2] = (Z, columns + [{}], rows)
    with pytest.raises(ShapeMismatch, match="cannot compose"):
        compose_check(m2, m1)


def test_compose_reports_a_nonzero_composite():
    # replace the second map's degree-2 block by a row that reads one
    # nonzero row of the first map, so that composite cannot vanish
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    m1 = residue_map(resolution_screening(sys, k1, 0), range(3))
    m2 = residue_map(resolution_screening(sys, k1, 1), range(3))
    B = m1.blocks[2]
    j = next(i for i, row in enumerate(B) if any(not sc_is_zero(x) for x in row))
    write_block(m2, 2, [[Fraction(int(c == j)) for c in range(len(B))]])
    assert compose_check(m2, m1) == {0: True, 1: True, 2: False}


@pytest.mark.parametrize("k1,k2", GL11_LEVELS + [(T, Fraction(1, 3))])
def test_screening_annihilates_wakimoto_images(k1, k2):
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    rho = wakimoto_images(sys, k1)
    for name, img in rho.items():
        v = state_of_field(sys, img)
        assert annihilates([S], v), name
    chi_state = {FockState(sys.zero_momentum(), ((sys.index["x1"], 1),)): Fraction(1)}
    assert not annihilates([S], chi_state)
    assert annihilates([], chi_state)


def test_annihilates_refusals_and_trivial_cases():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    vac = sys.vacuum()
    c_state = FockState(sys.zero_momentum(), ((sys.index["c"], 1),))
    chi_state = FockState(sys.zero_momentum(), ((sys.index["x1"], 1),))
    moved = FockState(S.target(), ())
    with pytest.raises(MomentumMismatch, match="mixes momenta"):
        annihilates([S], {vac: Fraction(1), moved: Fraction(1)})
    with pytest.raises(ValueError, match="not homogeneous"):
        annihilates([S], {vac: Fraction(1), chi_state: Fraction(1)})
    assert annihilates([], {c_state: Fraction(1)})
    assert annihilates([S], {})
    assert annihilates([S], {vac: Fraction(1)})
    assert not annihilates([S], {c_state: Fraction(1)})
    # a vector over another module is screened out of that module, here one
    # where S's exponent -(x1 + x2 | mu)/k1 = 1 is not its exponent on S.source
    mu = sys.momentum((-k1, Fraction(0)))
    gm, killed = residue_map(S.at(mu), range(3)), []
    for d in range(3):
        for s, column in zip(enumerate_basis(sys, mu, d), gm.slices[d][1]):
            killed.append(annihilates([S], {s: Fraction(1)}))
            assert killed[-1] == (not column), s
    assert True in killed and False in killed


def rank1_system(K):
    return System([heis("a")], [[2 * K]])


def rank1_screenings(sys, K):
    lam = direction_of(sys, {"a": Fraction(1)})
    plus = ScreeningOp(sys, exp_op(sys, Fraction(1), lam), sys.zero_momentum(), name="e^a")
    minus = ScreeningOp(sys, exp_op(sys, -1 / K, lam), sys.zero_momentum(), name="e^(-a/K)")
    return plus, minus


def test_shift_is_derived_from_the_exponential():
    # T_{c lambda}: (-1, 1) for S, (2K,) for e^a and (-2,) for e^(-a/K)
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    assert resolution_screening(sys, k1, 2).exp.shift == sys.momentum((Fraction(-1), Fraction(1)))
    K = Fraction(7, 2)
    sys = rank1_system(K)
    plus, minus = rank1_screenings(sys, K)
    assert (plus.exp.shift, minus.exp.shift) == (sys.momentum((2 * K,)), sys.momentum((-2,)))


def test_at_re_sources_and_keeps_every_other_field():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    op = resolution_screening(sys, k1)
    src = sys.momentum((Fraction(-1), Fraction(1)))
    for name, moved in ((op.name, op.at(src)), ("S'", op.at(src, "S'"))):
        assert (moved.source, moved.name) == (src, name)
        for f in dataclasses.fields(op):
            if f.name not in ("source", "name"):
                assert getattr(moved, f.name) == getattr(op, f.name), f.name
    assert op.at(src) == resolution_screening(sys, k1, 1)


def test_non_integral_lattice_shift_refused_when_the_op_is_made():
    spec = cat.principal_super_realization("sl", 2, Fraction(3), "bosonized")
    sys = spec.system
    lam = direction_of(sys, {"phi": Fraction(1)})
    with pytest.raises(InputError, match="lattice coordinate = 1/2 is not an integer"):
        ScreeningOp(sys, exp_op(sys, Fraction(1, 2), lam), sys.zero_momentum())


@pytest.mark.parametrize("K", [Fraction(7, 2), Fraction(5, 3)])
def test_rank1_ff_kernels(K):
    sys = rank1_system(K)
    plus, minus = rank1_screenings(sys, K)
    expect = parts_ge2(6)
    for op in (plus, minus):
        gm = residue_map(op, range(7))
        assert joint_kernel([gm], range(7)) == expect


def test_joint_kernel_refuses_empty_maps():
    with pytest.raises(ShapeMismatch, match="no maps"):
        joint_kernel([], range(5))


def test_joint_kernel_order_and_rescale_invariance():
    k1, k2 = GL11_LEVELS[0]
    sys = gl11_system(k1, k2)
    S = resolution_screening(sys, k1)
    S5 = ScreeningOp(sys, S.exp, S.source, prefactor=gen("b"))
    gm = residue_map(S, range(3))
    gm5 = residue_map(S5, range(3))
    for d, M in gm5.blocks.items():
        write_block(gm5, d, [[5 * x for x in row] for row in M])
    a = joint_kernel([gm, gm5], range(3))
    b = joint_kernel([gm5, gm], range(3))
    assert a == b == joint_kernel([gm], range(3))


def test_kernel_bases_reduced():
    K = Fraction(7, 2)
    sys = rank1_system(K)
    plus, _ = rank1_screenings(sys, K)
    gm = residue_map(plus, range(4))
    for d, dim in enumerate(joint_kernel([gm], range(4))):
        M = gm.blocks[d]
        basis = kernel_basis(M, len(gm.slices[d][1]))
        assert len(basis) == dim
        for v in basis:
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
        joint_kernel([residue_map(Sa, range(2)),
                      residue_map(plus, range(2))], range(2))


# ---------------------------------------------------------------------------
# residue maps against the per-state mode_apply oracle
# ---------------------------------------------------------------------------
# residue_map builds each slice in one pass: one record lookup per slice, one
# E+ table per source state.  The oracle applies the whole field :P E: to
# each source state with mode_apply, on a System built apart, so the two share
# no record; blocks must agree entry for entry, by type and by string.  The
# closed form both paths share is checked against the breadth-first expansion
# in test_fields.

def oracle_block(sys, op, d):
    """The degree-d block of op's residue, from one mode_apply per source state."""
    src = enumerate_basis(sys, op.source, d)
    tgt = enumerate_basis(sys, op.target(), d + op.degree_shift())
    index = {(s.momentum, s.modes): i for i, s in enumerate(tgt)}
    M = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
    fld = screening_field(op)
    for j, s in enumerate(src):
        for t, v in mode_apply(sys, fld, 0, s).items():
            M[index[(t.momentum, t.modes)]][j] = v
    return M


def entries(M):
    return [[(type(x), str(x)) for x in row] for row in M]


def oracle_blocks(build, degrees):
    """{(op index, degree): oracle block} of the ops of build(), on a System of
    their own."""
    osys, oops = build()
    return {(i, d): oracle_block(osys, op, d) for i, op in enumerate(oops) for d in degrees}


def compare_with_oracle(ops, blocks, degrees):
    """residue_map of each op against blocks[(its index, d)]; returns the
    number of nonzero entries compared."""
    nonzero = 0
    for i, op in enumerate(ops):
        gm = residue_map(op, degrees)
        for d in degrees:
            assert entries(gm.blocks[d]) == entries(blocks[i, d]), (op.name, d)
            nonzero += sum(not sc_is_zero(x) for row in gm.blocks[d] for x in row)
    return nonzero


def matches_oracle(build, degrees):
    """build() returns (system, ops); the oracle runs on a second build()."""
    return compare_with_oracle(build()[1], oracle_blocks(build, degrees), degrees)


def catalog_build(side, pair, n, form, k1):
    def build():
        spec = cat.get_realization(f"{side}-{pair}:{n}:{form}", k1)
        return spec.system, spec.screenings
    return build


@pytest.mark.parametrize("k1", [Fraction(15, 7), Fraction(-14, 5), T], ids=str)
@pytest.mark.parametrize("form", ["coset", "miura", "bosonized"])
@pytest.mark.parametrize("pair", ["sl", "so"])
def test_residue_map_matches_oracle_catalog(pair, form, k1):
    for side in ("subregular", "super"):
        for n, top in ((2, 4), (3, 3)):
            build = catalog_build(side, pair, n, form, k1)
            if side == "subregular" and form == "miura":
                # the weight-0 gamma makes every slice infinite, on both paths
                sys, ops = build()
                with pytest.raises(NonEnumerable):
                    residue_map(ops[0], [0])
                with pytest.raises(NonEnumerable):
                    oracle_block(sys, ops[0], 0)
                continue
            assert matches_oracle(build, range(top + 1)) > 0, (side, n)


GL11 = (Fraction(7, 2), Fraction(1, 3))


def gl11_build(k1, k2, prefactor=None):
    """gl(1|1) S[0..2]; with `prefactor`, the same exponentials under it."""
    def build():
        spec = cat.gl11_wakimoto(k1, k2)
        ops = [cat.wakimoto_shifted_screening(spec, i) for i in range(3)]
        if prefactor is not None:
            ops = [dataclasses.replace(op, prefactor=prefactor) for op in ops]
        return spec.system, ops
    return build


@pytest.fixture(scope="module")
def gl11_oracle():
    """Oracle blocks of gl(1|1) S[0..2] at GL11 to degree 4, built once for the
    tests that compare against them."""
    return oracle_blocks(gl11_build(*GL11), range(5))


def test_residue_map_matches_oracle_gl11_warm_system(gl11_oracle):
    # S[0..2] share one ExpOp over three sources: S[1], S[2] and S[0] again are
    # built on a System the earlier maps have warmed, the oracle on a fresh one
    _, ops = gl11_build(*GL11)()
    order = (0, 1, 2, 0)
    blocks = {(j, d): gl11_oracle[i, d] for j, i in enumerate(order) for d in range(5)}
    assert compare_with_oracle([ops[i] for i in order], blocks, range(5)) > 0


def test_residue_map_matches_oracle_gl11_symbolic():
    assert matches_oracle(gl11_build(T, Fraction(1, 3)), range(4)) > 0


# a Heisenberg generator brings its zero mode; a scale multiplies every seed
GL11_PREFACTORS = {
    "heisenberg": gen("x1"),
    "scaled": scale(Fraction(-3, 2), gen("b")),
    # a rational record under RatFun seeds: the field ring
    "symbolic-scaled": scale(T, gen("b")),
}


@pytest.mark.parametrize("name", sorted(GL11_PREFACTORS))
def test_residue_map_matches_oracle_prefactors(name):
    assert matches_oracle(gl11_build(*GL11, GL11_PREFACTORS[name]), range(4)) > 0


def odd_exponential_build():
    """b e^phi over two lattice sources: an odd generator under an odd
    lattice exponential."""
    b, c = fermion_pair("b", "c")
    sys = System([b, c, heis("phi")], [[Fraction(1)]], lattice_indices=[2])
    exp = exp_op(sys, Fraction(1), direction_of(sys, {"phi": Fraction(1)}))
    ops = [ScreeningOp(sys, exp, sys.lattice_momentum((m,)),
                       prefactor=gen("b"), name=f"b e^phi [{m}]")
           for m in (0, 1)]
    return sys, ops


def test_residue_map_matches_oracle_odd_exponential():
    # the second sum of the normally ordered product changes sign
    sys, ops = odd_exponential_build()
    assert all(parity(sys, op.prefactor) == parity(sys, op.exp) == 1 for op in ops)
    assert matches_oracle(odd_exponential_build, range(5)) > 0


@pytest.mark.parametrize("K", [Fraction(7, 2), T], ids=str)
def test_residue_map_matches_oracle_rank1(K):
    def build():
        spec = cat.rank1_ff(K)
        return spec.system, spec.screenings
    assert matches_oracle(build, range(7)) > 0


# ---------------------------------------------------------------------------
# residue_images on vectors against mode_apply
# ---------------------------------------------------------------------------
# A vector is one column of residue_images, each state's coefficient
# multiplying its seeds.  The oracle applies :P E: to the whole vector with
# mode_apply, on a System built apart, and packs the result.

def random_vectors(rng, sys, mu, count):
    """The empty vector, then count seeded random vectors over mu, each on up
    to four states of degree <= 3 with nonzero rational coefficients; every
    third vector's coefficients are multiplied by t."""
    states = [s for d in range(4) for s in enumerate_basis(sys, mu, d)]
    out = [{}]
    for i in range(count):
        scale_by = T if i % 3 == 2 else 1
        out.append({s: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) * scale_by
                    for s in rng.sample(states, min(4, len(states)))})
    return out


VECTOR_BUILDS = {
    "gl11 7/2,1/3": gl11_build(Fraction(7, 2), Fraction(1, 3)),
    "gl11 t,1/3": gl11_build(T, Fraction(1, 3)),
    "super-sl:2:miura -14/5": catalog_build("super", "sl", 2, "miura", Fraction(-14, 5)),
    "super-sl:2:miura t": catalog_build("super", "sl", 2, "miura", T),
    "super-so:2:miura -14/5": catalog_build("super", "so", 2, "miura", Fraction(-14, 5)),
    "super-so:2:miura t": catalog_build("super", "so", 2, "miura", T),
    "b e^phi": odd_exponential_build,
}


@pytest.mark.parametrize("name", sorted(VECTOR_BUILDS))
def test_residue_images_match_mode_apply_on_vectors(name):
    build = VECTOR_BUILDS[name]
    rng = random.Random(name)
    (sys, ops), (osys, oops) = build(), build()
    nonzero = 0
    for op, oop in zip(ops, oops):
        vectors = random_vectors(rng, sys, op.source, 9)
        Z, images = residue_images(op, columns_of(vectors))
        assert len(images) == len(vectors) and images[0] == {}
        for v, image in zip(vectors, (image_values(Z, img) for img in images)):
            want = mode_apply(osys, screening_field(oop), 0, v)
            assert {s.momentum for s in want} <= {op.target()}
            packed = {sys._packing.pack(s.modes): x for s, x in want.items()}
            assert ({k: (type(x), str(x)) for k, x in image.items()}
                    == {k: (type(x), str(x)) for k, x in packed.items()}), (op.name, v)
            nonzero += bool(image)
    assert nonzero > len(ops)


# ---------------------------------------------------------------------------
# the dense blocks view against the residue images it is read from
# ---------------------------------------------------------------------------
# A slice keeps residue_images' integer entries over their Z (Q(t) values
# with Z None); GradedMap.blocks must be the dense matrix of those values
# divided by Z, entry for entry, by type and by string.

@pytest.mark.parametrize("name", sorted(VECTOR_BUILDS))
def test_blocks_view_is_the_residue_images_over_their_denominator(name):
    sys, ops = VECTOR_BUILDS[name]()
    pk = sys._packing
    symbolic = " t" in name
    nonzero = 0
    for op in ops:
        gm = residue_map(op, range(4))
        for d in range(4):
            src = enumerate_basis(sys, op.source, d)
            tgt = enumerate_basis(sys, op.target(), d + op.degree_shift())
            Z, images = residue_images(op, [((s.modes, 1),) for s in src])
            assert (Z is None) == symbolic and gm.slices[d][0] == Z
            index = {pk.pack(t.modes): i for i, t in enumerate(tgt)}
            dense = [[Fraction(0)] * len(src) for _ in tgt]
            for j, image in enumerate(images):
                for key, v in image.items():
                    assert symbolic or type(v) is int
                    dense[index[key]][j] = v if Z is None else Fraction(v, Z)
            assert entries(gm.blocks[d]) == entries(dense), (op.name, d)
            nonzero += sum(map(len, images))
    assert nonzero > len(ops)


# ---------------------------------------------------------------------------
# golden residue maps
# ---------------------------------------------------------------------------
# Each case hashes every cell of every block, as (map, degree, row, col, type
# name, str), in the order residue_map lays them out.  The digests were taken
# from the dense per-column slice build that preceded packed monomial keys, so
# any change to a value, its type, its printed form or a block's shape shows.

def _golden_cases():
    q, t = Fraction(7, 2), Fraction(1, 3)
    gl11 = gl11_build(q, t)()
    gl11_t = gl11_build(T, t)()
    cases = {"gl11 7/2,1/3 S[0..2]": (*gl11, range(5)),
             "gl11 t,1/3 S[0..2]": (*gl11_t, range(4))}
    # a scaled generator, its seeds multiplied by t
    cases["gl11 7/2,1/3 S[0..2] under symbolic-scaled"] = (
        *gl11_build(q, t, GL11_PREFACTORS["symbolic-scaled"])(), range(3))
    for pair in ("sl", "so"):
        for k1, top in ((Fraction(15, 7), 4), (T, 3)):
            for side in ("subregular", "super"):
                spec = cat.get_realization(f"{side}-{pair}:2:coset", k1)
                cases[f"{side}-{pair}:2:coset {k1}"] = (spec.system, spec.screenings,
                                                        range(top + 1))
    # gamma = -:x e^{-(x+y)}: of the bosonized beta gamma pair, under the
    # scaled generator -x, and the screenings over a source whose two-cocycle
    # takes both signs
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "bosonized")
    sys = spec.system
    gamma = spec.generator_map["gamma"]
    exp = gamma.expr.right
    ops = []
    for label in ((0, 0), (1, 0)):
        mu = sys.lattice_momentum(label)
        ops.append(ScreeningOp(sys, exp, mu, scale(gamma.coeff, gamma.expr.left),
                               f"gamma {label}"))
        ops += [op.at(mu, f"{op.name} {label}") for op in spec.screenings]
    cases["subregular-sl:2:bosonized -14/5"] = (sys, ops, range(5))
    return cases


GOLDEN = {
    "gl11 7/2,1/3 S[0..2]":
        "87d4660bc71bd0ea6807fcbf44168586961591ef3633318ef3d336dbdef11bf7",
    "gl11 t,1/3 S[0..2]":
        "02b62303e2f87f20c69a7733c12a12759f502ce2d3b2bbf2e374601237c50997",
    "gl11 7/2,1/3 S[0..2] under symbolic-scaled":
        "a6b70d372ec48cc5dfbbd9442bf91ac5c5ef1ce083871896673217ffb66f3075",
    "subregular-sl:2:coset 15/7":
        "d366486948bcf81751e0e90e2f75c268a6f38d5793ccec401735178fcfcc9cb6",
    "super-sl:2:coset 15/7":
        "03a60b851b492bd1ac65648818086dd9deeec48d1313aec15521b316757bd4b6",
    "subregular-sl:2:coset t":
        "f00aca7bf718a7423f3d56dc7e7f0a82a5859c03f7ec506f4136920537ff09f1",
    "super-sl:2:coset t":
        "5a61526b56e2dc1a82e5842b2a2e81eddabac9a00581090de3005ad1a711265d",
    "subregular-so:2:coset 15/7":
        "bf91bf87f8aef17cdcc157d9e292014561c38b93280c09727de0280c3d5a7f29",
    "super-so:2:coset 15/7":
        "37b1279879627f52499e2f71baa248395ca87afc5defb47796e4d2d32ae96499",
    "subregular-so:2:coset t":
        "ab077f7fc30aef5f72bcd06ade1263c6f13322a4ea33a549995dd0105b665a7f",
    "super-so:2:coset t":
        "3336d21b8dcf60f7a2d48c7379bf56b791a5f2e00694b8e845994ae82b01aac9",
    "subregular-sl:2:bosonized -14/5":
        "cefffb86ee5d67cd7256a493883dd91464ef418596a33d6eb55e84281eec2f9b",
}


def test_residue_map_golden_digests():
    got = {}
    for name, (sys, ops, degrees) in _golden_cases().items():
        h = hashlib.sha256()
        for op in ops:
            gm = residue_map(op, degrees)
            for d in degrees:
                for i, row in enumerate(gm.blocks[d]):
                    for j, x in enumerate(row):
                        h.update(f"{op.name}|{d}|{i}|{j}|{type(x).__name__}|{x}\n".encode())
        got[name] = h.hexdigest()
    assert got == GOLDEN


def test_residue_map_off_by_one_shift_raises(monkeypatch):
    sys, ops = gl11_build(*GL11)()
    true_shift = ops[0].degree_shift()
    # the error names the true target degree of the first nonzero image
    gm = residue_map(ops[0], range(4))
    firsts = [next(d for d in degrees if any(gm.slices[d][1]))
              for degrees in (range(3), range(2, 4))]
    assert [d + true_shift for d in firsts] == [0, 2]
    monkeypatch.setattr(ScreeningOp, "degree_shift", lambda self: true_shift + 1)
    for degrees, first in zip((range(3), range(2, 4)), firsts):
        with pytest.raises(ShapeMismatch, match=f"image of degree {first + true_shift} "
                                                "missing from target slice"):
            residue_map(ops[0], degrees)


def test_residue_map_shifting_prefactor_raises():
    # a prefactor that is not a (scaled) generator is refused when the op is
    # made, so no residue map sees one: here one that shifts the momentum,
    # one that does not, one scaled, and a generator the system lacks
    sys, ops = gl11_build(*GL11)()
    op = ops[0]
    for prefactor in (nord(gen("b"), op.exp), nord(gen("b"), deriv(gen("b"))),
                      scale(2, deriv(gen("b"))), gen("beta")):
        with pytest.raises(InputError, match="screening prefactor"):
            dataclasses.replace(op, prefactor=prefactor)
        with pytest.raises(InputError, match="screening prefactor"):
            ScreeningOp(sys, op.exp, op.source, prefactor)


def test_at_refuses_a_source_of_the_wrong_length():
    # a one-eigenvalue source on the three-boson super sl2 coset system: Momentum
    # addition and exp_power would truncate it and give kernel dims, no error
    spec = cat.get_realization("super-sl:2:coset", Fraction(1, 3))
    assert len(spec.system.heis_indices) == 3
    op = spec.screenings[0]
    for values in ((Fraction(1),), (Fraction(0),) * 4):
        with pytest.raises(MomentumMismatch, match="eigenvalues"):
            op.at(Momentum(values))


def test_degree_shift_and_target_read_the_exponential_record(monkeypatch):
    """An op's degree shift is its prefactor's weight - 1 - c(lambda|source) and
    its target is source + shift, both read off the exponential's record: the
    pairing is taken once per (exponential, source), for the op and its
    residue map alike."""
    calls = []
    pair = fields.exp_power
    monkeypatch.setattr(fields, "exp_power", lambda op, mu: calls.append(mu) or pair(op, mu))
    specs = [cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)), cat.rank1_ff(Fraction(7, 2)),
             cat.get_realization("super-so:2:miura", Fraction(16, 7)),
             cat.get_realization("subregular-sl:2:coset", T)]
    for spec in specs:
        for op in spec.screenings:
            calls.clear()
            shifts = {op.degree_shift() for _ in range(3)}
            targets = {op.target() for _ in range(3)}
            residue_map(op, range(2))
            assert calls == [op.source]
            w = 0 if op.prefactor is None else 1  # every prefactor here is of weight 1
            assert shifts == {w - 1 - pair(op.exp, op.source)}
            assert targets == {op.source + op.exp.shift}
            rec = _expop_record(op.system, op.exp, op.source)
            assert (rec.p, rec.target) == (pair(op.exp, op.source), op.source + op.exp.shift)


def test_momenta_of_different_lengths_do_not_pair():
    # the same three-boson system: adding a one-eigenvalue momentum, or pairing
    # the screening's direction with a momentum too short or too long, used to
    # truncate (or raise IndexError) where it now refuses
    spec = cat.get_realization("super-sl:2:coset", Fraction(1, 3))
    op = spec.screenings[0]
    with pytest.raises(MomentumMismatch, match="momenta of 3 and 1 eigenvalues"):
        op.source + Momentum((Fraction(1),))
    with pytest.raises(MomentumMismatch, match="momenta of 1 and 3 eigenvalues"):
        Momentum((Fraction(1),)) + op.source
    for values in ((Fraction(1),), (Fraction(0),) * 4):
        with pytest.raises(MomentumMismatch, match=f"momentum of {len(values)} eigenvalues"):
            exp_power(op.exp, Momentum(values))
    assert exp_power(op.exp, op.source) == -op.degree_shift() - 1
    # a direction is checked when its exponential is made: one entry used to
    # give a shift read off that entry alone, four a bare IndexError
    for direction in ((1,), (1, 0, 0, 0)):
        with pytest.raises(MomentumMismatch,
                           match=f"direction of {len(direction)} entries on a system of 3"):
            exp_op(spec.system, 1, direction)


def test_oracle_comparison_negative_control(gl11_oracle):
    # one E+ contraction factor off by 1 in the record of S[1], as a value and
    # over its denominator D, the form the integer core reads; S[0] still matches
    sys, ops = gl11_build(*GL11)()
    op = ops[1]
    rec = _expop_record(sys, op.exp, op.source)
    s = next(iter(rec.factors))
    rec.factors[s] += 1
    D, zf = rec.zfactors
    zf[s] += D
    with pytest.raises(AssertionError) as failure:
        compare_with_oracle(ops, gl11_oracle, range(4))
    assert op.name in str(failure.value)


# ---------------------------------------------------------------------------
# residue slices from cold and warm splits
# ---------------------------------------------------------------------------
# A source slice is read from its basis's Split, kept for the process and
# shared by every System of the signature, so one coset side warms the other.
# Built cold (no split kept) or warm, in either order of the sides, every
# slice must be the same, entry for entry, with the same Z.

COSET_SPLIT_CASES = [("sl", 2, 5), ("so", 3, 4)]


def coset_sides(pair, n, k1):
    """The screenings of the subregular and the super coset side at k1."""
    lv = cat.LevelData.from_k1(pair, n, k1)
    return [cat.subregular_realization(pair, n, lv.k1, "coset").screenings,
            cat.principal_super_realization(pair, n, lv.k2, "coset").screenings]


def typed_slices(gm):
    return {d: (Z, [{i: (type(v), v) for i, v in c.items()} for c in columns], m)
            for d, (Z, columns, m) in gm.slices.items()}


def empty_splits():
    for basis in fock._BASES.values():
        basis[3].clear()


@pytest.mark.parametrize("k1", [Fraction(16, 7), T], ids=str)
@pytest.mark.parametrize("pair,n,top", COSET_SPLIT_CASES)
def test_coset_slices_from_cold_and_warm_splits_agree(pair, n, top, k1):
    sides, degrees = coset_sides(pair, n, k1), range(top + 1)
    assert sides[0][0].system._splits is sides[1][0].system._splits  # one signature
    cold = []
    for ops in sides:
        for op in ops:
            empty_splits()
            cold.append(typed_slices(residue_map(op, degrees)))
    assert all(any(c for _, columns, _ in gm.values() for c in columns) for gm in cold)
    for order in (sides, sides[::-1]):
        empty_splits()
        warm = [typed_slices(residue_map(op, degrees)) for ops in order for op in ops]
        if order is not sides:
            warm = warm[len(order[0]):] + warm[:len(order[0])]
        assert warm == cold, order is sides
