"""End-to-end verification suites with exact pass/fail certificates.

Each suite builds catalog data, computes both sides of an identity exactly,
and emits a Report whose items carry the expected and computed values as
strings; every comparison is exact equality of canonical forms.  `battery`
writes each named check of `wcoset verify` down once, with its levels,
degrees and sample counts: `full_battery` runs every row, and the acceptance
suite runs the rows of each criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import catalog as cat
from . import rootdata as rd
from .errors import NonEnumerable, ResourceBound, ZeroK1
from .fields import (current_gram, gen, l0_apply, lc_scale, lc_str, lc_sum,
                     mode_apply, nord, ope_poles, sadd, scale, state_of_field)
from .fock import FockState, System, graded_dimension, slice_dimension
from .linalg import SYMBOLIC_DIM_LIMIT
from .scalars import T, linear_zeros
from .screening import annihilates, compose_check, joint_kernel, residue_map


@dataclass
class ReportItem:
    id: str
    expected: str
    computed: str
    equal: bool


@dataclass
class PerDegree:
    degree: int
    dim_left: int
    dim_right: Optional[int] = None

    @property
    def equal(self) -> bool:
        return self.dim_right is None or self.dim_left == self.dim_right


@dataclass
class Report:
    suite: str
    inputs: dict = field(default_factory=dict)
    items: list = field(default_factory=list)
    per_degree: list = field(default_factory=list)

    def add(self, ident: str, expected, computed) -> bool:
        ok = expected == computed
        self.items.append(ReportItem(ident, str(expected), str(computed), ok))
        return ok

    def add_check(self, ident: str, ok: bool, expected="pass", computed=None):
        self.items.append(ReportItem(ident, str(expected),
                                     str(computed if computed is not None
                                         else ("pass" if ok else "fail")), ok))
        return ok

    @property
    def status(self) -> str:
        ok = all(i.equal for i in self.items) and all(p.equal for p in self.per_degree)
        return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------

def _series_mul(a, b, n):
    out = [0] * (n + 1)
    for i in range(min(len(a), n + 1)):
        if a[i] == 0:
            continue
        for j in range(min(len(b), n + 1 - i)):
            out[i + j] += a[i] * b[j]
    return out


def _boson_factor(weights, n):
    """prod over mode degrees (1 - q^d)^-1, d from the weight list."""
    out = [1] + [0] * n
    for d in weights:
        if d == 0:
            raise NonEnumerable("weight-0 bosonic modes give infinite slices")
        for m in range(d, n + 1):
            out[m] += out[m - d]
    return out


def _fermion_factor(weights, n):
    """prod over mode degrees (1 + q^d), d from the weight list."""
    out = [1] + [0] * n
    for d in weights:
        for m in range(n, d - 1, -1):  # descending: out[m - d] is not yet updated
            out[m] += out[m - d]
    return out


def character_oracle(sys: System, max_degree: int):
    """Per-degree dims from the Euler product; independent of enumeration."""
    n = max_degree
    out = [1] + [0] * n
    for sp in sys.species:
        degs = [d - 1 + sp.engine_weight for d in range(1, n + 2)
                if 0 <= d - 1 + sp.engine_weight <= n]
        out = _series_mul(out, (_fermion_factor if sp.odd else _boson_factor)(degs, n), n)
    return out


def gl11_pbw_character(max_degree: int):
    """prod (1+q^m)^2 (1-q^m)^-2: two odd and two even weight-1 generators."""
    n = max_degree
    f = _fermion_factor(list(range(1, n + 1)), n)
    b = _boson_factor(list(range(1, n + 1)), n)
    return _series_mul(_series_mul(f, f, n), _series_mul(b, b, n), n)


def generic_rational(rng: random.Random, exclude=()) -> Fraction:
    """A seeded random generic rational avoiding the given exclusions."""
    for _ in range(1000):
        q = Fraction(rng.randint(-27, 27), rng.randint(2, 9))
        if q.denominator == 1:
            continue
        if any(q == x for x in exclude):
            continue
        return q
    raise RuntimeError("could not sample a generic rational")


# ---------------------------------------------------------------------------
# homomorphism and covariance suites
# ---------------------------------------------------------------------------

def check_homomorphism(spec: cat.RealizationSpec) -> Report:
    """OPEs of the mapped generators match the bracket table and form exactly."""
    rep = Report("homomorphism", {"key": spec.key})
    sys = spec.system
    vac = sys.vacuum()
    states = {nm: state_of_field(sys, expr) for nm, expr in spec.generator_map.items()}
    for (u, v), st in spec.structure.items():
        poles = ope_poles(sys, spec.generator_map[u], states[v])
        expect1 = {}
        for w, cf in st.fields.items():
            expect1 = lc_sum(expect1, lc_scale(states[w], cf))
        if st.central1 != 0:
            expect1 = lc_sum(expect1, {vac: st.central1})
        expect2 = {vac: st.central2} if st.central2 != 0 else {}
        ok = (poles.get(1, {}) == expect1
              and poles.get(2, {}) == expect2
              and all(p <= 2 for p in poles))
        rep.add_check(
            f"ope({u},{v})", ok,
            expected=f"{{1: {lc_str(sys, expect1)}, 2: {lc_str(sys, expect2)}}}",
            computed="match" if ok else
            f"{{{', '.join(f'{p}: {lc_str(sys, lc)}' for p, lc in sorted(poles.items()))}}}")
    return rep


def check_screening_covariance(spec: cat.RealizationSpec, perturb: Optional[str] = None) -> Report:
    """Companion intertwiners transform in the 2-dim g0-module they realize."""
    rep = Report("covariance", {"key": spec.key, "perturb": perturb or ""})
    sys = spec.system
    comps = dict(spec.companions)
    if perturb == "flip-companion":
        comps["upper"] = scale(-1, comps["upper"])
    states = {nm: state_of_field(sys, expr) for nm, expr in comps.items()}
    for current, table in spec.covariance.items():
        img = spec.generator_map[current]
        for beta, action in table.items():
            got = mode_apply(sys, img, 0, states[beta])
            expect = {}
            for target, cf in action.items():
                expect = lc_sum(expect, lc_scale(states[target], cf))
            ok = got == expect
            rep.add_check(f"{current}.v[{beta}]", ok,
                          expected=lc_str(sys, expect),
                          computed=lc_str(sys, got) if not ok else "match")
    return rep


# ---------------------------------------------------------------------------
# resolution and duality suites
# ---------------------------------------------------------------------------

def check_resolution(k1: Fraction, k2: Fraction, max_degree: int = 3,
                     terms: int = 2, cap: Optional[int] = None) -> Report:
    """Finite-degree shadow of the two-sided Fock resolution at k1 != 0."""
    if k1 == 0:
        raise ZeroK1("the resolution needs k1 != 0")
    rep = Report("resolution", {"k1": str(k1), "k2": str(k2),
                                "max_degree": max_degree, "terms": terms})
    spec = cat.gl11_wakimoto(k1, k2)
    sys = spec.system
    S0 = spec.screenings[0]
    for name, img in spec.generator_map.items():
        v = state_of_field(sys, img)
        rep.add_check(f"S(rho({name}))=0", annihilates([S0], v))
    # one map per chain screening, each over the degrees the previous lands in;
    # the re-sourced copies of S0 share one memo, dropped before the products
    maps, degrees, memo = [], range(max_degree + 2), {}
    for i in range(terms + 1):
        maps.append(residue_map(cat.wakimoto_shifted_screening(spec, i), degrees, cap, memo))
        degrees = [d + maps[-1].degree_shift for d in degrees]
    memo.clear()
    for i in range(terms):
        out = compose_check(maps[i + 1], maps[i]).values()
        rep.add_check(f"S.S=0 on W[-{i}a]..W[-{i + 2}a]",
                      False not in out and True in out)
    degrees = range(max_degree + 1)
    dims = joint_kernel(maps[:1], degrees)
    expect = gl11_pbw_character(max_degree)
    for d in degrees:
        rep.per_degree.append(PerDegree(d, expect[d], dims[d]))
    rep.add("ker dims", expect, dims)
    return rep


def check_rank1_ff_duality(K: Fraction, max_degree: int = 6,
                           cap: Optional[int] = None) -> Report:
    """The two dual rank-1 screenings cut out the same graded subspace sizes."""
    rep = Report("rank1-ff", {"K": str(K), "max_degree": max_degree})
    degrees = range(max_degree + 1)
    dims = [_screening_kernel([op], degrees, cap) for op in cat.rank1_ff(K).screenings]
    oracle = _boson_factor(list(range(2, max_degree + 1)), max_degree)
    for d in degrees:
        rep.per_degree.append(PerDegree(d, dims[0][d], dims[1][d]))
    rep.add("dims(e^a) vs oracle", oracle, dims[0])
    rep.add("dims(e^(-a/K)) vs oracle", oracle, dims[1])
    return rep


def gram_of_coset(sys: System):
    """Engine gram of the coset basis currents (matches the pairing table)."""
    return current_gram(sys, [gen(sp.name) for sp in sys.species])


def _screening_kernel(ops, degrees, cap: Optional[int] = None):
    """The joint kernel dims of the residue maps of the screenings ops, per degree."""
    return joint_kernel([residue_map(op, degrees, cap) for op in ops], degrees)


def check_coset_duality(pair: str, n: int, k1: Fraction, max_degree: int = 4,
                        cap: Optional[int] = None, symbolic: bool = True,
                        symbolic_kernels: int = 0) -> Report:
    """Coset duality at dual levels: per degree, the dims of the joint kernels
    of the subregular and the super coset screenings (also over Q(t) through
    degree symbolic_kernels), and, with symbolic, the equal Gram of the two
    coset systems at the formal level.  It compares dimensions only, not the
    two kernels as one subspace of one Fock space."""
    lv = cat.LevelData.from_k1(pair, n, k1)
    s1 = lv.excluded_sets()["S1"]
    if k1 in s1:
        raise cat.ExcludedLevel(f"k1 = {k1} lies in the excluded set S1 = "
                                f"{{{', '.join(str(x) for x in sorted(s1))}}}")
    rep = Report("coset-duality", {"pair": pair, "n": n, "k1": str(k1),
                                   "k2": str(lv.k2), "max_degree": max_degree})
    if symbolic:  # the coset Systems alone: no screening is read
        lv_sym = cat.LevelData.from_k1(pair, n, T)
        sub_sys, sup_sys = (cat.form_system(fam, "coset", lv_sym)
                            for fam in ("subregular", "super"))
        rep.add_check("gram equality (symbolic K)", sub_sys.pairing == sup_sys.pairing)
        rep.add_check("engine gram = table (symbolic)",
                      [list(row) for row in sub_sys.pairing] == gram_of_coset(sub_sys))
    if symbolic_kernels:
        sub_sym = cat.subregular_realization(pair, n, T, "coset")
        sup_sym = cat.principal_super_realization(pair, n, cat.dual_level(pair, n, T), "coset")
        # kernel dims over the rational-function field: a generic-level
        # certificate, valid away from the vanishing loci of the pivots
        degrees = range(min(symbolic_kernels, max_degree) + 1)
        # a source slice too wide for symbolic elimination fails before any map
        for spec in (sub_sym, sup_sym):
            if max(slice_dimension(spec.system, d) for d in degrees) > SYMBOLIC_DIM_LIMIT:
                raise ResourceBound(
                    f"symbolic elimination limited to {SYMBOLIC_DIM_LIMIT} columns")
        rep.add("symbolic kernel dims agree",
                *(_screening_kernel(s.screenings, degrees, cap) for s in (sub_sym, sup_sym)))
    sub = cat.subregular_realization(pair, n, lv.k1, "coset")
    sup = cat.principal_super_realization(pair, n, lv.k2, "coset")
    degrees = range(max_degree + 1)
    left, right = (_screening_kernel(s.screenings, degrees, cap) for s in (sub, sup))
    for d in degrees:
        rep.per_degree.append(PerDegree(d, left[d], right[d]))
    return rep


def check_coset_currents(pair: str, n: int, k1: Fraction) -> Report:
    """H1 and H2 are killed by every screening of their Miura systems."""
    rep = Report("coset-currents", {"pair": pair, "n": n, "k1": str(k1)})
    cur = cat.distinguished_currents(pair, n, k1)
    for name, (spec, expr) in cur.items():
        sys = spec.system
        v = state_of_field(sys, expr)
        for op in spec.screenings:
            rep.add_check(f"{name} in Ker {op.name} [{spec.key}]",
                          annihilates([op], v))
    return rep


def check_ks(pair: str, n: int, k2, perturb: Optional[str] = None) -> Report:
    """Kazama-Suzuki orthogonality and gram normalizations, exact."""
    lv = cat.LevelData.from_k2(pair, n, k2)
    rep = Report("kazama-suzuki", {"pair": pair, "n": n, "k2": str(k2),
                                   "perturb": perturb or ""})
    ks = cat.ks_fields(pair, n, lv.k2)
    r = rd.lacity(pair)
    K, K2 = lv.K1, lv.K2

    sys_a = ks.side_a.system
    fa = dict(ks.side_a.generator_map)
    if perturb == "drop-psi":
        fa["A1"] = sadd(scale(Fraction(r), gen("a1")), scale(-1, gen("phi")))
    # one Gram per side, bordered by H~2: G is its lower right block
    Gh = current_gram(sys_a, [fa[nm] for nm in ["Ht2", "X", "Y"]]
                      + [fa[f"A{i}"] for i in range(1, n + 1)])
    G = [row[1:] for row in Gh[1:]]
    rep.add("gram(X,X),(X,Y),(Y,Y)", ["1", "0", "-1"],
            [str(G[0][0]), str(G[0][1]), str(G[1][1])])
    ok = all(G[0][2 + i] == 0 and G[1][2 + i] == 0 for i in range(n))
    rep.add_check("X,Y regular with all A_i", ok)
    G1 = rd.g1_gram(pair, n)
    target = [[G1[i][j] / K for j in range(n)] for i in range(n)]
    got = [[G[2 + i][2 + j] for j in range(n)] for i in range(n)]
    rep.add_check("gram(A) = g1 form / K", got == target,
                  computed="match" if got == target else str(got))
    rep.add_check("H~2 orthogonal to X, Y, A_i",
                  all(x == 0 for x in Gh[0][1:]))

    sys_b = ks.side_b.system
    fb = ks.side_b.generator_map
    Gh1 = current_gram(sys_b, [fb["Ht1"], fb["phit"]] + [fb[f"B{i}"] for i in range(n + 1)])
    Gb = [row[1:] for row in Gh1[1:]]
    rep.add("gram(phi~,phi~)", "1", str(Gb[0][0]))
    rep.add_check("phi~ regular with all B_i", all(x == 0 for x in Gb[0][1:]))
    G2 = rd.g2_gram(pair, n)
    target_b = [[G2[i][j] / K2 for j in range(n + 1)] for i in range(n + 1)]
    got_b = [[Gb[1 + i][1 + j] for j in range(n + 1)] for i in range(n + 1)]
    rep.add_check("gram(B) = g2 form / K2", got_b == target_b,
                  computed="match" if got_b == target_b else str(got_b))
    rep.add_check("H~1 orthogonal to phi~, B_i",
                  all(x == 0 for x in Gh1[0][1:]))
    return rep


def norm_degeneracy(pair: str, n: int) -> Report:
    """Zeros of the coset current norms equal the degeneracy constants."""
    rep = Report("norm-degeneracy", {"pair": pair, "n": n})
    x1, x2 = cat.degeneracy_constants(pair, n)
    sub = cat.subregular_realization(pair, n, T, "miura")
    h1cur = sub.distinguished["H1"]
    f = current_gram(sub.system, [h1cur])[0][0]
    rep.add(f"zeros (H1|H1) = [x1] (x1={x1})", [x1], linear_zeros(f))
    sup = cat.principal_super_realization(pair, n, T, "miura")
    h2cur = sup.distinguished["H2"]
    g = current_gram(sup.system, [h2cur])[0][0]
    rep.add(f"zeros (H2|H2) = [x2] (x2={x2})", [x2], linear_zeros(g))
    if pair == rd.SL and n == 2:
        rep.add("(H1|H1) closed form", str(Fraction(2, 3) * (T + 3) - 1), str(f))
    return rep


def delta_samples(rng: random.Random, count: int) -> list:
    """Seeded (k1, k2, m1, m2) weights for check_delta, with k1 != 0."""
    return [(generic_rational(rng, exclude=[Fraction(0)]), generic_rational(rng),
             Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(count)]


def check_delta(samples) -> Report:
    """Engine L0 on the weight-mu top states matches the dimension formula."""
    rep = Report("delta", {"samples": len(samples)})
    for (k1, k2, m1, m2) in samples:
        if k1 == 0:
            raise ZeroK1("sample with k1 = 0")
        spec = cat.gl11_wakimoto(k1, k2)
        sys = spec.system
        mu = cat.wakimoto_momentum(sys, m1, m2)
        nl, el = cat.wakimoto_labels(m1, m2)
        delta = cat.delta_conformal(nl, el, k1, k2, "minus")
        for label, modes in (("|mu>", ()), ("c(-1)|mu>", ((sys.index["c"], 1),))):
            st = FockState(mu, modes)
            got = l0_apply(sys, spec.conformal, st)
            expect = {st: delta} if delta != 0 else {}
            rep.add_check(f"L0 {label} (k1={k1},k2={k2},mu=({m1},{m2}))",
                          got == expect,
                          expected=f"{delta} * state",
                          computed=lc_str(sys, got))
    return rep


def check_counting(max_degree: int = 8) -> Report:
    """Enumerated slice sizes and the Euler-product oracle agree on catalog systems."""
    rep = Report("counting", {"max_degree": max_degree})
    for key, sys in cat.enumerable_counting_systems():
        mu = sys.zero_momentum()
        left = graded_dimension(sys, mu, range(max_degree + 1))
        right = character_oracle(sys, max_degree)
        rep.add(f"dims {key}", right, left)
    return rep


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def _merge(into: Report, sub: Report, prefix: str) -> None:
    for i in sub.items:
        into.items.append(ReportItem(f"{prefix}: {i.id}", i.expected, i.computed, i.equal))
    for p in sub.per_degree:
        into.add_check(f"{prefix}: degree {p.degree}", p.equal, expected=p.dim_left,
                       computed=p.dim_left if p.dim_right is None else p.dim_right)


def battery(rng: random.Random, cap=None):
    """Yield (criterion, label, suite, args) per check of `wcoset verify`, in order.

    criterion is the acceptance criterion that runs the row (None if none); a
    random level is drawn from rng, and a spec built, when its row is made.
    """
    for k2 in (Fraction(1, 3), Fraction(-5, 7)):
        yield (1, f"gl11 hom (k1=t, k2={k2})", check_homomorphism,
               (cat.gl11_wakimoto(T, k2),))
    yield 1, "gl11 hom (k1=k2=t)", check_homomorphism, (cat.gl11_wakimoto(T, T),)
    for pair in rd.PAIRS:
        yield (None, f"sl2 wakimoto ({pair})", check_homomorphism,
               (cat.subregular_realization(pair, 2, T, "miura"),))
        yield (2, f"fms images ({pair})", check_homomorphism,
               (cat.subregular_realization(pair, 2, Fraction(-14, 5), "bosonized"),))
        yield (2, f"boson-fermion images ({pair})", check_homomorphism,
               (cat.principal_super_realization(pair, 2, Fraction(3), "bosonized"),))
        for n in (2, 3):
            yield (None, f"covariance subregular-{pair}:{n}", check_screening_covariance,
                   (cat.subregular_realization(pair, n, T, "miura"),))
            yield (None, f"covariance super-{pair}:{n}", check_screening_covariance,
                   (cat.principal_super_realization(pair, n, T, "miura"),))
    yield (3, "resolution (7/2, 1/3)", check_resolution,
           (Fraction(7, 2), Fraction(1, 3), 3, 2, cap))
    k2 = generic_rational(rng, exclude=[Fraction(0)])
    k1 = generic_rational(rng, exclude=[Fraction(0)])
    yield 3, f"resolution ({k1}, {k2})", check_resolution, (k1, k2, 2, 2, cap)
    for K in (Fraction(7, 2), Fraction(5, 3)):
        yield 4, f"rank1 ff (K={K})", check_rank1_ff_duality, (K, 6, cap)
    for pair, n, k1, md in (("sl", 2, Fraction(-14, 5), 4),
                            ("so", 2, Fraction(-5, 2), 3)):
        yield 6, f"duality {pair} n={n}", check_coset_duality, (pair, n, k1, md, cap)
        k = generic_rational(rng, exclude=cat.s1_levels(pair, n))
        yield (6, f"duality {pair} n={n} random k1={k}", check_coset_duality,
               (pair, n, k, min(md, 3), cap, False))
    for pair in rd.PAIRS:
        for n in (2, 3):
            k = generic_rational(rng, exclude=cat.s1_levels(pair, n))
            yield 7, f"currents {pair} n={n}", check_coset_currents, (pair, n, k)
            yield 9, f"ks {pair} n={n}", check_ks, (pair, n, T)
        for n in (1, 2, 3):
            yield 8, f"norm {pair} n={n}", norm_degeneracy, (pair, n)
    yield 10, "delta", check_delta, (delta_samples(rng, 5),)
    # counting is pure enumeration (no matrices); the slice cap is for screenings
    yield 11, "counting", check_counting, (8,)


def full_battery(rng: random.Random, cap=None) -> Report:
    """Run every row of the battery, then the negative controls; the CLI's `verify` verb."""
    rep = Report("verify", {})
    for _, label, suite, args in battery(rng, cap):
        _merge(rep, suite(*args), label)
    for name in NEGATIVE_CONTROLS:
        neg = run_negative_control(name)
        rep.add_check(f"negative control {name} fails", neg.status == "fail")
    return rep


NEGATIVE_CONTROLS = ("drop-dc", "flip-companion", "drop-psi")


def run_negative_control(name: str) -> Report:
    if name == "drop-dc":
        spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
        spec.generator_map["E21"] = nord(gen("c"), sadd(gen("x1"), gen("x2")))
        rep = check_homomorphism(spec)
        rep.inputs["perturb"] = name
        return rep
    if name == "flip-companion":
        spec = cat.subregular_realization(rd.SL, 2, Fraction(-14, 5), "miura")
        return check_screening_covariance(spec, perturb=name)
    if name == "drop-psi":
        return check_ks(rd.SL, 2, Fraction(3), perturb=name)
    raise cat.InputError(f"unknown negative control {name!r}")
