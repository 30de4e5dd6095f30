"""The catalog of concrete constructions: systems, generator maps, screenings, currents.

Every realization is packaged as a RealizationSpec: a registered free-field
system, a named generator map, the screening operators, distinguished
currents, and (where applicable) a conformal field, an OPE structure table
for homomorphism checking, and companion intertwiner data for covariance
checking.

Levels.  A realization is built at an exact level, either a Fraction or a
RatFun in the formal parameter t.  The two sides of the duality are linked by
r (k1 + h1)(k2 + h2) = 1; `dual_level` inverts it exactly.  Momenta are
labeled by zero-mode eigenvalues; every exponential operator carries the
canonical shift T_{c lambda} (whose eigenvalue shift is forced by the mode
algebra), which reproduces the displayed shift operators such as T_{-alpha}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import rootdata as rd
from .errors import ExcludedLevel, InputError, ZeroK1
from .fields import (ExpOp, FieldExpr, deriv, direction_of, gen, heis_comb,
                     nord, sadd, scale)
from .fock import Momentum, System, boson_pair, fermion_pair, heis, register_system
from .scalars import RatFun, Scalar, sc_is_zero

Level = Union[Fraction, RatFun]


# ---------------------------------------------------------------------------
# pair constants and levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairTag:
    pair: str
    n: int

    def __post_init__(self):
        rd.check_pair(self.pair)
        if self.n < 1:
            raise InputError("rank n must be >= 1")

    @property
    def r(self) -> int:
        return rd.lacity(self.pair)

    @property
    def h1(self) -> int:
        return rd.h1(self.pair, self.n)

    @property
    def h2(self) -> int:
        return rd.h2(self.pair, self.n)


def degeneracy_constants(pair: str, n: int):
    """The levels (x1, x2) where the coset Heisenberg currents degenerate."""
    rd.check_pair(pair)
    if pair == rd.SL:
        return Fraction(1, n) - n, Fraction(-n * n, n + 1)
    return Fraction(2 - 2 * n), Fraction(1, 2) - n


def s1_levels(pair: str, n: int) -> set:
    """The excluded set S1 = {-h1, x1} of subregular levels k1."""
    x1, _ = degeneracy_constants(pair, n)
    return {Fraction(-rd.h1(pair, n)), x1}


def dual_level(pair: str, n: int, k1: Level) -> Level:
    tag = PairTag(pair, n)
    shifted = k1 + tag.h1
    if sc_is_zero(shifted):
        raise ExcludedLevel(f"k1 = {k1} lies in the excluded set K1 = {{{-tag.h1}}}")
    return -tag.h2 + 1 / (tag.r * shifted)


@dataclass(frozen=True)
class LevelData:
    pair: str
    n: int
    k1: Level
    k2: Level

    def __post_init__(self):
        tag = PairTag(self.pair, self.n)
        prod = tag.r * (self.k1 + tag.h1) * (self.k2 + tag.h2)
        if prod != 1:
            raise ExcludedLevel(
                f"levels k1={self.k1}, k2={self.k2} violate the duality relation")

    @staticmethod
    def from_k1(pair: str, n: int, k1: Level) -> "LevelData":
        return LevelData(pair, n, k1, dual_level(pair, n, k1))

    @staticmethod
    def from_k2(pair: str, n: int, k2: Level) -> "LevelData":
        tag = PairTag(pair, n)
        shifted = k2 + tag.h2
        if sc_is_zero(shifted):
            raise ExcludedLevel(f"k2 = {k2} lies in the excluded set K2 = {{{-tag.h2}}}")
        return LevelData(pair, n, -tag.h1 + 1 / (tag.r * shifted), k2)

    @property
    def K1(self) -> Level:
        return self.k1 + PairTag(self.pair, self.n).h1

    @property
    def K2(self) -> Level:
        return self.k2 + PairTag(self.pair, self.n).h2

    def excluded_sets(self):
        tag = PairTag(self.pair, self.n)
        _, x2 = degeneracy_constants(self.pair, self.n)
        return {"K1": {Fraction(-tag.h1)}, "K2": {Fraction(-tag.h2)},
                "S1": s1_levels(self.pair, self.n), "S2": {Fraction(-tag.h2), x2}}


def is_admissible_k1(pair: str, n: int, k: Fraction) -> bool:
    if isinstance(k, RatFun):
        return False
    if pair == rd.SL:
        u = (k + n + 1) * n
        return u.denominator == 1 and u > n and math.gcd(int(u), n) == 1
    for v in (2 * n - 1, 2 * n):
        u = (k + 2 * n - 1) * v
        if u.denominator == 1 and u > v and math.gcd(int(u), v) == 1:
            return True
    return False


def delta_conformal(n_label: Scalar, e_label: Scalar, k1: Scalar, k2: Scalar,
                    which: str = "minus") -> Scalar:
    """Top-space conformal dimension of the weight-(n,e) Verma variants.

    `which` selects the highest ("plus") or lowest ("minus") Verma module; the
    Wakimoto module over |mu> realizes the "minus" one at the labels n(mu),
    e(mu).
    """
    if sc_is_zero(k1):
        raise ZeroK1("the Sugawara field needs k1 != 0")
    if which not in ("plus", "minus"):
        raise InputError("which must be 'plus' or 'minus'")
    sign = -1 if which == "plus" else 1
    e, n = e_label, n_label
    return ((1 - k2) / k1 * e * e + 2 * e * n + sign * e) / (2 * k1)


def wakimoto_labels(m1: Scalar, m2: Scalar):
    """(n(mu), e(mu)) from the chi-basis coefficients of the weight mu."""
    return (m1 + m2) / 2 - 1, m1 - m2


# ---------------------------------------------------------------------------
# realization container
# ---------------------------------------------------------------------------

@dataclass
class StructurePair:
    fields: dict          # generator name -> coefficient in the bracket
    central1: Scalar = 0  # first-order-pole vacuum coefficient
    central2: Scalar = 0  # second-order-pole vacuum coefficient


@dataclass
class Companion:
    name: str
    expr: FieldExpr
    # u . v_beta tables: current name -> {companion name -> coefficient}


@dataclass
class RealizationSpec:
    key: str
    system: System
    generator_map: dict
    screenings: list
    level: LevelData | None = None
    conformal: Optional[FieldExpr] = None
    distinguished: dict = field(default_factory=dict)
    structure: dict = field(default_factory=dict)   # (u, v) -> StructurePair
    companions: dict = field(default_factory=dict)  # name -> FieldExpr
    covariance: dict = field(default_factory=dict)  # current -> {comp -> {comp: c}}


def canonical_shift(sys: System, c: Scalar, direction) -> Momentum:
    """The T_{c lambda} momentum: eigenvalue shift forced by the mode algebra."""
    vals = []
    for j in range(len(sys.heis_indices)):
        acc = 0
        for i, x in enumerate(direction):
            if sc_is_zero(x):
                continue
            acc = acc + x * sys.pairing[i][j]
        acc = acc * c
        vals.append(acc if not isinstance(acc, int) else Fraction(acc))
    label = None
    if sys.lattice_indices:
        label = []
        for idx in sys.lattice_indices:
            x = direction[sys.heis_pos[idx]] * c
            if isinstance(x, RatFun):
                x = x.as_rat()
            x = Fraction(x)
            if x.denominator != 1:
                raise InputError("lattice shift must have integer coordinates")
            label.append(int(x))
        # off-lattice coordinates of the direction must not shift the label
    return Momentum(tuple(vals), tuple(label) if label is not None else None)


def make_screening(sys: System, c: Scalar, direction, source: Momentum,
                   prefactor: Optional[FieldExpr] = None, name: str = "S"):
    from .screening import ScreeningOp
    return ScreeningOp(sys, c, tuple(direction), canonical_shift(sys, c, direction),
                       source, prefactor, name)


# ---------------------------------------------------------------------------
# gl(1|1) Wakimoto realization (the engine's core construction)
# ---------------------------------------------------------------------------

def gl11_pairing_table(k1: Scalar, k2: Scalar):
    return [[k1 + k2 - 1, 1 - k2], [1 - k2, k2 - k1 - 1]]


def gl11_structure(k1: Scalar, k2: Scalar) -> dict:
    """gl(1|1) bracket and form; the form is antisymmetric on the odd part."""
    S = StructurePair
    t = {
        ("E11", "E11"): S({}, central2=k1 + k2),
        ("E22", "E22"): S({}, central2=k2 - k1),
        ("E11", "E22"): S({}, central2=-k2),
        ("E22", "E11"): S({}, central2=-k2),
        ("E12", "E21"): S({"E11": 1, "E22": 1}, central2=k1),
        ("E21", "E12"): S({"E11": 1, "E22": 1}, central2=-k1),
        ("E11", "E12"): S({"E12": 1}), ("E12", "E11"): S({"E12": -1}),
        ("E11", "E21"): S({"E21": -1}), ("E21", "E11"): S({"E21": 1}),
        ("E22", "E12"): S({"E12": -1}), ("E12", "E22"): S({"E12": 1}),
        ("E22", "E21"): S({"E21": 1}), ("E21", "E22"): S({"E21": -1}),
        ("E12", "E12"): S({}), ("E21", "E21"): S({}),
    }
    return t


def gl11_wakimoto(k1: Scalar, k2: Scalar) -> RealizationSpec:
    """Free-field image of the affine gl(1|1) currents, with screening."""
    if sc_is_zero(k1):
        raise ZeroK1("the gl(1|1) screening needs k1 != 0")
    b, c = fermion_pair("b", "c")
    sys = register_system([b, c, heis("x1"), heis("x2")], gl11_pairing_table(k1, k2))
    chi1, chi2 = gen("x1"), gen("x2")
    chi_sum = sadd(chi1, chi2)
    gmap = {
        "E12": gen("b"),
        "E21": sadd(nord(gen("c"), chi_sum), scale(k1, deriv(gen("c")))),
        "E11": sadd(scale(-1, nord(gen("c"), gen("b"))), chi1),
        "E22": sadd(nord(gen("c"), gen("b")), chi2),
    }
    conformal = sadd(
        nord(deriv(gen("c")), gen("b")),
        scale((1 - k2) / (2 * k1 * k1), nord(chi_sum, chi_sum)),
        scale(Fraction(1, 2) / k1,
              sadd(nord(chi1, chi1), scale(-1, nord(chi2, chi2)), deriv(chi_sum))),
    )
    lam = direction_of(sys, {"x1": Fraction(1), "x2": Fraction(1)})
    screening = make_screening(sys, -1 / k1, lam, sys.zero_momentum(),
                               prefactor=gen("b"), name="S")
    return RealizationSpec(
        key="wakimoto-gl11", system=sys, generator_map=gmap,
        screenings=[screening], conformal=conformal,
        structure=gl11_structure(k1, k2))


def wakimoto_momentum(sys: System, m1: Scalar, m2: Scalar) -> Momentum:
    """Fock momentum of the weight with chi-basis coefficients (m1, m2)."""
    return sys.momentum((m1, -m2))


def wakimoto_shifted_screening(spec: RealizationSpec, n_from: int):
    """The resolution map out of the module with weight -n alpha."""
    base = spec.screenings[0]
    src = spec.system.momentum((Fraction(-n_from), Fraction(n_from)))
    return make_screening(spec.system, base.coeff, base.direction, src,
                          prefactor=base.prefactor, name=f"S[{n_from}]")


# ---------------------------------------------------------------------------
# covariance tables
# ---------------------------------------------------------------------------

def _cartan_cov(G, beta_lower, beta_upper, h_coeffs):
    """u.v_beta = -(beta|h) v_beta for a Cartan current direction h."""
    return {
        "lower": {"lower": -rd.pairing(G, beta_lower, h_coeffs)},
        "upper": {"upper": -rd.pairing(G, beta_upper, h_coeffs)},
    }


# ---------------------------------------------------------------------------
# subregular side (g1)
# ---------------------------------------------------------------------------

def _heis_names(lo, hi):
    return [f"a{i}" for i in range(lo, hi + 1)]


def _root_direction(sys: System, names, coeffs):
    return direction_of(sys, {nm: c for nm, c in zip(names, coeffs) if c != 0})


def subregular_realization(pair: str, n: int, k: Level, form: str = "miura") -> RealizationSpec:
    tag = PairTag(pair, n)
    K = k + tag.h1
    if sc_is_zero(K):
        raise ExcludedLevel(f"k = -{tag.h1} is excluded for the subregular side")
    if form == "miura":
        return _subregular_miura(tag, k, K)
    if form == "bosonized":
        return _subregular_bosonized(tag, k, K)
    if form == "coset":
        return _subregular_coset(tag, k, K)
    raise InputError(f"unknown form {form!r}")


def _subregular_miura(tag: PairTag, k: Level, K: Level) -> RealizationSpec:
    n = tag.n
    G = rd.g1_gram(tag.pair, n)
    names = _heis_names(1, n)
    beta, gamma = boson_pair("beta", "gamma")
    table = [[K * G[i][j] for j in range(n)] for i in range(n)]
    sys = register_system([beta, gamma] + [heis(nm) for nm in names], table)
    a1 = gen("a1")
    gmap = {
        "e1": gen("beta"),
        "h1": sadd(scale(-2, nord(gen("gamma"), gen("beta"))), a1),
        "f1": sadd(scale(-1, nord(gen("gamma"), nord(gen("gamma"), gen("beta")))),
                   scale(K - 2, deriv(gen("gamma"))),
                   nord(gen("gamma"), a1)),
    }
    if n >= 2:
        gmap["ht2"] = heis_comb(sys, {nm: c for nm, c in
                                      zip(names, rd.htilde2_g1_coeffs(tag.pair, n))
                                      if c != 0})
        for i in range(3, n + 1):
            gmap[f"h{i}"] = gen(f"a{i}")
    vac = sys.zero_momentum()
    screenings = []
    for i in range(1, n + 1):
        e_i = [Fraction(1) if j == i - 1 else Fraction(0) for j in range(n)]
        lam = _root_direction(sys, names, e_i)
        pref = gen("beta") if i == 1 else None
        screenings.append(make_screening(sys, -1 / K, lam, vac, pref, name=f"Q{i}"))
    omega = rd.omega1_coeffs(tag.pair, n)
    H1 = sadd(heis_comb(sys, dict(zip(names, omega))),
              scale(-1, nord(gen("beta"), gen("gamma"))))
    # sl2 OPE table at level K-2
    S = StructurePair
    structure = {
        ("h1", "h1"): S({}, central2=2 * (K - 2)),
        ("e1", "f1"): S({"h1": 1}, central2=K - 2),
        ("f1", "e1"): S({"h1": -1}, central2=K - 2),
        ("h1", "e1"): S({"e1": 2}), ("e1", "h1"): S({"e1": -2}),
        ("h1", "f1"): S({"f1": -2}), ("f1", "h1"): S({"f1": 2}),
        ("e1", "e1"): S({}), ("f1", "f1"): S({}),
    }
    spec = RealizationSpec(
        key=f"subregular-{tag.pair}:{n}:miura", system=sys, generator_map=gmap,
        screenings=screenings, level=LevelData.from_k1(tag.pair, n, k),
        distinguished={"H1": H1}, structure=structure)
    if n >= 2:
        _attach_subregular_companions(spec, tag, K, names, G)
    return spec


def _attach_subregular_companions(spec, tag: PairTag, K, names, G):
    n = tag.n
    sys = spec.system
    alpha2 = [Fraction(1) if j == 1 else Fraction(0) for j in range(n)]
    lam = _root_direction(sys, names, alpha2)
    exp = ExpOp(-1 / K, lam, canonical_shift(sys, -1 / K, lam))
    spec.companions = {
        "lower": exp,                                   # S_{alpha_2}
        "upper": scale(-1, nord(gen("gamma"), exp)),    # S_{alpha_1 + alpha_2}
    }
    beta_lower = alpha2
    beta_upper = [Fraction(1) if j in (0, 1) else Fraction(0) for j in range(n)]
    cov = {
        "e1": {"lower": {}, "upper": {"lower": Fraction(-1)}},
        "f1": {"lower": {"upper": Fraction(-1)}, "upper": {}},
        "h1": _cartan_cov(G, beta_lower, beta_upper,
                          [Fraction(1)] + [Fraction(0)] * (n - 1)),
    }
    if "ht2" in spec.generator_map:
        cov["ht2"] = _cartan_cov(G, beta_lower, beta_upper,
                                 rd.htilde2_g1_coeffs(tag.pair, n))
    for i in range(3, n + 1):
        h = [Fraction(0)] * n
        h[i - 1] = Fraction(1)
        cov[f"h{i}"] = _cartan_cov(G, beta_lower, beta_upper, h)
    spec.covariance = cov


def _subregular_bosonized(tag: PairTag, k: Level, K: Level) -> RealizationSpec:
    n = tag.n
    G = rd.g1_gram(tag.pair, n)
    names = _heis_names(1, n)
    table = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    full = [[Fraction(0)] * (n + 2) for _ in range(n + 2)]
    full[0][0], full[1][1] = table[0][0], table[1][1]
    for i in range(n):
        for j in range(n):
            full[2 + i][2 + j] = K * G[i][j]
    sys = register_system([heis("x"), heis("y")] + [heis(nm) for nm in names], full,
                          lattice_indices=(0, 1), lattice_gram=[[1, 0], [0, -1]])
    xy = direction_of(sys, {"x": Fraction(1), "y": Fraction(1)})
    e_xy = ExpOp(Fraction(1), xy, canonical_shift(sys, Fraction(1), xy))
    e_xy_m = ExpOp(Fraction(-1), xy, canonical_shift(sys, Fraction(-1), xy))
    gmap = {
        "beta": e_xy,
        "gamma": scale(-1, nord(gen("x"), e_xy_m)),
    }
    vac = sys.zero_momentum()
    screenings = []
    x_dir = direction_of(sys, {"x": Fraction(1)})
    screenings.append(make_screening(sys, Fraction(1), x_dir, vac, name="Qx"))
    mixed = {"a1": Fraction(1), "x": -K, "y": -K}
    lam1 = direction_of(sys, mixed)
    screenings.append(make_screening(sys, -1 / K, lam1, vac, name="Q1"))
    for i in range(2, n + 1):
        e_i = [Fraction(1) if j == i - 1 else Fraction(0) for j in range(n)]
        lam = _root_direction(sys, names, e_i)
        screenings.append(make_screening(sys, -1 / K, lam, vac, name=f"Q{i}"))
    omega = rd.omega1_coeffs(tag.pair, n)
    H1 = sadd(heis_comb(sys, dict(zip(names, omega))), scale(-1, gen("y")))
    # FMS structure: contraction table of the realized beta gamma pair
    S = StructurePair
    structure = {
        ("beta", "gamma"): S({}, central1=Fraction(1)),
        ("gamma", "beta"): S({}, central1=Fraction(-1)),
        ("beta", "beta"): S({}), ("gamma", "gamma"): S({}),
    }
    return RealizationSpec(
        key=f"subregular-{tag.pair}:{n}:bosonized", system=sys, generator_map=gmap,
        screenings=screenings, level=LevelData.from_k1(tag.pair, n, k),
        distinguished={"H1": H1}, structure=structure)


def _coset_gram_alpha(tag: PairTag, K):
    """Gram of the subregular coset basis: the tridiagonal bordered matrix."""
    n, r = tag.n, tag.r
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


def _subregular_coset(tag: PairTag, k: Level, K: Level) -> RealizationSpec:
    n = tag.n
    names = [f"at{i}" for i in range(n + 1)]
    G = _coset_gram_alpha(tag, K)
    sys = register_system([heis(nm) for nm in names], G)
    vac = sys.zero_momentum()
    screenings = []
    for i in range(n + 1):
        lam = direction_of(sys, {names[i]: Fraction(1)})
        if i == 0:
            c = Fraction(1)
        elif i < n:
            c = -1 / K
        else:
            c = -1 / (tag.r * K)
        screenings.append(make_screening(sys, c, lam, vac, name=f"Qt{i}"))
    return RealizationSpec(
        key=f"subregular-{tag.pair}:{n}:coset", system=sys, generator_map={},
        screenings=screenings, level=LevelData.from_k1(tag.pair, n, k))


# ---------------------------------------------------------------------------
# principal super side (g2)
# ---------------------------------------------------------------------------

def principal_super_realization(pair: str, n: int, ell: Level,
                                form: str = "miura") -> RealizationSpec:
    tag = PairTag(pair, n)
    K2 = ell + tag.h2
    if sc_is_zero(K2):
        raise ExcludedLevel(f"k = -{tag.h2} is excluded for the super side")
    if form == "miura":
        return _super_miura(tag, ell, K2)
    if form == "bosonized":
        return _super_bosonized(tag, ell, K2)
    if form == "coset":
        return _super_coset(tag, ell, K2)
    raise InputError(f"unknown form {form!r}")


def _super_miura(tag: PairTag, ell: Level, K2: Level) -> RealizationSpec:
    n, r = tag.n, tag.r
    G = rd.g2_gram(tag.pair, n)
    names = _heis_names(0, n)
    b, c = fermion_pair("b", "c")
    table = [[K2 * G[i][j] for j in range(n + 1)] for i in range(n + 1)]
    sys = register_system([b, c] + [heis(nm) for nm in names], table)
    a0, a1 = gen("a0"), gen("a1")
    # embedded gl(1|1) Wakimoto with chi1+chi2 = -r a0, chi2 = r a1, k1 = -r K2
    gmap = {
        "E12": gen("b"),
        "E21": scale(-r, sadd(nord(gen("c"), a0), scale(K2, deriv(gen("c"))))),
        "E11": sadd(scale(-1, nord(gen("c"), gen("b"))),
                    scale(-r, a0), scale(-r, a1)),
        "E22": sadd(nord(gen("c"), gen("b")), scale(r, a1)),
        "h0": a0,
        "h1": sadd(scale(Fraction(1, r), nord(gen("c"), gen("b"))), a1),
    }
    if n >= 2:
        coeffs = rd.htilde2_g2_coeffs(tag.pair, n)
        gmap["ht2"] = heis_comb(sys, {nm: cf for nm, cf in zip(names, coeffs)
                                      if cf != 0})
        for i in range(3, n + 1):
            gmap[f"h{i}"] = gen(f"a{i}")
    vac = sys.zero_momentum()
    screenings = []
    for i in range(0, n + 1):
        e_i = [Fraction(1) if j == i else Fraction(0) for j in range(n + 1)]
        lam = _root_direction(sys, names, e_i)
        pref = gen("b") if i == 0 else None
        screenings.append(make_screening(sys, -1 / K2, lam, vac, pref, name=f"Q{i}"))
    omega = rd.omega0_coeffs(tag.pair, n)
    H2 = sadd(heis_comb(sys, dict(zip(names, omega))),
              nord(gen("b"), gen("c")))
    structure = gl11_structure(-r * K2, r * K2 + 1)
    spec = RealizationSpec(
        key=f"super-{tag.pair}:{n}:miura", system=sys, generator_map=gmap,
        screenings=screenings, level=LevelData.from_k2(tag.pair, n, ell),
        distinguished={"H2": H2}, structure=structure)
    _attach_super_companions(spec, tag, K2, names, G)
    return spec


def _attach_super_companions(spec, tag: PairTag, K2, names, G):
    n = tag.n
    sys = spec.system
    alpha1 = [Fraction(1) if j == 1 else Fraction(0) for j in range(n + 1)]
    lam = _root_direction(sys, names, alpha1)
    exp = ExpOp(-1 / K2, lam, canonical_shift(sys, -1 / K2, lam))
    spec.companions = {
        "lower": exp,                                # S_{alpha_1}
        "upper": scale(-1, nord(gen("c"), exp)),     # S_{alpha_0 + alpha_1}
    }
    beta_lower = alpha1
    beta_upper = [Fraction(1) if j in (0, 1) else Fraction(0) for j in range(n + 1)]
    e0 = [Fraction(1)] + [Fraction(0)] * n
    cov = {
        "E12": {"lower": {}, "upper": {"lower": Fraction(-1)}},
        "E21": {"lower": {"upper": Fraction(1)}, "upper": {}},
        "h0": _cartan_cov(G, beta_lower, beta_upper, e0),
        "h1": _cartan_cov(G, beta_lower, beta_upper, alpha1),
    }
    if "ht2" in spec.generator_map:
        cov["ht2"] = _cartan_cov(G, beta_lower, beta_upper,
                                 rd.htilde2_g2_coeffs(tag.pair, n))
    for i in range(3, n + 1):
        h = [Fraction(0)] * (n + 1)
        h[i] = Fraction(1)
        cov[f"h{i}"] = _cartan_cov(G, beta_lower, beta_upper, h)
    spec.covariance = cov


def _super_bosonized(tag: PairTag, ell: Level, K2: Level) -> RealizationSpec:
    n = tag.n
    G = rd.g2_gram(tag.pair, n)
    names = _heis_names(0, n)
    m = n + 2
    full = [[Fraction(0)] * m for _ in range(m)]
    full[0][0] = Fraction(1)
    for i in range(n + 1):
        for j in range(n + 1):
            full[1 + i][1 + j] = K2 * G[i][j]
    sys = register_system([heis("phi")] + [heis(nm) for nm in names], full,
                          lattice_indices=(0,), lattice_gram=[[1]])
    phi = direction_of(sys, {"phi": Fraction(1)})
    b_img = ExpOp(Fraction(1), phi, canonical_shift(sys, Fraction(1), phi))
    c_img = ExpOp(Fraction(-1), phi, canonical_shift(sys, Fraction(-1), phi))
    gmap = {"b": b_img, "c": c_img}
    vac = sys.zero_momentum()
    screenings = []
    mixed = {"a0": Fraction(1), "phi": -K2}
    lam0 = direction_of(sys, mixed)
    screenings.append(make_screening(sys, -1 / K2, lam0, vac, name="Q0"))
    for i in range(1, n + 1):
        e_i = [Fraction(1) if j == i else Fraction(0) for j in range(n + 1)]
        lam = _root_direction(sys, names, e_i)
        screenings.append(make_screening(sys, -1 / K2, lam, vac, name=f"Q{i}"))
    omega = rd.omega0_coeffs(tag.pair, n)
    H2 = sadd(heis_comb(sys, dict(zip(names, omega))), gen("phi"))
    S = StructurePair
    structure = {
        ("b", "c"): S({}, central1=Fraction(1)),
        ("c", "b"): S({}, central1=Fraction(1)),
        ("b", "b"): S({}), ("c", "c"): S({}),
    }
    return RealizationSpec(
        key=f"super-{tag.pair}:{n}:bosonized", system=sys, generator_map=gmap,
        screenings=screenings, level=LevelData.from_k2(tag.pair, n, ell),
        distinguished={"H2": H2}, structure=structure)


def _coset_gram_beta(tag: PairTag, K2):
    """Gram of the super coset basis, directly from the g2 root data."""
    n = tag.n
    G2 = rd.g2_gram(tag.pair, n)
    m = n + 1
    G = [[G2[i][j] / K2 for j in range(m)] for i in range(m)]
    G[0][0] = G[0][0] + 1
    return G


def _super_coset(tag: PairTag, ell: Level, K2: Level) -> RealizationSpec:
    n = tag.n
    names = [f"bt{i}" for i in range(n + 1)]
    G = _coset_gram_beta(tag, K2)
    sys = register_system([heis(nm) for nm in names], G)
    vac = sys.zero_momentum()
    screenings = []
    for i in range(n + 1):
        lam = direction_of(sys, {names[i]: Fraction(1)})
        screenings.append(make_screening(sys, Fraction(1), lam, vac, name=f"Qt{i}"))
    return RealizationSpec(
        key=f"super-{tag.pair}:{n}:coset", system=sys, generator_map={},
        screenings=screenings, level=LevelData.from_k2(tag.pair, n, ell))


# ---------------------------------------------------------------------------
# distinguished currents and Kazama-Suzuki fields
# ---------------------------------------------------------------------------

def distinguished_currents(pair: str, n: int, k1: Level):
    """H1 and H2 over their Miura systems at the dual levels of k1."""
    lv = LevelData.from_k1(pair, n, k1)
    sub = subregular_realization(pair, n, lv.k1, "miura")
    sup = principal_super_realization(pair, n, lv.k2, "miura")
    return {"H1": (sub, sub.distinguished["H1"]),
            "H2": (sup, sup.distinguished["H2"])}


@dataclass
class KSFields:
    side_a: RealizationSpec   # V_Z x pi_{h2} x V_{Z sqrt(-1)}: X, Y, A_i, H~2
    side_b: RealizationSpec   # V_{x+y} x pi_{h1} x V_Z: phi~, B_i, H~1


def ks_fields(pair: str, n: int, k2: Level) -> KSFields:
    tag = PairTag(pair, n)
    if n < 2:
        raise InputError("the Kazama-Suzuki field systems need rank n >= 2")
    lv = LevelData.from_k2(pair, n, k2)
    r = tag.r
    K, K2 = lv.K1, lv.K2

    # side A: phi + g2 Cartan + psi
    G2 = rd.g2_gram(pair, n)
    names2 = _heis_names(0, n)
    m = n + 3
    full = [[Fraction(0)] * m for _ in range(m)]
    full[0][0] = Fraction(1)
    full[m - 1][m - 1] = Fraction(-1)
    for i in range(n + 1):
        for j in range(n + 1):
            full[1 + i][1 + j] = K2 * G2[i][j]
    sys_a = register_system(
        [heis("phi")] + [heis(nm) for nm in names2] + [heis("psi")], full,
        lattice_indices=(0, m - 1), lattice_gram=[[1, 0], [0, -1]])
    a = {nm: gen(nm) for nm in names2}
    fields_a = {
        "X": sadd(scale(-1 / K2, a["a0"]), gen("phi")),
        "Y": sadd(scale(1 / K2, a["a0"]), gen("psi")),
    }
    fields_a["A1"] = sadd(scale(Fraction(r), a["a1"]),
                          scale(-1, gen("phi")), scale(-1, gen("psi")))
    for i in range(2, n):
        fields_a[f"A{i}"] = scale(Fraction(r), a[f"a{i}"])
    fields_a[f"A{n}"] = a[f"a{n}"]
    omega0 = rd.omega0_coeffs(pair, n)
    fields_a["Ht2"] = sadd(heis_comb(sys_a, dict(zip(names2, omega0))),
                           gen("phi"), gen("psi"))
    spec_a = RealizationSpec(key=f"ks-a-{pair}:{n}", system=sys_a,
                             generator_map=fields_a, screenings=[], level=lv)

    # side B: x, y + g1 Cartan + phi
    G1 = rd.g1_gram(pair, n)
    names1 = _heis_names(1, n)
    m = n + 3
    full = [[Fraction(0)] * m for _ in range(m)]
    full[0][0] = Fraction(1)
    full[1][1] = Fraction(-1)
    full[m - 1][m - 1] = Fraction(1)
    for i in range(n):
        for j in range(n):
            full[2 + i][2 + j] = K * G1[i][j]
    sys_b = register_system(
        [heis("x"), heis("y")] + [heis(nm) for nm in names1] + [heis("phi")], full,
        lattice_indices=(0, 1, m - 1), lattice_gram=[[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    fields_b = {
        "phit": sadd(gen("x"), gen("y"), gen("phi")),
        "B0": sadd(scale(-1, gen("y")), scale(-1, gen("phi"))),
    }
    fields_b["B1"] = sadd(gen("a1"), scale(-K, gen("x")), scale(-K, gen("y")))
    for i in range(2, n):
        fields_b[f"B{i}"] = gen(f"a{i}")
    fields_b[f"B{n}"] = scale(Fraction(r), gen(f"a{n}"))
    omega1 = rd.omega1_coeffs(pair, n)
    fields_b["Ht1"] = sadd(scale(-1, heis_comb(sys_b, dict(zip(names1, omega1)))),
                           gen("y"), gen("phi"))
    spec_b = RealizationSpec(key=f"ks-b-{pair}:{n}", system=sys_b,
                             generator_map=fields_b, screenings=[], level=lv)
    return KSFields(spec_a, spec_b)


# ---------------------------------------------------------------------------
# rank-1 Feigin-Frenkel pair and the catalog index
# ---------------------------------------------------------------------------

def rank1_ff(K: Level):
    """One boson of squared norm 2K with the dual pair of screenings."""
    if sc_is_zero(K):
        raise ExcludedLevel("K = 0 is excluded")
    sys = register_system([heis("a")], [[2 * K]])
    lam = direction_of(sys, {"a": Fraction(1)})
    vac = sys.zero_momentum()
    plus = make_screening(sys, Fraction(1), lam, vac, name="e^a")
    minus = make_screening(sys, -1 / K, lam, vac, name="e^(-a/K)")
    return RealizationSpec(key="rank1-ff", system=sys, generator_map={},
                           screenings=[plus, minus])


def catalog_keys():
    keys = ["wakimoto-gl11", "rank1-ff"]
    for pair in rd.PAIRS:
        for n in (1, 2, 3):
            for form in ("miura", "bosonized", "coset"):
                keys.append(f"subregular-{pair}:{n}:{form}")
                keys.append(f"super-{pair}:{n}:{form}")
            if n >= 2:
                keys.append(f"ks-a-{pair}:{n}")
                keys.append(f"ks-b-{pair}:{n}")
    return keys


def get_realization(key: str, k1: Level = None, k2: Level = None) -> RealizationSpec:
    """Build a catalog entry from its string key at the given level."""
    if key == "wakimoto-gl11":
        if k1 is None:
            raise InputError("wakimoto-gl11 needs k1 (and optionally k2)")
        return gl11_wakimoto(k1, k2 if k2 is not None else Fraction(0))
    if key == "rank1-ff":
        if k1 is None:
            raise InputError("rank1-ff needs K via k1")
        return rank1_ff(k1)
    parts = key.replace("-", ":").split(":")
    if key.startswith("ks-"):
        _, side, pair, n = parts
        lv = (LevelData.from_k1(pair, int(n), k1) if k1 is not None
              else LevelData.from_k2(pair, int(n), k2))
        ks = ks_fields(pair, int(n), lv.k2)
        return ks.side_a if side == "a" else ks.side_b
    fam, pair, n, form = parts
    n = int(n)
    if fam == "subregular":
        if k1 is None:
            raise InputError(f"{key} needs k1")
        return subregular_realization(pair, n, k1, form)
    if fam == "super":
        if k2 is None:
            if k1 is None:
                raise InputError(f"{key} needs k2 (or k1 to dualize)")
            k2 = dual_level(pair, n, k1)
        return principal_super_realization(pair, n, k2, form)
    raise InputError(f"unknown catalog key {key!r}")


def enumerable_counting_systems(n_values=(2, 3)):
    """Catalog systems with finite graded slices, for counting consistency."""
    out = [("wakimoto-gl11", gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)).system),
           ("rank1-ff", rank1_ff(Fraction(7, 2)).system)]
    k1 = Fraction(-14, 5)
    for pair in rd.PAIRS:
        for n in n_values:
            lv = LevelData.from_k1(pair, n, k1)
            out.append((f"subregular-{pair}:{n}:bosonized",
                        subregular_realization(pair, n, lv.k1, "bosonized").system))
            out.append((f"subregular-{pair}:{n}:coset",
                        subregular_realization(pair, n, lv.k1, "coset").system))
            out.append((f"super-{pair}:{n}:miura",
                        principal_super_realization(pair, n, lv.k2, "miura").system))
            out.append((f"super-{pair}:{n}:bosonized",
                        principal_super_realization(pair, n, lv.k2, "bosonized").system))
            out.append((f"super-{pair}:{n}:coset",
                        principal_super_realization(pair, n, lv.k2, "coset").system))
    return out
