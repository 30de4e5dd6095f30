"""The catalog of concrete constructions: systems, generator maps, screenings, currents.

Every realization is packaged as a RealizationSpec: a registered free-field
system, a named generator map, the screening operators, distinguished
currents, and (where applicable) a conformal field, an OPE structure table
for homomorphism checking, and companion intertwiner data for covariance
checking.

Shared steps.  Each step the builders repeat is written once: `_pairing`
lays square blocks, such as a root Gram scaled by `_scaled`, along the
diagonal of a pairing table; `_screenings` builds the screening operators on
the vacuum module from (name, c, {species: coefficient}, prefactor) rows;
`_attach_companions` gives a Miura side its companion intertwiners and their
covariance table; `_parse_key` checks a catalog key; and `_dual` inverts the
level relation.  A form's System alone, its species and pairing table, is a
step of its own (`gl11_system`, `rank1_system`, `form_system`) for checks
that read no screening.  `_FORMS` maps each (family, form) to its builder,
in catalog key order, for realization dispatch, `form_system`, `_parse_key`
and `catalog_keys`; both coset forms share one builder.  A Kazama-Suzuki side
is a bosonized form's System and one lattice boson (`_with_lattice_boson`).

Levels.  A realization is built at an exact level, either a Fraction or a
RatFun in the formal parameter t.  The two sides of the duality are linked by
r (k1 + h1)(k2 + h2) = 1; `dual_level` inverts it exactly.  Momenta are
labeled by zero-mode eigenvalues; every exponential operator is made by
`fields.exp_op` with the canonical shift T_{c lambda} (whose eigenvalue shift
is forced by the mode algebra), which reproduces the displayed shift operators
such as T_{-alpha}.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Union

from . import rootdata as rd
from .errors import ExcludedLevel, InputError, ZeroK1
from .fields import (FieldExpr, deriv, direction_of, exp_op, gen, heis_comb, nord, sadd,
                     scale)
from .fock import Momentum, System, boson_pair, fermion_pair, heis, register_system
from .scalars import RatFun, Scalar, sc_is_zero
from .screening import ScreeningOp

Level = Union[Fraction, RatFun]


# ---------------------------------------------------------------------------
# pair constants and levels
# ---------------------------------------------------------------------------

def degeneracy_constants(pair: str, n: int):
    """The levels (x1, x2) where the coset Heisenberg currents degenerate."""
    rd.check_rank(pair, n)
    if pair == rd.SL:
        return Fraction(1, n) - n, Fraction(-n * n, n + 1)
    return Fraction(2 - 2 * n), Fraction(1, 2) - n


def s1_levels(pair: str, n: int) -> set:
    """The excluded set S1 = {-h1, x1} of subregular levels k1."""
    x1, _ = degeneracy_constants(pair, n)
    return {Fraction(-rd.h1(pair, n)), x1}


def _dual(pair: str, n: int, k: Level, side: int) -> Level:
    """The level dual to k on side 1 or 2 under r (k1 + h1)(k2 + h2) = 1."""
    rd.check_rank(pair, n)
    h1, h2 = rd.h1(pair, n), rd.h2(pair, n)
    h, h_dual = (h1, h2) if side == 1 else (h2, h1)
    shifted = k + h
    if sc_is_zero(shifted):
        raise ExcludedLevel(f"k{side} = {k} lies in the excluded set K{side} = {{{-h}}}")
    return -h_dual + 1 / (rd.lacity(pair) * shifted)


def dual_level(pair: str, n: int, k1: Level) -> Level:
    return _dual(pair, n, k1, 1)


@dataclass(frozen=True)
class LevelData:
    pair: str
    n: int
    k1: Level
    k2: Level

    def __post_init__(self):
        rd.check_rank(self.pair, self.n)
        if self.r * self.K1 * self.K2 != 1:
            raise ExcludedLevel(
                f"levels k1={self.k1}, k2={self.k2} violate the duality relation")

    @staticmethod
    def from_k1(pair: str, n: int, k1: Level) -> "LevelData":
        return LevelData(pair, n, k1, dual_level(pair, n, k1))

    @staticmethod
    def from_k2(pair: str, n: int, k2: Level) -> "LevelData":
        return LevelData(pair, n, _dual(pair, n, k2, 2), k2)

    @property
    def r(self) -> int:
        return rd.lacity(self.pair)

    @property
    def K1(self) -> Level:
        return self.k1 + rd.h1(self.pair, self.n)

    @property
    def K2(self) -> Level:
        return self.k2 + rd.h2(self.pair, self.n)

    def excluded_sets(self):
        h1, h2 = rd.h1(self.pair, self.n), rd.h2(self.pair, self.n)
        _, x2 = degeneracy_constants(self.pair, self.n)
        return {"K1": {Fraction(-h1)}, "K2": {Fraction(-h2)},
                "S1": s1_levels(self.pair, self.n), "S2": {Fraction(-h2), x2}}


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


# ---------------------------------------------------------------------------
# shared construction steps
# ---------------------------------------------------------------------------

def _scaled(G, K):
    """The table K G of a root Gram G at the shifted level K."""
    return [[K * x for x in row] for row in G]


def _pairing(*blocks):
    """The block-diagonal pairing table of square blocks, Fraction(0) off them."""
    m = sum(len(b) for b in blocks)
    table = [[Fraction(0)] * m for _ in range(m)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            table[at + i][at:at + len(b)] = row
        at += len(b)
    return table


def _unit(m: int, *positions):
    """The coefficient vector of length m with 1 at the given positions."""
    return [Fraction(int(j in positions)) for j in range(m)]


def _screenings(sys: System, rows):
    """Screenings on the vacuum module, one per (name, c, {species: coefficient},
    prefactor) row; the direction is the coefficient map over the species."""
    vac = sys.zero_momentum()
    return [ScreeningOp(sys, exp_op(sys, c, direction_of(sys, coeffs)), vac, pref, name)
            for name, c, coeffs, pref in rows]


def _attach_companions(spec, G, K, partner: str, ladder, cartan):
    """Companion intertwiners S_beta of a Miura side and their covariance table.

    beta is the simple root at position 1 ("lower") or the sum of those at
    positions 0 and 1 ("upper"), screened at -1/K; the upper one carries the
    pair half `partner`.  `ladder` is (raising current, lowering current, the
    coefficient of upper in lowering . lower); `cartan` lists (current,
    coefficients over the simple roots), and u . v_beta = -(beta|h) v_beta.
    """
    lower, upper = _unit(len(G), 1), _unit(len(G), 0, 1)
    # the Heisenberg species of a Miura system are the simple roots, in order
    exp = exp_op(spec.system, -1 / K, lower)
    spec.companions = {"lower": exp, "upper": scale(-1, nord(gen(partner), exp))}
    raising, lowering, sign = ladder
    spec.covariance = {
        raising: {"lower": {}, "upper": {"lower": Fraction(-1)}},
        lowering: {"lower": {"upper": sign}, "upper": {}},
    }
    for name, h in cartan:
        spec.covariance[name] = {"lower": {"lower": -rd.pairing(G, lower, h)},
                                 "upper": {"upper": -rd.pairing(G, upper, h)}}


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


def gl11_system(k1: Scalar, k2: Scalar) -> System:
    """The System of the gl(1|1) Wakimoto realization alone."""
    return register_system([*fermion_pair("b", "c"), heis("x1"), heis("x2")],
                           gl11_pairing_table(k1, k2))


def gl11_wakimoto(k1: Scalar, k2: Scalar) -> RealizationSpec:
    """Free-field image of the affine gl(1|1) currents, with screening."""
    if sc_is_zero(k1):
        raise ZeroK1("the gl(1|1) screening needs k1 != 0")
    sys = gl11_system(k1, k2)
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
    screenings = _screenings(
        sys, [("S", -1 / k1, {"x1": Fraction(1), "x2": Fraction(1)}, gen("b"))])
    return RealizationSpec(
        key="wakimoto-gl11", system=sys, generator_map=gmap,
        screenings=screenings, conformal=conformal,
        structure=gl11_structure(k1, k2))


def wakimoto_momentum(sys: System, m1: Scalar, m2: Scalar) -> Momentum:
    """Fock momentum of the weight with chi-basis coefficients (m1, m2)."""
    return sys.momentum((m1, -m2))


def wakimoto_shifted_screening(spec: RealizationSpec, n_from: int):
    """The resolution map out of the module with weight -n alpha."""
    src = spec.system.momentum((Fraction(-n_from), Fraction(n_from)))
    return spec.screenings[0].at(src, f"S[{n_from}]")


# ---------------------------------------------------------------------------
# subregular side (g1)
# ---------------------------------------------------------------------------

def _heis_names(lo, hi):
    return [f"a{i}" for i in range(lo, hi + 1)]


def form_system(family: str, form: str, lv: LevelData) -> System:
    """The System alone of a subregular or super form at lv: the Cartan bosons
    of g1 at K1 (subregular) or g2 at K2 (super), behind a beta gamma or b c
    pair (miura) or the lattice bosons (bosonized); or the coset basis."""
    _builder(family, form)
    sub = family == "subregular"
    G, K = (rd.g1_gram(lv.pair, lv.n), lv.K1) if sub else (rd.g2_gram(lv.pair, lv.n), lv.K2)
    cartan = [heis(nm) for nm in _heis_names(1 if sub else 0, lv.n)]
    if form == "miura":
        halves = boson_pair("beta", "gamma") if sub else fermion_pair("b", "c")
        return register_system([*halves, *cartan], _scaled(G, K))
    if form == "bosonized":
        lattice = [heis("x"), heis("y")] if sub else [heis("phi")]
        norms = [[[Fraction(1)]], [[Fraction(-1)]]][:len(lattice)]
        return register_system(lattice + cartan, _pairing(*norms, _scaled(G, K)),
                               tuple(range(len(lattice))))
    gram = _coset_gram_alpha(lv, K) if sub else _coset_gram_beta(lv, K)
    return register_system([heis(f"{'at' if sub else 'bt'}{i}") for i in range(lv.n + 1)], gram)


def _with_lattice_boson(sys: System, name: str, norm: int) -> System:
    """sys, a System of Heisenberg species alone, with one more lattice boson
    of squared norm +-1 after its species, orthogonal to them."""
    return register_system([*sys.species, heis(name)], _pairing(sys.pairing, [[Fraction(norm)]]),
                           sys.lattice_indices + (len(sys.species),))


def _builder(family: str, form: str):
    """The realization builder of a family's form; InputError if there is none."""
    if (family, form) not in _FORMS:
        raise InputError(f"unknown form {form!r} of family {family!r}")
    return _FORMS[family, form]


def subregular_realization(pair: str, n: int, k: Level, form: str = "miura") -> RealizationSpec:
    lv = LevelData.from_k1(pair, n, k)
    return _builder("subregular", form)(lv)


def _subregular_miura(lv: LevelData) -> RealizationSpec:
    n, K = lv.n, lv.K1
    G = rd.g1_gram(lv.pair, n)
    names = _heis_names(1, n)
    sys = form_system("subregular", "miura", lv)
    a1 = gen("a1")
    gmap = {
        "e1": gen("beta"),
        "h1": sadd(scale(-2, nord(gen("gamma"), gen("beta"))), a1),
        "f1": sadd(scale(-1, nord(gen("gamma"), nord(gen("gamma"), gen("beta")))),
                   scale(K - 2, deriv(gen("gamma"))),
                   nord(gen("gamma"), a1)),
    }
    cartan = [("h1", _unit(n, 0))]
    if n >= 2:
        coeffs = rd.htilde2_g1_coeffs(lv.pair, n)
        gmap["ht2"] = heis_comb(sys, dict(zip(names, coeffs)))
        cartan.append(("ht2", coeffs))
        for i in range(3, n + 1):
            gmap[f"h{i}"] = gen(f"a{i}")
            cartan.append((f"h{i}", _unit(n, i - 1)))
    screenings = _screenings(sys, [
        (f"Q{i}", -1 / K, {f"a{i}": Fraction(1)}, gen("beta") if i == 1 else None)
        for i in range(1, n + 1)])
    omega = rd.omega1_coeffs(lv.pair, n)
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
        key=f"subregular-{lv.pair}:{n}:miura", system=sys, generator_map=gmap,
        screenings=screenings, level=lv,
        distinguished={"H1": H1}, structure=structure)
    if n >= 2:
        _attach_companions(spec, G, K, "gamma", ("e1", "f1", Fraction(-1)), cartan)
    return spec


def _subregular_bosonized(lv: LevelData) -> RealizationSpec:
    n, K = lv.n, lv.K1
    names = _heis_names(1, n)
    sys = form_system("subregular", "bosonized", lv)
    xy = direction_of(sys, {"x": Fraction(1), "y": Fraction(1)})
    gmap = {
        "beta": exp_op(sys, Fraction(1), xy),
        "gamma": scale(-1, nord(gen("x"), exp_op(sys, Fraction(-1), xy))),
    }
    screenings = _screenings(sys, [
        ("Qx", Fraction(1), {"x": Fraction(1)}, None),
        ("Q1", -1 / K, {"a1": Fraction(1), "x": -K, "y": -K}, None),
    ] + [(f"Q{i}", -1 / K, {f"a{i}": Fraction(1)}, None) for i in range(2, n + 1)])
    omega = rd.omega1_coeffs(lv.pair, n)
    H1 = sadd(heis_comb(sys, dict(zip(names, omega))), scale(-1, gen("y")))
    # FMS structure: contraction table of the realized beta gamma pair
    S = StructurePair
    structure = {
        ("beta", "gamma"): S({}, central1=Fraction(1)),
        ("gamma", "beta"): S({}, central1=Fraction(-1)),
        ("beta", "beta"): S({}), ("gamma", "gamma"): S({}),
    }
    return RealizationSpec(
        key=f"subregular-{lv.pair}:{n}:bosonized", system=sys, generator_map=gmap,
        screenings=screenings, level=lv,
        distinguished={"H1": H1}, structure=structure)


def _coset_gram_alpha(lv: LevelData, K):
    """Gram of the subregular coset basis, the coroots of g1 bordered:
    (at0|at0) = 1, (at0|at1) = -2K/(a1|a1) and
    (at_i|at_j) = 4K (a_i|a_j) / ((a_i|a_i)(a_j|a_j))."""
    A = rd.g1_gram(lv.pair, lv.n)
    border = [1 + 0 * K, -2 * K / A[0][0]] + [0 * K] * (lv.n - 1)
    return [border] + [[border[i + 1]] + [4 * K * a / (A[i][i] * A[j][j])
                                          for j, a in enumerate(A[i])]
                       for i in range(lv.n)]


# ---------------------------------------------------------------------------
# principal super side (g2)
# ---------------------------------------------------------------------------

def principal_super_realization(pair: str, n: int, ell: Level,
                                form: str = "miura") -> RealizationSpec:
    lv = LevelData.from_k2(pair, n, ell)
    return _builder("super", form)(lv)


def _super_miura(lv: LevelData) -> RealizationSpec:
    n, r, K2 = lv.n, lv.r, lv.K2
    G = rd.g2_gram(lv.pair, n)
    names = _heis_names(0, n)
    sys = form_system("super", "miura", lv)
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
    cartan = [("h0", _unit(n + 1, 0)), ("h1", _unit(n + 1, 1))]
    if n >= 2:
        coeffs = rd.htilde2_g2_coeffs(lv.pair, n)
        gmap["ht2"] = heis_comb(sys, dict(zip(names, coeffs)))
        cartan.append(("ht2", coeffs))
        for i in range(3, n + 1):
            gmap[f"h{i}"] = gen(f"a{i}")
            cartan.append((f"h{i}", _unit(n + 1, i)))
    screenings = _screenings(sys, [
        (f"Q{i}", -1 / K2, {f"a{i}": Fraction(1)}, gen("b") if i == 0 else None)
        for i in range(0, n + 1)])
    omega = rd.omega0_coeffs(lv.pair, n)
    H2 = sadd(heis_comb(sys, dict(zip(names, omega))),
              nord(gen("b"), gen("c")))
    structure = gl11_structure(-r * K2, r * K2 + 1)
    spec = RealizationSpec(
        key=f"super-{lv.pair}:{n}:miura", system=sys, generator_map=gmap,
        screenings=screenings, level=lv,
        distinguished={"H2": H2}, structure=structure)
    _attach_companions(spec, G, K2, "c", ("E12", "E21", Fraction(1)), cartan)
    return spec


def _super_bosonized(lv: LevelData) -> RealizationSpec:
    n, K2 = lv.n, lv.K2
    names = _heis_names(0, n)
    sys = form_system("super", "bosonized", lv)
    phi = direction_of(sys, {"phi": Fraction(1)})
    gmap = {"b": exp_op(sys, Fraction(1), phi), "c": exp_op(sys, Fraction(-1), phi)}
    screenings = _screenings(sys, [
        ("Q0", -1 / K2, {"a0": Fraction(1), "phi": -K2}, None),
    ] + [(f"Q{i}", -1 / K2, {f"a{i}": Fraction(1)}, None) for i in range(1, n + 1)])
    omega = rd.omega0_coeffs(lv.pair, n)
    H2 = sadd(heis_comb(sys, dict(zip(names, omega))), gen("phi"))
    S = StructurePair
    structure = {
        ("b", "c"): S({}, central1=Fraction(1)),
        ("c", "b"): S({}, central1=Fraction(1)),
        ("b", "b"): S({}), ("c", "c"): S({}),
    }
    return RealizationSpec(
        key=f"super-{lv.pair}:{n}:bosonized", system=sys, generator_map=gmap,
        screenings=screenings, level=lv,
        distinguished={"H2": H2}, structure=structure)


def _coset_gram_beta(lv: LevelData, K2):
    """Gram of the super coset basis, directly from the g2 root data."""
    G = [[x / K2 for x in row] for row in rd.g2_gram(lv.pair, lv.n)]
    G[0][0] = G[0][0] + 1
    return G


def _coset(family: str, lv: LevelData) -> RealizationSpec:
    """A coset basis, one screening e^{c bt_i} or e^{c at_i} per basis boson:
    c = 1 on the super side; 1, then -1/K1, and -1/(r K1) last on the
    subregular side."""
    n, K, sys = lv.n, lv.K1, form_system(family, "coset", lv)
    cs = ([Fraction(1)] * (n + 1) if family == "super" else
          [Fraction(1)] + [-1 / K for _ in range(1, n)] + [-1 / (lv.r * K)])
    screenings = _screenings(sys, [(f"Qt{i}", c, {sp.name: Fraction(1)}, None)
                                   for i, (sp, c) in enumerate(zip(sys.species, cs))])
    return RealizationSpec(
        key=f"{family}-{lv.pair}:{n}:coset", system=sys, generator_map={},
        screenings=screenings, level=lv)


# (family, form) -> realization builder, in catalog key order
_FORMS = {("subregular", "miura"): _subregular_miura, ("super", "miura"): _super_miura,
          ("subregular", "bosonized"): _subregular_bosonized,
          ("super", "bosonized"): _super_bosonized,
          ("subregular", "coset"): partial(_coset, "subregular"),
          ("super", "coset"): partial(_coset, "super")}


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
    rd.check_rank(pair, n)
    if n < 2:
        raise InputError("the Kazama-Suzuki field systems need rank n >= 2")
    lv = LevelData.from_k2(pair, n, k2)
    r, K, K2 = lv.r, lv.K1, lv.K2

    # side A: the super side's bosonized System and psi
    sys_a = _with_lattice_boson(form_system("super", "bosonized", lv), "psi", -1)
    names2 = _heis_names(0, n)
    fields_a = {
        "X": sadd(scale(-1 / K2, gen("a0")), gen("phi")),
        "Y": sadd(scale(1 / K2, gen("a0")), gen("psi")),
    }
    fields_a["A1"] = sadd(scale(Fraction(r), gen("a1")),
                          scale(-1, gen("phi")), scale(-1, gen("psi")))
    for i in range(2, n):
        fields_a[f"A{i}"] = scale(Fraction(r), gen(f"a{i}"))
    fields_a[f"A{n}"] = gen(f"a{n}")
    omega0 = rd.omega0_coeffs(pair, n)
    fields_a["Ht2"] = sadd(heis_comb(sys_a, dict(zip(names2, omega0))),
                           gen("phi"), gen("psi"))
    spec_a = RealizationSpec(key=f"ks-a-{pair}:{n}", system=sys_a,
                             generator_map=fields_a, screenings=[], level=lv)

    # side B: the subregular side's bosonized System and phi
    sys_b = _with_lattice_boson(form_system("subregular", "bosonized", lv), "phi", 1)
    names1 = _heis_names(1, n)
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

def rank1_system(K: Level) -> System:
    """The System of the rank-1 pair alone: one boson of squared norm 2K."""
    return register_system([heis("a")], [[2 * K]])


def rank1_ff(K: Level):
    """One boson of squared norm 2K with the dual pair of screenings."""
    if sc_is_zero(K):
        raise ExcludedLevel("K = 0 is excluded")
    sys = rank1_system(K)
    screenings = _screenings(sys, [("e^a", Fraction(1), {"a": Fraction(1)}, None),
                                   ("e^(-a/K)", -1 / K, {"a": Fraction(1)}, None)])
    return RealizationSpec(key="rank1-ff", system=sys, generator_map={},
                           screenings=screenings)


# "<family>-<pair>:<n>:<form>"; the Kazama-Suzuki families take no form
_KEY = re.compile(r"(subregular|super|ks-a|ks-b)-(\w+):([0-9]+)(?::(\w+))?")


def catalog_keys():
    keys = ["wakimoto-gl11", "rank1-ff"]
    for pair in rd.PAIRS:
        for n in (1, 2, 3):
            keys += [f"{fam}-{pair}:{n}:{form}" for fam, form in _FORMS]
            keys += [f"{fam}-{pair}:{n}" for fam in ("ks-a", "ks-b") if n >= 2]
    return keys


def _parse_key(key: str):
    """(family, pair, n, form) of a catalog key; InputError if it is malformed."""
    m = _KEY.fullmatch(key)
    if m is None or (m[4] is not None if m[1].startswith("ks-") else (m[1], m[4]) not in _FORMS):
        raise InputError(f"unknown catalog key {key!r}")
    rd.check_rank(m[2], int(m[3]))
    return m[1], m[2], int(m[3]), m[4]


# the k2 of wakimoto-gl11 when none is given
GL11_K2 = Fraction(0)


def get_realization(key: str, k1: Level = None, k2: Level = None) -> RealizationSpec:
    """Build a catalog entry from its string key at the given level.  A level
    the key does not read is refused; `super-*` and `ks-*` read k2 or the
    dual of k1, and given both, the two must be dual."""
    if key == "wakimoto-gl11":
        if k1 is None:
            raise InputError("wakimoto-gl11 needs k1 (and optionally k2)")
        return gl11_wakimoto(k1, k2 if k2 is not None else GL11_K2)
    fam, pair, n, form = (key, None, None, None) if key == "rank1-ff" else _parse_key(key)
    if fam in ("rank1-ff", "subregular"):
        if k1 is None:
            raise InputError(f"{key} needs k1")
        if k2 is not None:
            raise InputError(f"{key} reads k1 only, not k2")
        return rank1_ff(k1) if fam == "rank1-ff" else subregular_realization(pair, n, k1, form)
    if k2 is None:
        if k1 is None:
            raise InputError(f"{key} needs k2 (or k1 to dualize)")
        k2 = dual_level(pair, n, k1)
    elif k1 is not None:
        LevelData(pair, n, k1, k2)  # ExcludedLevel unless the two are dual
    if fam == "super":
        return principal_super_realization(pair, n, k2, form)
    ks = ks_fields(pair, n, k2)
    return ks.side_a if fam == "ks-a" else ks.side_b


def enumerable_counting_systems():
    """Catalog systems with finite graded slices, for counting consistency;
    each is built alone, with no realization around it."""
    out = [("wakimoto-gl11", gl11_system(Fraction(7, 2), Fraction(1, 3))),
           ("rank1-ff", rank1_system(Fraction(7, 2)))]
    forms = (("subregular", "bosonized"), ("subregular", "coset"),
             ("super", "miura"), ("super", "bosonized"), ("super", "coset"))
    for pair in rd.PAIRS:
        for n in (2, 3):
            lv = LevelData.from_k1(pair, n, Fraction(-14, 5))
            out += [(f"{fam}-{pair}:{n}:{form}", form_system(fam, form, lv))
                    for fam, form in forms]
    return out
