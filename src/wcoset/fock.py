"""Free-field systems and exact graded Fock bases.

A system (``System``, its one constructor) is an ordered list of species
together with an exact symmetric pairing table on its Heisenberg block.
Species come in three kinds:

* ``heisenberg`` -- an even current h(z) with h(z)h'(w) ~ table(h,h')/(z-w)^2;
  engine weight is always 1.
* ``fermion-pair-half`` / ``boson-pair-half`` -- one half of a contracted pair
  (b with c, beta with gamma).  The half listed first in a pair contracts onto
  its partner with +1, the second half with +1 (fermions) or -1 (bosons),
  matching first-order-pole OPE a(z)a*(w) ~ 1/(z-w).

A Fock state is a basis monomial of creation modes on a momentum vector |mu>.
A mode is (species, depth) with depth d >= 1 standing for the physical mode
index -d; its engine degree is depth - 1 + engine_weight(species).  Canonical
order is species registration order, then depth descending; the sign picked up
by sorting counts odd-odd transpositions and lives in a coefficient, never in
a state.  A Momentum stores the zero-mode eigenvalue of every Heisenberg
species and nothing else.  A system may name lattice species: each pairs with
no other Heisenberg species and has norm +-1, as in V_Z and V_{sqrt(-1) Z}, so
a momentum's lattice label is read off its eigenvalues
(``System.lattice_label``) and feeds the two-cocycle and parity.

Enumeration is exact and finite unless the system contains a weight-0 boson
half (then every slice is infinite and NonEnumerable is raised).  Slices come
from one (species, degree) table per species signature, the (kind, engine
weight, parity) of each species in order.  Entry (k, d) is the sorted tuple
of mode tuples over species k, k+1, ... of total degree d; the degree-d slice
is entry (0, d).  ``slice_dimension`` and ``graded_dimension`` count a slice
without building its FockStates.

A signature also has a ``_Packing``, the integer keys of its monomials, one
digit per (species, depth), under which a product of monomials is one sum, an
index ``{packed key: position}`` per slice and a ``Split`` per slice and set of
contracted Heisenberg species; its Systems share this basis, kept for the process
(a non-enumerable System keeps one of its own).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .errors import (AsymmetricPairing, MomentumMismatch, NonEnumerable, ResourceBound,
                     UnpairedFermionHalf)
from .scalars import Scalar, _as_int, sc_is_zero

EVEN, ODD = "even", "odd"
HEIS, FERMION_HALF, BOSON_HALF = "heisenberg", "fermion-pair-half", "boson-pair-half"


@dataclass(frozen=True)
class Species:
    name: str
    parity: str = EVEN
    kind: str = HEIS
    engine_weight: int = 1
    partner: Optional[str] = None

    @property
    def is_heis(self) -> bool:
        return self.kind == HEIS

    @property
    def odd(self) -> bool:
        return self.parity == ODD


def heis(name: str) -> Species:
    return Species(name, EVEN, HEIS, 1)


def fermion_pair(a: str, b: str, weights=(1, 0)):
    return (Species(a, ODD, FERMION_HALF, weights[0], b),
            Species(b, ODD, FERMION_HALF, weights[1], a))


def boson_pair(a: str, b: str, weights=(1, 0)):
    return (Species(a, EVEN, BOSON_HALF, weights[0], b),
            Species(b, EVEN, BOSON_HALF, weights[1], a))


@dataclass(frozen=True)
class Momentum:
    """Zero-mode eigenvalues, one per Heisenberg species.

    The hash is computed once, at construction: every FockState key hashes its
    momentum, and hashing a tuple of Fractions is costly.
    """
    values: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.values))

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "Momentum") -> "Momentum":
        if len(self.values) != len(other.values):
            raise MomentumMismatch(f"cannot add momenta of {len(self.values)} and "
                                   f"{len(other.values)} eigenvalues")
        return Momentum(tuple(a + b for a, b in zip(self.values, other.values)))


@dataclass(frozen=True)
class FockState:
    """A basis monomial: canonical creation modes over a momentum, unsigned."""
    momentum: Momentum
    modes: tuple  # ((species_index, depth), ...) in canonical order


class System:
    """A free-field system; immutable after construction."""

    def __init__(self, species, pairing, lattice_indices=()):
        self.species = tuple(species)
        self.index = {s.name: i for i, s in enumerate(self.species)}
        if len(self.index) != len(self.species):
            raise UnpairedFermionHalf("duplicate species names")
        self.heis_indices = tuple(i for i, s in enumerate(self.species) if s.is_heis)
        self.heis_pos = {i: p for p, i in enumerate(self.heis_indices)}
        self.odd_flags = tuple(s.odd for s in self.species)
        for s in self.species:
            if s.is_heis:
                if s.engine_weight != 1 or s.odd:  # E+ and E- commute past its modes
                    raise AsymmetricPairing(f"heisenberg species {s.name} must be even, weight 1")
                continue
            if s.partner is None or s.partner not in self.index:
                raise UnpairedFermionHalf(f"species {s.name} lacks its dual pair half")
            p = self.species[self.index[s.partner]]
            if p.partner != s.name or p.kind != s.kind:
                raise UnpairedFermionHalf(f"species {s.name} and {p.name} are not a dual pair")
        n = len(self.heis_indices)
        if len(pairing) != n or any(len(row) != n for row in pairing):
            raise AsymmetricPairing("pairing table must be square over the heisenberg species")
        for i in range(n):
            for j in range(n):
                if pairing[i][j] != pairing[j][i]:
                    raise AsymmetricPairing("pairing table must be symmetric")
        self.pairing = tuple(tuple(row) for row in pairing)
        self._zero = Momentum((Fraction(0),) * n)  # immutable, so shared
        self.lattice_indices = tuple(lattice_indices)
        self._lattice = ()  # (heisenberg position, norm) per lattice species
        for idx in self.lattice_indices:
            if not 0 <= idx < len(self.species) or not self.species[idx].is_heis:
                raise AsymmetricPairing(f"lattice index {idx} is not a heisenberg species")
            p, name = self.heis_pos[idx], self.species[idx].name
            norm = self.pairing[p][p]
            if any(not sc_is_zero(x) for q, x in enumerate(self.pairing[p]) if q != p):
                raise AsymmetricPairing(f"lattice species {name} pairs with another species")
            if norm not in (1, -1):
                raise AsymmetricPairing(f"lattice species {name} has norm {norm}, not +-1")
            self._lattice += ((p, 1 if norm == 1 else -1),)
        sig = tuple((s.kind, s.engine_weight, s.odd) for s in self.species)
        # a weight-0 boson half makes every slice infinite (see _mode_sets), so
        # such a System keeps a basis of its own and building one registers none
        self._infinite = [s.name for s in self.species
                          if s.kind == BOSON_HALF and s.engine_weight == 0]
        if sig not in _BASES and not self._infinite:
            _BASES[sig] = ({}, _Packing(len(sig)), {}, {})
        # the signature's slice table, packing, slice indices and splits, see _BASES
        self._slices, self._packing, self._indices, self._splits = (
            ({}, _Packing(len(sig)), {}, {}) if self._infinite else _BASES[sig])
        # constants of exponential operators, see fields._expop_record:
        # (ExpOp, Momentum) -> its record, ExpOp -> its E- degree parts and,
        # for a rational ExpOp, their integer form
        self._expop_cache = {}

    # -- pair contraction sign: first-listed half hits partner with +1 --------

    def pair_sign(self, idx: int) -> int:
        s = self.species[idx]
        if s.kind == FERMION_HALF:
            return 1
        return 1 if idx < self.index[s.partner] else -1

    def pairing_of(self, i: int, j: int) -> Scalar:
        return self.pairing[self.heis_pos[i]][self.heis_pos[j]]

    # -- momenta ----------------------------------------------------------------

    def zero_momentum(self) -> Momentum:
        return self._zero

    def momentum(self, values) -> Momentum:
        vals = tuple(values)
        if len(vals) != len(self.heis_indices):
            raise MomentumMismatch(f"momentum of {len(vals)} eigenvalues on a system of "
                                   f"{len(self.heis_indices)} Heisenberg species")
        return Momentum(vals)

    def lattice_momentum(self, label) -> Momentum:
        """Momentum of a lattice vector: each coordinate times its norm."""
        vals = [Fraction(0)] * len(self.heis_indices)
        for (p, norm), x in zip(self._lattice, label):
            vals[p] = Fraction(norm * x)
        return Momentum(tuple(vals))

    def lattice_label(self, mu: Momentum) -> tuple:
        """The lattice coordinates of mu, each lattice eigenvalue times its norm;
        NonIntegralExponent unless they are integers (a constant RatFun counts)."""
        return tuple(_as_int(mu.values[p] * norm, "lattice coordinate")
                     for p, norm in self._lattice)

    def momentum_value(self, mu: Momentum, species_idx: int) -> Scalar:
        return mu.values[self.heis_pos[species_idx]]

    def momentum_parity(self, mu: Momentum) -> int:
        """(l|l) mod 2 of mu's lattice label l; with norms +-1 it is sum(l) mod 2."""
        return sum(self.lattice_label(mu)) % 2

    def cocycle(self, shift: Momentum, mu: Momentum) -> int:
        """Two-cocycle epsilon(shift, mu), bimultiplicative on the lattice labels.

        Basis table: 1 above the diagonal, (-1)^(G_ij + G_ii G_jj) below, and
        (-1)^(G_ii (G_ii - 1)/2) on the diagonal; with G = diag(+-1) that is
        -1 below the diagonal and on the diagonal of a norm -1 species.  The
        diagonal normalization makes the boson-fermion and beta-gamma
        bosonization contractions come out with coefficient +1.
        """
        s, m = self.lattice_label(shift), self.lattice_label(mu)
        e = sum(s[i] * (sum(m[:i]) + (m[i] if norm < 0 else 0))
                for i, (_, norm) in enumerate(self._lattice))
        return -1 if e % 2 else 1

    # -- states ----------------------------------------------------------------

    def mode_degree(self, species_idx: int, depth: int) -> int:
        return depth - 1 + self.species[species_idx].engine_weight

    def state_degree(self, state: FockState) -> int:
        return sum(self.mode_degree(s, d) for s, d in state.modes)

    def vacuum(self) -> FockState:
        return FockState(self.zero_momentum(), ())

    def __repr__(self):
        return f"System({', '.join(s.name for s in self.species)})"


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _mode_key(mode):
    s, d = mode
    return (s, -d)


def canonical_modes(sys: System, raw_modes):
    """Canonical order of a raw monomial as (modes, sign); None encodes the
    zero vector.  The sign is -1 per pair of odd modes out of order."""
    odd, sign = sys.odd_flags, 1
    odd_keys = [_mode_key(m) for m in raw_modes if odd[m[0]]]
    for i in range(1, len(odd_keys)):
        ki = odd_keys[i]
        for kj in odd_keys[:i]:
            if kj > ki:
                sign = -sign
            elif kj == ki:
                return None
    # canonical order by two stable sorts: depth descending, then species
    modes = sorted(raw_modes, key=itemgetter(1), reverse=True)
    modes.sort(key=itemgetter(0))
    return tuple(modes), sign


def front_sign(sys: System, front, modes) -> int:
    """The sign canonical_modes gives (front,) + modes for canonical modes,
    without a sort: 0 when front repeats an odd mode."""
    if not sys.odd_flags[front[0]]:
        return 1
    key, sign = _mode_key(front), 1
    for m in modes:
        if sys.odd_flags[m[0]]:
            k = _mode_key(m)
            if k >= key:
                return 0 if k == key else sign
            sign = -sign
    return sign


_DIGIT = 256  # a packed key's digit holds one mode's multiplicity, 0..255


class _Packing(dict):
    """Packed keys of the creation monomials over `nspecies` species: mode (s, d) ->
    256^pos, pos = s + (number of species)(d - 1), so each mode's multiplicity
    fills one digit, the key of a product of commuting monomials is the sum of
    their keys, and `modes` maps a key back to its canonical mode tuple.  A
    digit overflows only past 255 equal modes, which `check` refuses."""

    def __init__(self, nspecies: int):
        self.nspecies, self.modes = nspecies, {}

    def __missing__(self, mode) -> int:
        w = self[mode] = _DIGIT ** (mode[0] + self.nspecies * (mode[1] - 1))
        return w

    def check(self, most: int) -> None:
        if most >= _DIGIT:
            raise ResourceBound(f"{most} equal modes overflow a packed key's digit")

    def pack(self, modes) -> int:
        self.check(len(modes))
        return sum(map(self.__getitem__, modes))

    def unpack(self, key: int) -> tuple:
        if key not in self.modes:  # every mode of a key has its weight here
            self.modes[key] = tuple(sorted(
                (m for m, w in self.items() for _ in range(key // w % _DIGIT)),
                key=lambda m: (m[0], -m[1])))
        return self.modes[key]


def normal_form(sys: System, mu: Momentum, raw_modes) -> Optional[tuple]:
    """A raw monomial as (canonical state, sign); None encodes zero."""
    out = canonical_modes(sys, raw_modes)
    return None if out is None else (FockState(mu, out[0]), out[1])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# species signature -> its Fock basis, kept for the process and shared by its
# Systems: the slice table {(k, d): mode tuples}, the _Packing, the slice
# indices {degree: {packed key: position}} and the {(positions, degree): Split}
_BASES = {}


def _mode_sets(sys: System, degree: int, k: int = 0):
    """Entry (k, degree) of the slice table of the System's signature; entry
    (0, d) is the canonical, sorted degree-d slice.

    Entry (k, d) is every mode tuple over species k, k+1, ... totalling degree
    d, built in lexicographic order with no sort (see ``_grow``).  Each entry
    is built once per species signature.
    """
    table = sys._slices
    out = table.get((k, degree))
    if out is not None:
        return out
    if sys._infinite:
        raise NonEnumerable(
            f"species {sys._infinite[0]} is a weight-0 boson: graded slices are infinite")
    if k == len(sys.species):
        out = ((),) if degree == 0 else ()
    else:
        acc = []
        _grow(sys, k, (), degree, degree + 1 - sys.species[k].engine_weight, acc)
        out = tuple(acc)
    table[(k, degree)] = out
    return out


def _grow(sys: System, k: int, prefix: tuple, r: int, top: int, acc: list) -> None:
    """Append to acc, in lexicographic order, every mode tuple of entry (k, .)
    that starts with `prefix`, a run of species-k modes with degree r left and
    no next species-k depth above `top`: the prefix itself if r = 0, then each
    species-k continuation by ascending depth (a fermion's depths fall
    strictly, a boson's weakly), then the prefix followed by each nonempty
    tuple of entry (k+1, r)."""
    sp = sys.species[k]
    w, step = sp.engine_weight, 1 if sp.odd else 0
    if r == 0:
        acc.append(prefix)
    for dep in range(1, min(top, r + 1 - w) + 1):
        _grow(sys, k, prefix + ((k, dep),), r - dep + 1 - w, dep - step, acc)
    rest = _mode_sets(sys, r, k + 1)
    rest = rest[1:] if r == 0 else rest  # () leads entry (k+1, 0)
    acc.extend([prefix + t for t in rest] if prefix else rest)


def _check_cap(size: int, cap: Optional[int], degree: int) -> None:
    if cap is not None and size > cap:
        raise ResourceBound(f"slice size {size} exceeds cap {cap} (degree {degree})")


def slice_modes(sys: System, degree: int, cap: Optional[int] = None) -> tuple:
    """The degree slice as its canonical mode tuples, read off the slice table;
    ResourceBound past the cap."""
    shapes = _mode_sets(sys, degree) if degree >= 0 else ()
    _check_cap(len(shapes), cap, degree)
    return shapes


def enumerate_basis(sys: System, mu: Momentum, degree: int, cap: Optional[int] = None):
    """Ordered basis of the degree slice of the Fock module over |mu>."""
    return [FockState(mu, modes) for modes in slice_modes(sys, degree, cap)]


def slice_dimension(sys: System, degree: int) -> int:
    """Size of the degree slice of every Fock module of the system."""
    return len(_mode_sets(sys, degree)) if degree >= 0 else 0


def slice_index(sys: System, degree: int, cap: Optional[int] = None) -> dict:
    """{packed key: position} over the degree slice, built once per signature."""
    shapes = slice_modes(sys, degree, cap)
    if degree not in sys._indices:
        sys._indices[degree] = {sys._packing.pack(m): i for i, m in enumerate(shapes)}
    return sys._indices[degree]


def split_modes(packing: _Packing, contracted, modes: tuple) -> tuple:
    """Canonical modes as an E+ contracting the species `contracted` reads them:
    (modes, contracted modes, their packed key, the others' key, their depth sum)."""
    fmodes, key, kept, b = [], 0, 0, 0
    for mode in modes:
        if mode[0] in contracted:
            fmodes.append(mode)
            key += packing[mode]
            b += mode[1]
        else:
            kept += packing[mode]
    return modes, tuple(fmodes), key, kept, b


class Split(tuple):
    """(degree, split_modes of each state in slice order, most modes, most b)."""


def slice_split(sys: System, contracted: tuple, degree: int, cap: Optional[int] = None) -> Split:
    """The degree slice's Split for an E+ contracting the Heisenberg positions
    `contracted`, built once per signature; ResourceBound past the cap."""
    shapes = slice_modes(sys, degree, cap)
    if (contracted, degree) not in sys._splits:
        species = {sys.heis_indices[p] for p in contracted}
        states = tuple(split_modes(sys._packing, species, modes) for modes in shapes)
        sys._splits[contracted, degree] = Split((degree, states, max(map(len, shapes), default=0),
                                                 max((st[4] for st in states), default=0)))
    return sys._splits[contracted, degree]


def graded_dimension(sys: System, mu: Momentum, degrees):
    """Slice sizes over |mu>, counted without building states.  mu is not read:
    every Fock module of a system has the same slice sizes."""
    return [slice_dimension(sys, d) for d in degrees]


def state_str(sys: System, state: FockState) -> str:
    parts = "".join(f"{sys.species[s].name}(-{d})" for s, d in state.modes)
    mu = ",".join(str(v) for v in state.momentum.values)
    return f"{parts}|mu=({mu})>"
