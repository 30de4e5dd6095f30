"""Field expressions and their exact mode action on Fock states.

A FieldExpr is a tree over Gen (a registered species), Deriv, NormOrd (the
right-nested normally ordered product), Scale, Sum, and ExpOp (an exponential
lattice/shift operator, made by ``exp_op``, the one place its shift is
derived, its direction checked against the system).  ``mode_apply`` gives
the physical (n)-mode of any expression applied to a state, as an exact
finite linear combination from one recursion, ``_apply``, on which the OPEs
(the poles of a field on a state each caller builds once, ``ope_poles``) and
Gram matrices are built.  A generator's nonnegative modes on the modes of a
state over a momentum come from one walk, ``_annihilations``, for every m at
once; a call (a mode, an OPE with b's state, a Gram matrix) keeps the walks
it makes in one dict, so it walks each generator on each state once.  The
one screening residue path, ``residue_images``, maps a source slice's
``fock.Split``, or vectors it splits itself, to sparse images and, like
``mode_apply``, takes the images of the exponential operator from one core,
``_images``.  The core works columns of
jobs (split state, seed, places) on monomials packed into integer keys
(``fock._Packing``), writes each column in one pass through the caller's
index, and returns integers over one denominator Z (values, Z None, over
Q(t)); a ``Fraction`` is made only where a value is read (``_expop_mode``,
blocks).

Conventions.  Fields expand as a(z) = sum_n a_(n) z^(-n-1).  A mode a_(n) of a
homogeneous expression of engine weight w shifts engine degree by w - n - 1.
Normally ordered products obey the standard expansion

    (:AB:)_(n) = sum_{j>=0} A_(-1-j) B_(n+j)
               + (-1)^{p(A)p(B)} sum_{j>=0} B_(n-1-j) A_(j),

both sums truncated exactly by the grading.  The exponential operator with
coefficient c, direction lambda and shift s acts on a state of momentum mu as

    eps(s, mu) T_s z^{c(lambda|mu)} E-(z) E+(z),
    E-(z) = exp( sum_{m>0} (c/m) lambda_(-m) z^m ),
    E+(z) = exp( -sum_{m>0} (c/m) lambda_(m) z^-m ),

where (lambda|mu) is the zero-mode eigenvalue of the direction on |mu> and
eps is the lattice two-cocycle.  c(lambda|mu) must be an integer; otherwise
NonIntegralExponent is raised.  Both exponentials act in closed form.  Since
lambda_(m) moves past h_(-d) as the scalar m(lambda|h) delta_{m,d}, E+ keeps
or contracts each Heisenberg mode h_(-d) of the state, a contraction carrying
f z^-d, f = -c(lambda|h); pair-half modes are always kept.  E- is the sum of
its degree parts P_a z^a, P_0 = 1 and a P_a = c sum_{m=1..a} lambda_(-m)
P_(a-m).  So the (n)-image of the contracted modes of a state is I(n, ()) =
P_(-n-1-p), I(n, h(-d) rest) = f I(n-d, rest) + h(-d) I(n, rest)
(``_suffix_image``), memoized by (n + p, suffix), which no momentum enters
otherwise, across the calls sharing a memo (the degrees of a ``residue_map``,
the maps of a resolution chain).  Where each constant is computed: per
(operator, momentum), kept on the System, p, eps, mu + s and the factors f,
rational ones also over their lcm denominator D; per operator the parts P_a,
grown on demand on the field and apart over Z; per basis and contracted
species set, each slice's split of its states (``fock.slice_split``) with
the maxima that fix Z; per ``residue_images`` call eps a and the front places
of each degree; per ``_images`` call the ring, Z and the powers of D.

A LinComb is a dict FockState -> coefficient with no stored zeros; a state
is a canonical basis monomial, so every sign is carried by its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from typing import Optional, Union

from .errors import MomentumMismatch, NonSymmetric, ParityMismatch
from .fock import (FockState, Momentum, Split, System, front_sign, normal_form, split_modes,
                   state_str)
from .scalars import RatFun, Scalar, _as_int, sc_is_zero


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Deriv:
    expr: "FieldExpr"
    order: int = 1


@dataclass(frozen=True)
class NormOrd:
    left: "FieldExpr"
    right: "FieldExpr"


@dataclass(frozen=True)
class Scale:
    coeff: Scalar
    expr: "FieldExpr"


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class ExpOp:
    coeff: Scalar
    direction: tuple  # zero-mode coefficients over the heisenberg species
    shift: Momentum

    def __hash__(self) -> int:  # hashed per residue slice; a Fraction hashes slowly
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.coeff, self.direction, self.shift))

    @cached_property
    def contracted(self) -> tuple:
        """The Heisenberg positions E+ contracts: those the shift moves."""
        return tuple(p for p, v in enumerate(self.shift.values) if v)


def exp_op(sys: System, c: Scalar, direction) -> ExpOp:
    """e^{c int lambda} with its shift T_{c lambda}, the eigenvalue shift forced
    by the mode algebra; NonIntegralExponent unless its lattice label is integral,
    MomentumMismatch unless lambda has one entry per Heisenberg species."""
    direction = tuple(direction)
    if len(direction) != len(sys.heis_indices):
        raise MomentumMismatch(f"direction of {len(direction)} entries on a system of "
                               f"{len(sys.heis_indices)} Heisenberg species")
    vals = []
    for j in range(len(sys.heis_indices)):
        acc = 0
        for i, x in enumerate(direction):
            if sc_is_zero(x):
                continue
            acc = acc + x * sys.pairing[i][j]
        acc = acc * c
        vals.append(acc if not isinstance(acc, int) else Fraction(acc))
    shift = Momentum(tuple(vals))
    sys.lattice_label(shift)
    return ExpOp(c, direction, shift)


FieldExpr = Union[Gen, Deriv, NormOrd, Scale, Sum, ExpOp]


def gen(name: str) -> Gen:
    return Gen(name)


def nord(*factors) -> FieldExpr:
    """Right-nested normally ordered product :A(:B(:C...:):):."""
    return factors[0] if len(factors) == 1 else NormOrd(factors[0], nord(*factors[1:]))


def scale(c, expr) -> FieldExpr:
    return Scale(c, expr)


def sadd(*terms) -> FieldExpr:
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def deriv(expr, order=1) -> FieldExpr:
    return Deriv(expr, order)


def heis_comb(names, coefficients) -> FieldExpr:
    """Linear combination of heisenberg generators, one coefficient per name."""
    terms = [Gen(name) if c == 1 else Scale(c, Gen(name))
             for name, c in zip(names, coefficients) if not sc_is_zero(c)]
    if not terms:
        raise ValueError("empty heisenberg combination")
    return sadd(*terms)


def direction_of(sys: System, coeffs: dict) -> tuple:
    """Zero-mode coefficient vector over the heisenberg species from a name map."""
    vec = [Fraction(0)] * len(sys.heis_indices)
    for name, c in coeffs.items():
        vec[sys.heis_pos[sys.index[name]]] = c
    return tuple(vec)


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

LinComb = dict


def lc_add(acc: LinComb, state: Optional[FockState], coeff: Scalar) -> None:
    """acc[state] += coeff, dropping the state when the sum is 0."""
    if state is None or sc_is_zero(coeff):
        return
    old = acc.get(state)
    if old is None:
        acc[state] = coeff
    else:
        new = old + coeff
        if new:
            acc[state] = new
        else:
            del acc[state]


def lc_scale(lc: LinComb, c: Scalar) -> LinComb:
    return {} if sc_is_zero(c) else {s: v * c for s, v in lc.items()}


def lc_sum(*lcs) -> LinComb:
    acc = {}
    for lc in lcs:
        for s, v in lc.items():
            lc_add(acc, s, v)
    return acc


def lc_degree(sys: System, lc: LinComb) -> Optional[int]:
    degs = {sys.state_degree(s) for s in lc}
    if len(degs) > 1:
        raise ValueError("linear combination is not homogeneous")
    return degs.pop() if degs else None


def lc_str(sys: System, lc: LinComb) -> str:
    if not lc:
        return "0"
    order = sorted(lc, key=lambda st: (tuple(str(v) for v in st.momentum.values), st.modes))
    return " + ".join(f"({lc[s]})*{state_str(sys, s)}" for s in order)


# ---------------------------------------------------------------------------
# structural attributes
# ---------------------------------------------------------------------------

def parity(sys: System, expr: FieldExpr) -> int:
    if isinstance(expr, Gen):
        return 1 if sys.species[sys.index[expr.name]].odd else 0
    if isinstance(expr, (Deriv, Scale)):
        return parity(sys, expr.expr)
    if isinstance(expr, NormOrd):
        return (parity(sys, expr.left) + parity(sys, expr.right)) % 2
    if isinstance(expr, Sum):
        ps = {parity(sys, t) for t in expr.terms}
        if len(ps) != 1:
            raise ParityMismatch("sum mixes parities")
        return ps.pop()
    if isinstance(expr, ExpOp):
        return sys.momentum_parity(expr.shift)
    raise TypeError(expr)


def shift_of(sys: System, expr: FieldExpr) -> Momentum:
    if isinstance(expr, Gen):
        return sys.zero_momentum()
    if isinstance(expr, (Deriv, Scale)):
        return shift_of(sys, expr.expr)
    if isinstance(expr, NormOrd):
        return shift_of(sys, expr.left) + shift_of(sys, expr.right)
    if isinstance(expr, Sum):
        shifts = [shift_of(sys, t) for t in expr.terms]
        if any(s != shifts[0] for s in shifts):
            raise ValueError("sum mixes momentum shifts")
        return shifts[0]
    if isinstance(expr, ExpOp):
        return expr.shift
    raise TypeError(expr)


def exp_power(op: ExpOp, mu: Momentum) -> int:
    """z-exponent c(lambda|mu) of an ExpOp on the Fock module over |mu>."""
    if len(op.direction) != len(mu.values):
        raise MomentumMismatch(f"direction of {len(op.direction)} entries paired with a "
                               f"momentum of {len(mu.values)} eigenvalues")
    acc = 0
    for pos, c in enumerate(op.direction):
        if sc_is_zero(c):
            continue
        acc = acc + c * mu.values[pos]
    acc = acc * op.coeff if not sc_is_zero(acc) else acc * 0
    return _as_int(acc, "exponent pairing")


def weight(sys: System, expr: FieldExpr, mu: Momentum) -> int:
    """Engine weight of expr acting on the Fock module over |mu>."""
    if isinstance(expr, Gen):
        return sys.species[sys.index[expr.name]].engine_weight
    if isinstance(expr, Deriv):
        return weight(sys, expr.expr, mu) + expr.order
    if isinstance(expr, Scale):
        return weight(sys, expr.expr, mu)
    if isinstance(expr, NormOrd):
        return (weight(sys, expr.right, mu)
                + weight(sys, expr.left, mu + shift_of(sys, expr.right)))
    if isinstance(expr, Sum):
        return max(weight(sys, t, mu) for t in expr.terms)
    if isinstance(expr, ExpOp):
        return -exp_power(expr, mu)
    raise TypeError(expr)


# ---------------------------------------------------------------------------
# elementary mode actions
# ---------------------------------------------------------------------------

def _annihilations(sys: System, idx: int, modes: tuple, mu: Momentum) -> dict:
    """{(m, remaining modes): nonzero coefficient} of every mode g_(m), m >= 0, of
    generator idx on canonical modes over mu.  A Heisenberg g_(0) is mu's value
    and g_(m) contracts each mode h(-m) for m (g|h); a pair half contracts each
    partner mode at depth m + 1 for its pair sign, negated when g is odd and
    passes an odd number of odd modes.  Contracting equal modes gives one merged
    term."""
    sp = sys.species[idx]
    acc, terms = {}, []  # terms: (m, position of the contracted mode, coefficient)
    if sp.is_heis:
        val = sys.momentum_value(mu, idx)
        if not sc_is_zero(val):
            acc[0, modes] = val
        for i, (s, d) in enumerate(modes):
            if sys.species[s].is_heis:
                v = d * sys.pairing_of(idx, s)
                if not sc_is_zero(v):
                    terms.append((d, i, v))
    else:
        partner = sys.index[sp.partner]
        odd_passed = 0
        for i, (s, d) in enumerate(modes):
            if s == partner:
                v = sys.pair_sign(idx)
                terms.append((d - 1, i, Fraction(-v if sp.odd and odd_passed % 2 else v)))
            if sys.species[s].odd:
                odd_passed += 1
    for m, i, v in terms:
        key = (m, modes[:i] + modes[i + 1:])
        acc[key] = acc[key] + v if key in acc else v
    return acc


def _gen_mode(sys: System, idx: int, n: int, state: FockState, walks: dict) -> LinComb:
    """g_(n) on a state: a creation mode put in front by normal_form, or for
    n >= 0 the m = n terms of the state's one _annihilations walk, grouped by m
    and kept in walks[(idx, state)]."""
    if n <= -1:
        out = normal_form(sys, state.momentum, ((idx, -n),) + state.modes)
        return {} if out is None else {out[0]: Fraction(out[1])}
    walked = walks.get((idx, state))
    if walked is None:
        walked = walks[idx, state] = {}
        for (m, rest), v in _annihilations(sys, idx, state.modes, state.momentum).items():
            walked.setdefault(m, {})[FockState(state.momentum, rest)] = v
    return walked.get(n, {})


# ---------------------------------------------------------------------------
# exponential operators
# ---------------------------------------------------------------------------

@dataclass
class _ExpRecord:
    """Constants of one ExpOp on the Fock module over one momentum mu."""
    p: int            # z-exponent c(lambda|mu)
    eps: int          # two-cocycle eps(s, mu)
    target: Momentum  # mu + s
    factors: dict     # Heisenberg species s -> its nonzero -c (lambda|h_s)
    parts: list       # E- parts P_0, P_1, ... on the field, shared by all momenta
    zparts: Optional[list]  # the same over Z (see _grow_parts); None with a RatFun
    zfactors: Optional[tuple]  # (D, {s: D f}) over the lcm denominator D; the same


def _expop_record(sys: System, op: ExpOp, mu: Momentum) -> _ExpRecord:
    """The record of op over mu, built on first use and kept on the System."""
    cache = sys._expop_cache
    rec = cache.get((op, mu))
    if rec is None:
        # E+ contracts h_s(-d) for -c(lambda|h_s), minus the shift's entry s
        factors = {sys.heis_indices[p]: -op.shift.values[p] for p in op.contracted}
        if op not in cache:
            rational = not any(isinstance(x, RatFun)
                               for x in (op.coeff, *op.direction, *factors.values()))
            cache[op] = ([(1, {0: Fraction(1)})], [(1, {0: 1})] if rational else None)
        parts, zparts = cache[op]
        D = zparts and lcm(*[f.denominator for f in factors.values()])
        rec = cache[(op, mu)] = _ExpRecord(
            exp_power(op, mu), sys.cocycle(op.shift, mu), mu + op.shift, factors,
            parts, zparts, zparts and (D, {s: f.numerator * (D // f.denominator)
                                           for s, f in factors.items()}))
    return rec


def _grow_parts(sys: System, op: ExpOp, rec: _ExpRecord, top: int, field: bool) -> None:
    """Extend the E- parts of a ring through P_top, each (L_a, {packed key: L_a
    w}): a P_a = sum_{m=1..a} c lambda_(-m) P_(a-m); on the field L_a = 1.  Over
    Z, c lambda = u / q and the sum M over the parts scaled to L_(a-1) is a q
    L_(a-1) P_a, so with g = gcd(M, a q L_(a-1)), L_a = lcm(L_(a-1), a q L_(a-1) / g)."""
    parts, pk = rec.parts if field else rec.zparts, sys._packing
    if len(parts) > top:
        return
    lam = [(idx, op.coeff * c) for idx, c in zip(sys.heis_indices, op.direction)
           if not sc_is_zero(c)]
    q = 1 if field else lcm(*[c.denominator for _, c in lam])
    lam = lam if field else [(idx, c.numerator * (q // c.denominator)) for idx, c in lam]
    for a in range(len(parts), top + 1):
        L, part = parts[-1][0], {}
        for m in range(1, a + 1):
            Lm, prev = parts[a - m]
            for key, v in prev.items():
                v = v if L == Lm else v * (L // Lm)
                for idx, u in lam:
                    old = part.get(key + pk[(idx, m)])
                    part[key + pk[(idx, m)]] = v * u if old is None else old + v * u
        if field:
            parts.append((1, {key: v / a for key, v in part.items()}))
            continue
        g = gcd(a * q * L, *part.values())
        E = a * q * L // g
        parts.append((lcm(L, E), {key: v // g * (lcm(L, E) // E) for key, v in part.items()}))


_PACKED = type("_PackedKeys", (dict,), {"__missing__": lambda self, key: key})()  # no index


def _suffix_image(ctx, memo, np: int, fmodes: tuple, i: int, key: int, b: int) -> tuple:
    """(L, I(n, fmodes[i:])), I as in the module docstring, for a nonempty suffix
    of contracted modes not in the memo, of packed key `key` and depths summing
    to b, np = n + p, top = b - np - 1 >= 0; ctx is (D, factors, parts,
    packing).  Over Z an entry is its value times D^(modes) L, L = L_top; over
    the field D and L are 1.  Not a closure, which would be a reference cycle."""
    D, factors, parts, pk = ctx
    top = b - np - 1
    (s, d), w = fmodes[i], pk[fmodes[i]]
    leaf = i + 1 == len(fmodes)  # the rest of the suffix is empty: a part
    L, cut = (parts[top] if leaf else memo.get((np - d, key - w))
              or _suffix_image(ctx, memo, np - d, fmodes, i + 1, key - w, b - d))
    f = factors[s]
    image = {k: v * f for k, v in cut.items()}
    if top >= d:
        L_kept, kept = (parts[top - d] if leaf else memo.get((np, key - w))
                        or _suffix_image(ctx, memo, np, fmodes, i + 1, key - w, b - d))
        m = D * (L // L_kept)
        for k, v in kept.items():
            k += w
            t = image.pop(k, 0) + v * m
            if t:
                image[k] = t
    memo[(np, key)] = got = (L, image)
    return got


def _bounds(columns, p: int) -> tuple:
    """(nmax, top, S) of columns of jobs: the most modes of a state, the highest
    E- part met (-1 if none) and the seeds' lcm denominator, None with a RatFun."""
    nmax, top, S = 0, -1, 1
    for column in columns:
        for (modes, _, _, _, b), seed, places in column:
            if len(modes) > nmax:
                nmax = len(modes)
            if places and b - places[0][0] - 1 - p > top:
                top = b - places[0][0] - 1 - p
            if type(seed) is not int and S is not None:
                S = None if isinstance(seed, RatFun) else lcm(S, seed.denominator)
    return nmax, top, S


def _images(sys: System, op: ExpOp, rec: _ExpRecord, columns, nmax: int, top: int,
            S: Optional[int], index=None, memo=None) -> tuple:
    """Vertex-operator images over rec.target of columns of jobs (split, seed,
    places), a split being a state's ``fock.split_modes`` over rec's species,
    written in one pass: (Z, per column {target index: nonzero entry}).  For
    each (n, front) of places a job adds the (n)-mode image of the state with
    the creation mode `front` (or None) ahead times the seed (int, Fraction or
    RatFun): its contracted modes' suffix image, each key plus its other modes
    and the front, signed by front_sign, through `index` ({packed key: target
    index}, KeyError off it; the key itself if None).  Given the _bounds, an
    entry over Z is its value times Z = D^nmax Q S, Q the parts' lcm denominator
    through top; over the field (S None or no Z parts) Z is None."""
    pk, p, field = sys._packing, rec.p, S is None or rec.zparts is None
    pk.check(nmax + top + 1)  # a digit counts a kept mode, one of P_a's and the front
    D, factors = (1, rec.factors) if field else rec.zfactors
    S, parts = (1, rec.parts) if field else (S, rec.zparts)
    _grow_parts(sys, op, rec, top, field)
    Q = parts[top][0] if top >= 0 else 1
    ctx, powers = (D, factors, parts, pk), [D ** e * S for e in range(nmax + 1)]
    memo = {} if memo is None else memo.setdefault((op, field), {})
    out, index = [], _PACKED if index is None else index
    for column in columns:
        acc = None
        for (modes, fmodes, key, kept, b), seed, places in column:
            if not field:
                e = powers[nmax - len(fmodes)]
                seed = seed * e if type(seed) is int else seed.numerator * (e // seed.denominator)
            for n, front in places:
                sign = 1 if front is None else front_sign(sys, front, modes)
                if b - n - 1 - p < 0 or not sign:
                    continue
                L, image = (parts[b - n - 1 - p] if not fmodes else memo.get((n + p, key))
                            or _suffix_image(ctx, memo, n + p, fmodes, 0, key, b))
                s = seed if sign == 1 and L == Q else seed * (sign * (Q // L))
                w = kept if front is None else kept + pk[front]
                if acc is None:
                    acc = {index[k + w]: v * s for k, v in image.items()}
                    continue
                for k, v in image.items():
                    k = index[k + w]
                    t = acc.pop(k, 0) + v * s
                    if t:
                        acc[k] = t
        out.append({} if acc is None else acc)
    return None if field else powers[nmax] * Q, out


def _expop_mode(sys: System, op: ExpOp, n: int, state: FockState) -> LinComb:
    """(n)-mode of eps T_s z^p E-(z) E+(z) on a state, in closed form."""
    rec = _expop_record(sys, op, state.momentum)
    jobs = [[(split_modes(sys._packing, rec.factors, state.modes), rec.eps, ((n, None),))]]
    Z, (img,) = _images(sys, op, rec, jobs, *_bounds(jobs, rec.p))
    return {FockState(rec.target, sys._packing.unpack(key)): v if Z is None else Fraction(v, Z)
            for key, v in img.items()}


def residue_images(op, columns, index=None, memo=None) -> tuple:
    """Residues of a ``screening.ScreeningOp`` :P(z) e^{c int lambda(z)}: (P:
    None meaning 1, g or Scale(a, g)) over its source mu: (Z, one image over
    mu + s per column), from one _images call.  `columns` is a source slice's
    ``fock.Split`` over exp.contracted, a column per state, or vectors, each
    an iterable of (modes, coefficient), split here.  Without P a Split is
    written straight, its maxima fixing Z.  The (0)-mode of :g E: is sum_j
    g_(-1-j) E_(j) + (-1)^{p(g)p(E)} sum_j E_(-1-j) g_(j) (see mode_apply):
    g_(-1-j) goes ahead of E_(j) by the degree's front places, each term of
    the state's _annihilations seeds a job, and the jobs' _bounds fix Z.  eps
    a is folded once; no coefficient 1 or sign is multiplied."""
    sys, prefactor, exp, mu = op.system, op.prefactor, op.exp, op.source
    rec, pk = _expop_record(sys, exp, mu), sys._packing
    a, g = (prefactor.coeff, prefactor.expr) if isinstance(prefactor, Scale) else (1, prefactor)
    eps = rec.eps * a
    if isinstance(columns, Split):
        degree, states, nmax, bmax = columns
        if g is None:  # eps is rec.eps, an int; one job per column, its (0)-mode
            return _images(sys, exp, rec, zip(zip(states, repeat(eps), repeat(((0, None),)))),
                           nmax, max(bmax - 1 - rec.p, -1) if states else -1, 1, index, memo)
        columns = [((st, 1, degree),) for st in states]
    else:
        columns = [[(split_modes(pk, rec.factors, modes), x,
                     sum(sys.mode_degree(*m) for m in modes)) for modes, x in column]
                   for column in columns]
    idx = g and sys.index[g.name]
    eps2 = -eps if g and parity(sys, g) * parity(sys, exp) else eps  # seeds of the second sum
    fronts, jobs = {}, []
    for column in columns:
        jobs.append([])
        for st, x, d in column:
            places = ((0, None),) if g is None else fronts.get(d) or fronts.setdefault(
                d, tuple((j, (idx, j + 1)) for j in range(d - rec.p)))
            jobs[-1].append((st, eps if x == 1 else eps * x, places))
            if g is not None:
                x2 = eps2 if x == 1 else eps2 * x
                jobs[-1] += [(split_modes(pk, rec.factors, rest),
                              v if x2 == 1 else -v if x2 == -1 else x2 * v, ((-1 - j, None),))
                             for (j, rest), v in _annihilations(sys, idx, st[0], mu).items()]
    return _images(sys, exp, rec, jobs, *_bounds(jobs, rec.p), index, memo)


# ---------------------------------------------------------------------------
# mode_apply and friends
# ---------------------------------------------------------------------------

def mode_apply(sys: System, expr: FieldExpr, n: int, arg) -> LinComb:
    """expr_(n) applied to a FockState or LinComb; exact, grading-faithful."""
    return _apply(sys, expr, n, arg, {})


def _apply(sys: System, expr: FieldExpr, n: int, arg, walks: dict) -> LinComb:
    """mode_apply's one recursion; every node of one call shares walks (see
    _gen_mode), so a generator walks each state it meets once."""
    if isinstance(arg, dict):
        acc = {}
        for st, coeff in arg.items():
            for s2, v2 in _apply(sys, expr, n, st, walks).items():
                lc_add(acc, s2, v2 * coeff)
        return acc
    state: FockState = arg

    if isinstance(expr, Gen):
        return _gen_mode(sys, sys.index[expr.name], n, state, walks)
    if isinstance(expr, Scale):
        return lc_scale(_apply(sys, expr.expr, n, state, walks), expr.coeff)
    if isinstance(expr, Sum):
        return lc_sum(*(_apply(sys, t, n, state, walks) for t in expr.terms))
    if isinstance(expr, Deriv):
        ff = prod(range(n, n - expr.order, -1))  # falling factorial n (n-1) ... (n-order+1)
        if ff == 0:
            return {}
        c = Fraction((-1) ** expr.order * ff)
        return lc_scale(_apply(sys, expr.expr, n - expr.order, state, walks), c)
    if isinstance(expr, ExpOp):
        return _expop_mode(sys, expr, n, state)
    if isinstance(expr, NormOrd):
        A, B, mu, d = expr.left, expr.right, state.momentum, sys.state_degree(state)
        sgn = (-1) ** (parity(sys, A) * parity(sys, B))
        acc = {}
        # sum_j A_(-1-j) B_(n+j), then (+-) sum_j B_(n-1-j) A_(j), for j up to
        # the grading's bound; inner(lo + j) on the state, outer(top - j) after it
        for inner, outer, lo, top, sign in ((B, A, n, -1, 1), (A, B, 0, n - 1, sgn)):
            for j in range(d + weight(sys, inner, mu) - lo):
                t = _apply(sys, inner, lo + j, state, walks)
                for s2, v2 in (_apply(sys, outer, top - j, t, walks) if t else {}).items():
                    lc_add(acc, s2, v2 if sign == 1 else v2 * sign)
        return acc
    raise TypeError(expr)


def state_of_field(sys: System, expr: FieldExpr) -> LinComb:
    """Vacuum-module state of expr: its (-1)-mode on the vacuum (z -> 0 limit)."""
    return mode_apply(sys, expr, -1, sys.vacuum())


def ope_singular(sys: System, a: FieldExpr, b: FieldExpr):
    """Singular part of a(z)b(w): pole order -> LinComb of states of b's module;
    b's state and the poles share one walks (see _gen_mode)."""
    walks = {}
    return _poles(sys, a, _apply(sys, b, -1, sys.vacuum(), walks), walks)


def ope_poles(sys: System, a: FieldExpr, v: LinComb):
    """Pole order j + 1 -> a_(j) v for a homogeneous state v, as in ope_singular."""
    return _poles(sys, a, v, {})


def _poles(sys: System, a: FieldExpr, v: LinComb, walks: dict):
    if not v:
        return {}
    mu = next(iter(v)).momentum
    poles = {j + 1: _apply(sys, a, j, v, walks)
             for j in range(lc_degree(sys, v) + weight(sys, a, mu))}
    return {j: acc for j, acc in poles.items() if acc}


def l0_apply(sys: System, conformal: FieldExpr, state) -> LinComb:
    """L0 action: the (1)-mode of the conformal field."""
    return mode_apply(sys, conformal, 1, state)


def vacuum_coefficient(sys: System, lc: LinComb) -> Scalar:
    vac = sys.vacuum()
    if any(s != vac for s in lc):
        raise ValueError("second-order pole is not a multiple of the vacuum")
    return lc.get(vac, Fraction(0))


def current_gram(sys: System, currents) -> list:
    """Matrix of second-order-pole coefficients of weight-1 even currents: the
    vacuum coefficient of a_(1) b, the one mode read."""
    zero = sys.zero_momentum()
    for c in currents:
        if parity(sys, c) != 0 or weight(sys, c, zero) != 1:
            raise ValueError("gram entries require weight-1 even currents")
    states, walks = [state_of_field(sys, c) for c in currents], {}
    G = [[vacuum_coefficient(sys, _apply(sys, a, 1, v, walks)) for v in states]
         for a in currents]
    for i in range(len(G)):
        for j in range(i):
            if G[i][j] != G[j][i]:
                raise NonSymmetric(f"gram entry ({i},{j}) != ({j},{i})")
    return G
