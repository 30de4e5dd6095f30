"""Screening residues as exact graded linear maps, their kernels and compositions.

A ScreeningOp is the residue of :P(z) e^{c int lambda(z)}: T_s between Fock
modules of its system: prefactor P (None meaning 1, a generator g, or a
scaled generator a g), the exponential ``fields.exp_op`` made with its shift
s = T_{c lambda}, and a source momentum mu.  Any other prefactor, or a source
with the wrong number of eigenvalues, is refused when the op is made.  The
residue is the (0)-mode of the composite field; on the degree-d slice of the
source it lands in degree d + w_P - 1 - c(lambda|mu) of the target module
over |mu + s>.

GradedMap holds per degree the slice ``fields.residue_images`` writes for
``residue_map`` from the source slice's ``fock.Split`` over the contracted
species (``fock.slice_split``, kept per basis: no state is built or walked)
through ``fock.slice_index``, every degree sharing one memo: a column {target
index: entry} per source state, integers over a denominator Z (values, Z
None, over Q(t)); an image off the target raises ShapeMismatch; a slice over
the cap, source or target, is refused.  Its ``blocks``, dense matrices of
``Fraction``s and ``linalg.ZERO``, are a view built on each read that no
check reads.  ``joint_kernel`` returns the per-degree kernel dims, handing
the maps' slices to ``linalg.column_rank`` as the blocks of one stack;
``compose_check`` runs the packed zero test ``linalg.product_vanishes`` on the
integer columns of two built maps, a degree whose composite passes through an
empty slice counting as vacuous (None).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .errors import InputError, MomentumMismatch, ShapeMismatch
from .fields import (ExpOp, FieldExpr, Gen, LinComb, Scale, _expop_record, lc_degree,
                     residue_images, weight)
from .fock import Momentum, System, slice_index, slice_split
from .linalg import ZERO, column_rank, product_vanishes
# not called here; bench/test_bench.py checks that its tracer patches these sites
from .fields import mode_apply  # noqa: F401
from .fock import enumerate_basis  # noqa: F401
from .linalg import kernel_basis, mat_mul, rank  # noqa: F401


@dataclass(frozen=True)
class ScreeningOp:
    """Residue of :P(z) e^{c int lambda(z)}: between graded Fock slices."""
    system: System
    exp: ExpOp
    source: Momentum
    prefactor: Optional[FieldExpr] = None
    name: str = "S"

    def __post_init__(self):
        # a generator does not shift the momentum, so every image of a slice
        # lies over the target; `at` runs this too, through `replace`
        p = self.prefactor
        g = p.expr if isinstance(p, Scale) else p
        if p is not None and not (isinstance(g, Gen) and g.name in self.system.index):
            raise InputError(f"screening prefactor {p} is neither a generator of the "
                             "system nor a scaled one")
        if len(self.source.values) != len(self.system.heis_indices):
            raise MomentumMismatch(f"source momentum has {len(self.source.values)} "
                                   f"eigenvalues, the system {len(self.system.heis_indices)} "
                                   "Heisenberg species")

    def at(self, source: Momentum, name: Optional[str] = None) -> "ScreeningOp":
        """The same residue out of the module over `source`."""
        return replace(self, source=source, name=self.name if name is None else name)

    def target(self) -> Momentum:
        return _expop_record(self.system, self.exp, self.source).target

    def degree_shift(self) -> int:
        sys, pref = self.system, self.prefactor
        w_pref = 0 if pref is None else weight(sys, pref, sys.zero_momentum())
        return w_pref - 1 - _expop_record(sys, self.exp, self.source).p


@dataclass
class GradedMap:
    source: Momentum
    target: Momentum
    degree_shift: int
    # degree -> (Z, columns, target size): column j is {target index: entry}
    # for source state j, an integer over Z, or a value with Z None over Q(t)
    slices: dict = field(default_factory=dict)

    @property
    def blocks(self) -> dict:
        """Dense matrices per degree, built on each read: Fraction(entry, Z) or
        the Q(t) value on the columns, linalg.ZERO off them."""
        out = {}
        for d, (Z, columns, m) in self.slices.items():
            out[d] = block = [[ZERO] * len(columns) for _ in range(m)]
            for j, column in enumerate(columns):
                for i, v in column.items():
                    block[i][j] = v if Z is None else Fraction(v, Z)
        return out


def residue_map(op: ScreeningOp, degrees, cap: Optional[int] = None,
                memo: Optional[dict] = None) -> GradedMap:
    """Exact sparse matrices of the screening residue on the requested degree
    slices, every degree sharing `memo` (fresh unless given; maps on one
    System may share one, as suffix images keep their own L)."""
    sys, shift_deg, memo = op.system, op.degree_shift(), {} if memo is None else memo
    pk, gm = sys._packing, GradedMap(op.source, op.target(), shift_deg)
    for d in degrees:
        split = slice_split(sys, op.exp.contracted, d, cap)
        index = slice_index(sys, d + shift_deg, cap)
        try:
            Z, columns = residue_images(op, split, index, memo)
        except KeyError as missing:
            degree = sum(sys.mode_degree(*mode) for mode in pk.unpack(missing.args[0]))
            raise ShapeMismatch(f"image of degree {degree} missing from target slice") from None
        gm.slices[d] = (Z, columns, len(index))
    return gm


def joint_kernel(maps, degrees) -> list:
    """Per-degree dimension of the intersection of kernels (stacked-matrix rank)."""
    if not maps:
        raise ShapeMismatch("joint kernel of no maps")
    src = maps[0].source
    if any(m.source != src for m in maps):
        raise ShapeMismatch("joint kernel requires a common source module")
    dims = []
    for d in degrees:
        if any(d not in m.slices for m in maps):
            raise ShapeMismatch(f"map lacks degree {d}")
        slices = [m.slices[d] for m in maps]
        n = len(slices[0][1])
        if any(len(columns) != n for _, columns, _ in slices):
            raise ShapeMismatch("maps disagree on source dimension")
        # a map's rows scaled by its Z keep rank and kernel; Q(t) takes values
        integral = all(Z is not None for Z, _, _ in slices)
        blocks = [(columns if integral or Z is None else
                   [{i: Fraction(v, Z) for i, v in c.items()} for c in columns], m)
                  for Z, columns, m in slices]
        dims.append(n - column_rank(blocks, integral))
    return dims


def compose_check(m2: GradedMap, m1: GradedMap) -> dict:
    """Per degree of m1: True iff m2 after m1 vanishes on the slice, None if
    the source, middle or target slice is empty.  The product is tested for
    zero on the integer columns, so both maps must be at a rational level."""
    if m2.source != m1.target:
        raise MomentumMismatch("target momentum of the first map must equal the "
                               "source of the second")
    out = {}
    for d, (Z1, B, middle) in m1.slices.items():
        e = d + m1.degree_shift
        if e not in m2.slices:
            raise ShapeMismatch(f"second map lacks degree {e}")
        Z2, A, rows = m2.slices[e]
        if not (rows and middle and B):
            out[d] = None
            continue
        if len(A) != middle:
            raise ShapeMismatch(f"cannot compose {rows}x{len(A)} after {middle}x{len(B)}")
        if Z1 is None or Z2 is None:
            raise InputError("compose_check works over Q only: a map is at a RatFun level")
        out[d] = product_vanishes(A, B)
    return out


def annihilates(ops, v: LinComb) -> bool:
    """True iff every screening residue of ops kills the homogeneous vector v."""
    if not (v and ops):
        return True
    lc_degree(ops[0].system, v)  # homogeneity check
    momenta = {s.momentum for s in v}
    if len(momenta) > 1:
        raise MomentumMismatch("vector mixes momenta")
    mu, = momenta
    column = [(s.modes, x) for s, x in v.items()]
    return not any(residue_images(op.at(mu), [column])[1][0] for op in ops)
