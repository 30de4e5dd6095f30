"""Screening residues as exact graded linear maps, their kernels and compositions.

A ScreeningOp is the residue of :P(z) e^{c int lambda(z)}: T_s between Fock
modules of its system: prefactor P (None meaning 1, a generator g, or a
scaled generator a g), the exponential ``fields.exp_op`` made with its shift
s = T_{c lambda}, and a source momentum mu.  Any other prefactor, or a source
with the wrong number of eigenvalues, is refused when the op is made.  The
residue is the (0)-mode of the composite field; on the degree-d slice of the
source it lands in degree d + w_P - 1 - c(lambda|mu) of the target module
over |mu + s>.

GradedMap holds one exact matrix per degree (rows indexed by the target
basis, columns by the source basis) and its source and target momenta;
``compose_check`` multiplies two built maps, a degree whose composite passes
through an empty slice counting as vacuous (None).  Both residue checks go through
``fields.residue_images``: ``annihilates`` asks whether the image of its one
vector is empty, and ``residue_map``, the only writer of dense blocks, passes
each state of a slice and writes every entry from its packed monomial key
straight to its row; an image outside the target slice raises ShapeMismatch.
At a rational level one ``Fraction`` is made per distinct numerator of the
slice, and the other cells hold ``linalg.ZERO``, which the eliminations skip
by identity.  Kernels are computed by exact rank, through a sparse
elimination (fraction-free over Z for rational slices, over the field for
rational functions) whose pivot columns are those of the reduced row echelon
form; kernel bases, when requested, come back in reduced echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import InputError, MomentumMismatch, ShapeMismatch
from .fields import (ExpOp, FieldExpr, Gen, LinComb, Scale, exp_power, lc_degree,
                     residue_images, weight)
# not called here; bench/test_bench.py checks that its tracer patches this site
from .fields import mode_apply  # noqa: F401
from .fock import Momentum, System, enumerate_basis
from .linalg import ZERO, kernel_basis, mat_is_zero, mat_mul, rank


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
        return self.source + self.exp.shift

    def degree_shift(self) -> int:
        sys = self.system
        zero = sys.zero_momentum()
        w_pref = weight(sys, self.prefactor, zero) if self.prefactor is not None else 0
        p = exp_power(sys, self.exp, self.source)
        return w_pref - 1 - p


@dataclass
class GradedMap:
    source: Momentum
    target: Momentum
    degree_shift: int
    blocks: dict = field(default_factory=dict)       # degree -> matrix
    source_dims: dict = field(default_factory=dict)  # degree -> int


@dataclass
class KernelReport:
    degrees: list
    dims: list
    bases: Optional[dict] = None

    def as_pairs(self):
        return list(zip(self.degrees, self.dims))


def residue_map(op: ScreeningOp, degrees, cap: Optional[int] = None) -> GradedMap:
    """Exact matrices of the screening residue on the requested degree slices."""
    sys = op.system
    pk = sys._packing
    shift_deg = op.degree_shift()
    gm = GradedMap(op.source, op.target(), shift_deg)
    for d in degrees:
        src = enumerate_basis(sys, op.source, d, cap)
        tgt = enumerate_basis(sys, op.target(), d + shift_deg, cap)
        images = residue_images(sys, op.prefactor, op.exp, op.source,
                                [((s, 1),) for s in src])
        index = {pk.pack(t.modes): i for i, t in enumerate(tgt)}
        block = [[ZERO] * len(src) for _ in tgt]
        for j, image in enumerate(images):
            try:
                for key, v in image.items():
                    block[index[key]][j] = v
            except KeyError:
                degree = sum(sys.mode_degree(*mode) for mode in pk.unpack(key))
                raise ShapeMismatch(f"image of degree {degree} missing from target "
                                    "slice") from None
        gm.blocks[d] = block
        gm.source_dims[d] = len(src)
    return gm


def joint_kernel(maps, degrees, with_bases: bool = False) -> KernelReport:
    """Per-degree dimension of the intersection of kernels (stacked-matrix rank)."""
    degrees = list(degrees)
    if not maps:
        raise ShapeMismatch("joint kernel of no maps")
    src = maps[0].source
    if any(m.source != src for m in maps):
        raise ShapeMismatch("joint kernel requires a common source module")
    dims = []
    bases = {} if with_bases else None
    for d in degrees:
        stacked = []
        n = None
        for m in maps:
            if d not in m.blocks:
                raise ShapeMismatch(f"map lacks degree {d}")
            if n is None:
                n = m.source_dims[d]
            elif n != m.source_dims[d]:
                raise ShapeMismatch("maps disagree on source dimension")
            stacked += m.blocks[d]
        if not stacked or not stacked[0]:
            dims.append(n or 0)
            if with_bases:
                bases[d] = kernel_basis([], n or 0)
            continue
        if with_bases:
            kb = kernel_basis(stacked, n)
            bases[d] = kb
            dims.append(len(kb))
        else:
            dims.append(n - rank(stacked))
    return KernelReport(degrees, dims, bases)


def compose_check(m2: GradedMap, m1: GradedMap) -> dict:
    """Per degree of m1: True iff m2 after m1 vanishes on the slice, None if
    the source, middle or target slice is empty.  The product is taken over Q
    (`linalg.mat_mul`), so both maps must be at a rational level."""
    if m2.source != m1.target:
        raise MomentumMismatch("target momentum of the first map must equal the "
                               "source of the second")
    out = {}
    for d, B in m1.blocks.items():
        e = d + m1.degree_shift
        if e not in m2.blocks:
            raise ShapeMismatch(f"second map lacks degree {e}")
        A = m2.blocks[e]
        out[d] = mat_is_zero(mat_mul(A, B)) if A and B and B[0] else None
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
    return not any(residue_images(op.system, op.prefactor, op.exp, mu, [v.items()])[0]
                   for op in ops)
