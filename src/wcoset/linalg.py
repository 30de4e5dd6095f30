"""Exact sparse linear algebra over Q and over rational functions.

Matrices are lists of row lists.  Inside, a row is a ``{col: value}`` dict of
its nonzeros, and one Gaussian elimination over the entry field serves both
``Fraction`` and ``RatFun`` entries.  It takes the columns in order and pivots
on the sparsest remaining row with a nonzero in the current column, so its
pivot columns are exactly those of the reduced row echelon form.  Rank is the
number of pivots.  Matrices with non-constant RatFun entries are limited to
SYMBOLIC_DIM_LIMIT columns, since symbolic entry swell is real.

Kernel bases are read off the pivot rows back-substituted to reduced row
echelon form (free columns parameterized in order), so output is
reproducible.  Products are row-sparse: each nonzero ``A[i][p]`` meets only
the nonzeros of row ``p`` of ``B``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceBound, ShapeMismatch
from .scalars import RatFun, sc_is_zero

SYMBOLIC_DIM_LIMIT = 64


def is_symbolic(M) -> bool:
    return any(isinstance(x, RatFun) and not x.is_constant() for row in M for x in row)


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise ShapeMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    m = len(B[0]) if B else 0
    if not A or not B:
        return [[Fraction(0)] * m for _ in A]
    # entries are Fraction or RatFun, both false exactly when zero
    B_rows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for Ai in A:
        acc = {}
        for p, a in enumerate(Ai):
            if a:
                for j, b in B_rows[p]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
        row = [Fraction(0)] * m
        for j, x in acc.items():
            row[j] = x
        out.append(row)
    return out


def mat_is_zero(M) -> bool:
    return all(sc_is_zero(x) for row in M for x in row)


def stack(mats):
    if not mats:
        return []
    w = len(mats[0][0]) if mats[0] else None
    out = []
    for M in mats:
        for row in M:
            if w is None:
                w = len(row)
            if len(row) != w:
                raise ShapeMismatch("stacked matrices disagree on column count")
            out.append(list(row))
    return out


def _check_symbolic_width(M, ncols):
    if ncols > SYMBOLIC_DIM_LIMIT and is_symbolic(M):
        raise ResourceBound(f"symbolic elimination limited to {SYMBOLIC_DIM_LIMIT} columns")


def _add_multiple(r, g, items):
    """r += g * row in place, for sparse rows r (a dict) and `items` of row."""
    for j, x in items:
        if j in r:
            y = r[j] + g * x
            if y:
                r[j] = y
            else:
                del r[j]
        else:
            r[j] = g * x


def _eliminate(M):
    """Forward sparse elimination of a dense matrix.

    Returns {pivot column: pivot row}, each pivot row scaled to 1 at its
    pivot column and stored without that entry.  Remaining rows wait in
    buckets by leading column; at each column the sparsest row of its bucket
    is the pivot and is subtracted from the others, which move on to the
    bucket of their new leading column, or vanish.
    """
    buckets = {}
    for row in M:
        r = {j: x for j, x in enumerate(row) if x}
        if r:
            buckets.setdefault(min(r), []).append(r)
    pivots = {}
    for col in range(len(M[0])):
        rows = buckets.pop(col, None)
        if rows is None:
            continue
        piv = min(rows, key=len)
        p = piv.pop(col)
        items = [(j, x / p) for j, x in piv.items()]
        pivots[col] = dict(items)
        for r in rows:
            if r is not piv:
                _add_multiple(r, -r.pop(col), items)
                if r:
                    buckets.setdefault(min(r), []).append(r)
    return pivots


def rank(M) -> int:
    if not M or not M[0]:
        return 0
    _check_symbolic_width(M, len(M[0]))
    return len(_eliminate(M))


def kernel_basis(M, ncols=None):
    """Basis of the right kernel, reduced echelon in the free variables."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    if not M:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    _check_symbolic_width(M, ncols)
    # back-substitute from the last pivot: each row then meets no other pivot
    reduced = {}
    for col, row in sorted(_eliminate(M).items(), reverse=True):
        for p in [j for j in row if j in reduced]:
            _add_multiple(row, -row.pop(p), reduced[p].items())
        reduced[col] = row
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in reduced.items():
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis
