"""Exact sparse linear algebra: Q over the integers, Q(t) over the field.

Matrices are lists of row lists, and every function takes and returns them
densely, with ``Fraction`` (or ``int``) or ``RatFun`` entries; the product
``mat_mul`` takes ``int`` and ``Fraction`` entries only.  Inside, a row is a
sparse list or ``{col: value}`` dict of its nonzeros.  A matrix with no
nonzero ``RatFun`` entry is worked over Z: each row is scaled by the lcm of its
denominators (and, as the right factor of a product, each column), the work
is done on Python integers, and the only division comes at the end.  Over
Q(t) rank and kernels are worked in the field of rational functions.

Both rings run through one elimination, which takes the columns in order and
pivots on the sparsest remaining row with a nonzero in the current column.
Kernel bases keep the natural order, so their pivot columns are exactly those
of the reduced row echelon form.  Rank, the number of pivots, does not depend
on the order of the eliminated indices, so rank takes them sparsest first,
relabelled by how many lines hold each (a stable sort, after Markowitz 1957):
the dense indices come last and fill in few lines.  The ring enters only
where a row r with entry b in the pivot column is combined with the pivot
row, whose entry there is a (fraction-free, after Bareiss 1968): over Z, r
becomes (a/g) r - (b/g) piv with g = gcd(a, b) and is then divided by its
content, so every row stays primitive; over the field, the pivot row is
scaled to a = 1 once and r becomes r - b piv.  Matrices with non-constant
RatFun entries are limited to SYMBOLIC_DIM_LIMIT columns, since symbolic
entry swell is real.

Rank over Z eliminates along the shorter side: a matrix with more rows than
columns is worked on its columns, each scaled by the lcm of its own
denominators and divided by its content.  The rank is unchanged, as rank(M)
= rank(M^T) and scaling a line by a nonzero number does not change it; only
the lines beyond the rank, each combined down to zero, are fewer (the stacked
coset slices are tall: at 153x108 of rank 102, 6 columns against 51 rows).
Kernel bases and matrices over Q(t) keep the rows.

Kernel bases are read off the pivot rows back-substituted, with the same
combine, to reduced row echelon form (free columns parameterized in order),
so output is reproducible; over Z the back-substitution stays integral and
each basis entry is divided by its pivot entry only when it is written.
Products are row-sparse: each nonzero ``A[i][p]`` meets only the nonzeros of
row ``p`` of ``B``, and entry (i, j) of the product is the integer sum divided
by L_i M_j, the scales of row i of A and column j of B.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, ResourceBound, ShapeMismatch
from .scalars import RatFun

SYMBOLIC_DIM_LIMIT = 64

# the one zero that dense blocks are filled with: a scan skips it by identity,
# without a call to Fraction.__bool__
ZERO = Fraction(0)


def is_symbolic(M) -> bool:
    return any(isinstance(x, RatFun) and not x.is_constant() for row in M for x in row)


def _ratios(M):
    """Each row's nonzeros as (col, numerator, denominator) triples, or None.

    This is the one test of entry type: None means M has a nonzero RatFun
    entry and is worked over the field; int and Fraction entries are worked
    over Z.  A ragged M is refused here, before any row is read.
    """
    w = len(M[0])
    if any(len(row) != w for row in M):
        raise ShapeMismatch("matrix rows differ in length")
    out = []
    for row in M:
        nz = [(j, x) for j, x in enumerate(row) if x is not ZERO and x]
        for _, x in nz:
            if isinstance(x, RatFun):
                return None
        out.append([(j, x.numerator, x.denominator) for j, x in nz])
    return out


def mat_mul(A, B):
    """A B over Q; an InputError names the factor with a nonzero RatFun entry."""
    if A and B and len(A[0]) != len(B):
        raise ShapeMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    m = len(B[0]) if B else 0
    if not A or not B:
        return [[ZERO] * m for _ in A]
    ra, rb = _ratios(A), _ratios(B)
    if ra is None or rb is None:
        raise InputError(f"mat_mul works over Q only: {'A' if ra is None else 'B'} "
                         "has a RatFun entry")
    col_scale = [1] * m
    for r in rb:
        for j, _, d in r:
            if d != 1:
                col_scale[j] = lcm(col_scale[j], d)
    B_rows = [[(j, n * (col_scale[j] // d)) for j, n, d in r] for r in rb]
    out = []
    for r in ra:
        L = lcm(*[d for _, _, d in r])
        acc = [0] * m
        for p, n, d in r:
            a = n * (L // d)
            for j, b in B_rows[p]:
                acc[j] += a * b
        out.append([Fraction(s, L * col_scale[j]) if s else ZERO for j, s in enumerate(acc)]
                   if any(acc) else [ZERO] * m)
    return out


def mat_is_zero(M) -> bool:
    # list.count tests identity before ==, so ZERO cells are counted in C
    return all(row.count(ZERO) == len(row) for row in M)


def _check_symbolic_width(M, ncols):
    if ncols > SYMBOLIC_DIM_LIMIT and is_symbolic(M):
        raise ResourceBound(f"symbolic elimination limited to {SYMBOLIC_DIM_LIMIT} columns")


# ---------------------------------------------------------------------------
# one sparse elimination over Z (int and Fraction matrices) and Q(t)
# ---------------------------------------------------------------------------

def _divide_content(r):
    """Divide the integer row r (a dict) by the gcd of its entries, in place."""
    c = gcd(*r.values())
    if c > 1:
        for j in r:
            r[j] //= c


def _rows(M, by_columns=False):
    """The sparse lines {index: value} of M, and whether they are integral.

    Without a nonzero RatFun entry each row (each column, if by_columns) is
    scaled by the lcm of its denominators and divided by its content: a
    primitive integer line spanning the same line.  Otherwise the lines are
    the rows, holding the nonzero entries as they are.
    """
    ratios = _ratios(M)
    if ratios is None:
        return [{j: x for j, x in enumerate(row) if x is not ZERO and x} for row in M], False
    if by_columns:
        columns = [[] for _ in M[0]]
        for i, r in enumerate(ratios):
            for j, n, d in r:
                columns[j].append((i, n, d))
        ratios = columns
    lines = []
    for r in ratios:
        L = lcm(*[d for _, _, d in r])
        line = {j: n * (L // d) for j, n, d in r}
        _divide_content(line)
        lines.append(line)
    return lines, True


def _combine(r, b, a, items, integral):
    """Clear the entry b that r (a dict) had at a pivot column, in place:
    r <- a r - b piv, for the pivot row piv with entry a there and its other
    entries in `items`.

    Over Z both multipliers are first divided by gcd(a, b) and r is then
    divided by its content, so it stays primitive.  Over the field the pivot
    row is scaled to a = 1 once per pivot, so r <- r - b piv.
    """
    if integral:
        g = gcd(a, b)
        a, b = a // g, b // g
    if a != 1:
        for j in r:
            r[j] *= a
    t = -b
    for j, x in items:
        if j in r:
            y = r[j] + t * x
            if y:
                r[j] = y
            else:
                del r[j]
        else:
            r[j] = t * x
    if integral:
        _divide_content(r)


def _eliminate(rows, ncols, integral):
    """Forward sparse elimination of the rows from _rows, in place.

    Returns {pivot column: (pivot entry, pivot row without that entry)}.
    Rows wait in buckets by leading column; at each column the sparsest row
    of its bucket is the pivot, and _combine clears that column from the
    others, which move on to the bucket of their new leading column, or
    vanish.  Over the field the pivot row is scaled to 1 first.
    """
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    pivots = {}
    for col in range(ncols):
        rows = buckets.pop(col, None)
        if rows is None:
            continue
        piv = min(rows, key=len)
        a = piv.pop(col)
        if not integral:
            for j, x in piv.items():
                piv[j] = x / a
            a = 1
        items = list(piv.items())
        pivots[col] = (a, piv)
        for r in rows:
            if r is not piv:
                _combine(r, r.pop(col), a, items, integral)
                if r:
                    buckets.setdefault(min(r), []).append(r)
    return pivots


def rank(M) -> int:
    if not M:
        return 0
    # over Z a tall M is eliminated on its columns, the fewer lines, since
    # rank(M) = rank(M^T); over Q(t) it keeps its rows
    by_columns = len(M) > len(M[0])
    lines, integral = _rows(M, by_columns)
    if not integral:
        _check_symbolic_width(M, len(M[0]))
    n = len(M) if integral and by_columns else len(M[0])
    # relabel the eliminated indices sparsest first, ties in their order
    count = Counter(j for r in lines for j in r)
    label = {j: i for i, j in enumerate(sorted(range(n), key=count.__getitem__))}
    return len(_eliminate([{label[j]: x for j, x in r.items()} for r in lines], n, integral))


def kernel_basis(M, ncols=None):
    """Basis of the right kernel, reduced echelon in the free variables."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    if not M:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    rows, integral = _rows(M)
    if not integral:
        _check_symbolic_width(M, ncols)
    # back-substitute from the last pivot: each row then meets no other pivot;
    # the pivot entry rides in its row, so over Z the content it shares is
    # divided out
    reduced = {}
    for col, (a, row) in sorted(_eliminate(rows, len(M[0]), integral).items(), reverse=True):
        row[col] = a
        for p in [j for j in row if j in reduced]:
            q, prow = reduced[p]
            _combine(row, row.pop(p), q, prow.items(), integral)
        reduced[col] = (row.pop(col), row)
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, (a, row) in reduced.items():
            if f in row:
                # over the field the pivot entry a is 1
                v[p] = Fraction(-row[f], a) if integral else -row[f]
        basis.append(v)
    return basis
