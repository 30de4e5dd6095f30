"""Exact sparse linear algebra: Q over the integers, Q(t) over the field.

The cores take a matrix as its sparse columns, ``{row: entry}`` dicts of the
nonzeros, integers (a row may carry its own scale, which moves neither rank
nor kernel) or values in Q(t): ``column_rank`` a stack of blocks, each
(columns, row count) over the same columns, as ``screening.joint_kernel``
hands it a degree's residue slices; ``column_kernel`` one matrix; the zero
test ``product_vanishes`` integers.  ``rank`` (one block), ``kernel_basis``
and ``mat_mul`` (over ``product_columns``) are dense adapters over the same
cores for lists of rows with ``Fraction`` (or ``int``) or ``RatFun`` entries,
each row scaled to integers by the lcm of its denominators unless a nonzero
RatFun entry puts the matrix over Q(t).

One elimination serves both rings: it takes the indices in order and pivots on
the sparsest remaining line with a nonzero there.  Kernels keep the natural
order of the columns, so their pivots are those of the reduced row echelon
form.  Rank, which does not depend on the order, builds each line once from
its blocks: over Z a tall stack (as the coset slices are) on its columns, the
fewer lines, and the indices labelled sparsest first, by how many lines hold
each (a stable sort, after Markowitz 1957).  A line r with entry b at the
pivot index meets the pivot line, whose entry there is a (fraction-free, after
Bareiss 1968): over Z, r becomes (a/g) r - (b/g) piv with g = gcd(a, b),
and a line is divided by its content only when it becomes a pivot, since
later arithmetic reads only pivot lines; over the field the pivot line is
scaled to a = 1 once and r becomes r - b piv.  Kernel bases are the pivot
rows back-substituted to reduced row echelon form, each row then divided by
its content and each entry by its pivot only when written.  Matrices with
non-constant RatFun entries are limited to SYMBOLIC_DIM_LIMIT columns.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
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
    """The sparse rows of the dense M, or None if a nonzero RatFun entry puts it
    over the field: the one test of entry type.  A ragged M is refused first."""
    w = len(M[0])
    if any(len(row) != w for row in M):
        raise ShapeMismatch("matrix rows differ in length")
    out = []
    for row in M:
        line = {j: x for j, x in enumerate(row) if x is not ZERO and x}
        if any(isinstance(x, RatFun) for x in line.values()):
            return None
        out.append(line)
    return out


def _over_z(lines):
    """(the L, the integer lines): each rational line over its lcm denominator L."""
    scales = [lcm(*[x.denominator for x in r.values()]) for r in lines]
    return scales, [{j: x.numerator * (L // x.denominator) for j, x in r.items()}
                    for r, L in zip(lines, scales)]


def _transpose(lines, n):
    """The n sparse lines that cross the given ones."""
    out = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


def mat_mul(A, B):
    """A B over Q; an InputError names the factor with a nonzero RatFun entry."""
    if A and B and len(A[0]) != len(B):
        raise ShapeMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    out = [[ZERO] * (len(B[0]) if B else 0) for _ in A]
    if not A or not B:
        return out
    ra, rb = _ratios(A), _ratios(B)
    if ra is None or rb is None:
        raise InputError(f"mat_mul works over Q only: {'A' if ra is None else 'B'} "
                         "has a RatFun entry")
    # row i of A over its lcm denominator L_i, column j of B over its M_j
    (L, ra), (M, cb) = _over_z(ra), _over_z(_transpose(rb, len(B[0])))
    for j, acc in enumerate(product_columns(_transpose(ra, len(B)), cb, len(A))):
        for i, s in enumerate(acc):
            if s:
                out[i][j] = Fraction(s, L[i] * M[j])
    return out


def product_columns(a_cols, b_cols, m):
    """The columns of A B, each a list of m integer sums, from the sparse
    integer columns of A (m rows) and of B."""
    for col in b_cols:
        acc = [0] * m
        for p, b in col.items():
            for i, a in a_cols[p].items():
                acc[i] += a * b
        yield acc


def product_vanishes(a_cols, b_cols) -> bool:
    """True iff A B = 0, from the sparse integer columns of A and of B, by
    Kronecker substitution: with t_p = sum_i A_ip 2^(k i) and 2^k > max|A|
    max_j |B_j|_1, column j of A B is zero iff sum_p B_pj t_p is (the lowest
    nonzero entry of a column would be a multiple of 2^k)."""
    amax = max([max(map(abs, col.values())) for col in a_cols if col], default=0)
    bmax = max([sum(map(abs, col.values())) for col in b_cols], default=0)
    t = _kronecker(a_cols, (amax * bmax).bit_length())
    return not any(sum(b * t[p] for p, b in col.items()) for col in b_cols)


def _kronecker(cols, k):
    """Each sparse integer column packed over its rows: sum_i x_i 2^(k i)."""
    return [sum(x << k * i for i, x in col.items()) for col in cols]


# ---------------------------------------------------------------------------
# one sparse elimination over Z (int and Fraction matrices) and Q(t)
# ---------------------------------------------------------------------------

def _divide_content(r):
    """Divide the integer row r (a dict) by the gcd of its entries, in place."""
    c = gcd(*r.values())
    if c > 1:
        for j in r:
            r[j] //= c


def _columns(M):
    """The sparse columns of the dense M, its row count and whether they are
    integral: each row scaled to integers by the lcm of its denominators or,
    with a nonzero RatFun entry, the entries as they are."""
    if not M:
        return [], 0, True
    rows = _ratios(M)
    integral = rows is not None
    rows = _over_z(rows)[1] if integral else [
        {j: x for j, x in enumerate(row) if x is not ZERO and x} for row in M]
    return _transpose(rows, len(M[0])), len(M), integral


def _bound_width(lines, ncols, integral):
    """Refuse a Q(t) elimination over more than SYMBOLIC_DIM_LIMIT indices."""
    if not integral and ncols > SYMBOLIC_DIM_LIMIT and is_symbolic([r.values() for r in lines]):
        raise ResourceBound(f"symbolic elimination limited to {SYMBOLIC_DIM_LIMIT} columns")


def _combine(r, b, a, items, integral):
    """Clear the entry b that r (a dict) had at a pivot column, in place:
    r <- a r - b piv, for the pivot row piv with entry a there and its other
    entries in `items`.

    Over Z both multipliers are first divided by gcd(a, b); r keeps its
    content.  Over the field the pivot row is scaled to a = 1 once per pivot,
    so r <- r - b piv.
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


def _eliminate(rows, ncols, integral):
    """Forward sparse elimination of integer or Q(t) rows, in place.

    Returns {pivot column: (pivot entry, pivot row without that entry)}.
    Rows wait in buckets by leading column; at each column the sparsest row
    of its bucket is the pivot, and _combine clears that column from the
    others, which move on to the bucket of their new leading column, or
    vanish.  Over Z the pivot row is first divided by its content, so every
    pivot is primitive; over the field it is scaled to 1.
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
        if integral:
            _divide_content(piv)
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


def column_rank(blocks, integral) -> int:
    """Rank of the stack of blocks, each (sparse columns, row count) over the same
    columns: integers (a row may carry its own scale) if integral, else Q(t)."""
    offsets = list(accumulate([m for _, m in blocks], initial=0))
    ncols, nrows = len(blocks[0][0]), offsets.pop()
    # over Z a tall stack is eliminated on its columns, the fewer lines, since
    # rank(M) = rank(M^T); the eliminated indices are labelled sparsest first,
    # by how many lines hold each, ties in their order
    tall = integral and nrows > ncols
    if tall:
        n, count = nrows, Counter(o + i for (columns, _), o in zip(blocks, offsets)
                                  for column in columns for i in column)
    else:
        n, count = ncols, [sum(len(columns[j]) for columns, _ in blocks) for j in range(ncols)]
    label = {j: k for k, j in enumerate(sorted(range(n), key=count.__getitem__))}
    if tall:
        lines = [{label[o + i]: x for (columns, _), o in zip(blocks, offsets)
                  for i, x in columns[j].items()} for j in range(ncols)]
    else:
        lines = [{} for _ in range(nrows)]
        for (columns, _), o in zip(blocks, offsets):
            for j, column in enumerate(columns):
                for i, x in column.items():
                    lines[o + i][label[j]] = x
    _bound_width(lines, n, integral)
    return len(_eliminate(lines, n, integral))


def column_kernel(columns, nrows, integral):
    """Right kernel basis, reduced echelon, of one block (columns, nrows) of column_rank."""
    ncols = len(columns)
    rows = _transpose(columns, nrows)
    _bound_width(rows, ncols, integral)
    # back-substitute from the last pivot: each row then meets no other pivot;
    # the pivot entry rides in its row, so over Z the content it gathers is
    # divided out once the row is reduced
    reduced = {}
    for col, (a, row) in sorted(_eliminate(rows, ncols, integral).items(), reverse=True):
        row[col] = a
        for p in [j for j in row if j in reduced]:
            q, prow = reduced[p]
            _combine(row, row.pop(p), q, prow.items(), integral)
        if integral:
            _divide_content(row)
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


def rank(M) -> int:
    columns, nrows, integral = _columns(M)
    return column_rank([(columns, nrows)], integral)


def kernel_basis(M, ncols=None):
    """Basis of the right kernel, reduced echelon in the free variables; ncols
    pads M with zero columns (a matrix of no rows has no other width)."""
    columns, nrows, integral = _columns(M)
    return column_kernel(columns + [{}] * ((ncols or 0) - len(columns)), nrows, integral)
