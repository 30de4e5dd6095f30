"""The sparse elimination core against the dense reference it replaced.

The reference code below is the earlier dense linear algebra, kept here only
as an oracle: fraction-free Bareiss rank over Q on integer-cleared rows,
plain field elimination for rational-function matrices, a dense reduced row
echelon form for kernel bases and the triple-loop product.  The sparse core
must agree with it exactly (ranks, kernel bases as Python lists, products
over Q; the product refuses RatFun entries) on random sparse matrices and on
the screening slices the checks decompose.  Matrices over Q are worked over
Z, so their ranks and kernel bases are also computed on the field ring that
RatFun matrices use and compared, on entries of more than 64 bits
and on int entries.  Over Z only pivot rows are divided by their content:
each must be primitive and no combine may divide, and the elimination must
take the pivot columns, the combines and the pivot rows of a reference that
divides every line after every combine, on random matrices and on the coset
stacks to sl n=3 at degree 6.  Rank over Z takes a tall matrix on its
columns: the lines that reach the elimination are recorded, and the rank is
compared with the oracle's and with the rank of the transpose.  Rank takes
the eliminated indices sparsest first: it must not move under row and column
permutations, and on an arrowhead matrix no combine may grow a line, while
kernel bases keep the natural order.  The cores are also taken as the checks
call them, on sparse
columns: stacks of slices in residue_map's format, each with its own
denominator, through joint_kernel, and their kernel bases through
column_kernel on the same stack; int, Fraction and Q(t) columns cut into
blocks of rows through column_rank, and whole through column_kernel, which
must leave them as they were; the integer product against mat_mul; and the
packed zero test against the product's entries, at its bound and on empty
columns.  The negative controls show that these comparisons can fail.
"""

import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from wcoset import catalog as cat
from wcoset import linalg
from wcoset.errors import InputError, ResourceBound, ShapeMismatch
from wcoset.linalg import (SYMBOLIC_DIM_LIMIT, is_symbolic, kernel_basis, mat_mul,
                           product_columns, rank)
from wcoset.scalars import RatFun, T, sc_is_zero
from wcoset.screening import GradedMap, joint_kernel, residue_map

from test_screening import as_slice, write_block


# ---------------------------------------------------------------------------
# dense reference (test-only oracle)
# ---------------------------------------------------------------------------

def ref_mat_mul(A, B):
    if not A or not B:
        return [[Fraction(0)] * (len(B[0]) if B else 0) for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = Fraction(0)
            for p in range(k):
                a = Ai[p]
                if sc_is_zero(a):
                    continue
                acc = acc + a * B[p][j]
            row.append(acc)
        out.append(row)
    return out


def ref_int_rows(M):
    """Scale each row by the lcm of entry denominators: integer rows, same rank."""
    out = []
    for row in M:
        dens = [x.denominator for x in row]
        m = math.lcm(*dens) if dens else 1
        out.append([int(x * m) for x in row])
    return out


def ref_bareiss_rank(M) -> int:
    M = [row[:] for row in M]
    n = len(M)
    m = len(M[0]) if n else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, n):
            if all(c == 0 for c in M[r]):
                continue
            factor = M[r][col]
            for c in range(col, m):
                M[r][c] = (p * M[r][c] - factor * M[row][c]) // prev
        prev = p
        row += 1
        rank += 1
        if row == n:
            break
    return rank


def ref_field_rank(M) -> int:
    n = len(M)
    m = len(M[0]) if n else 0
    M = [row[:] for row in M]
    rank = 0
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, n):
            if not sc_is_zero(M[r][col]):
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, n):
            f = M[r][col]
            if sc_is_zero(f):
                continue
            scale = f / p
            M[r] = [M[r][c] - scale * M[row][c] for c in range(m)]
        row += 1
        rank += 1
        if row == n:
            break
    return rank


def ref_rank(M) -> int:
    if not M or not M[0]:
        return 0
    if is_symbolic(M):
        return ref_field_rank(M)
    return ref_bareiss_rank(ref_int_rows(M))


def ref_rref(M):
    n = len(M)
    m = len(M[0]) if n else 0
    M = [row[:] for row in M]
    pivots = []
    row = 0
    for col in range(m):
        piv = None
        for r in range(row, n):
            if not sc_is_zero(M[r][col]):
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        M[row] = [x / p for x in M[row]]
        for r in range(n):
            if r == row:
                continue
            f = M[r][col]
            if sc_is_zero(f):
                continue
            M[r] = [M[r][c] - f * M[row][c] for c in range(m)]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return M[:row], pivots


def ref_kernel_basis(M, ncols=None):
    if ncols is None:
        ncols = len(M[0]) if M else 0
    if not M:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    R, pivots = ref_rref(M)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def transpose(M):
    return [list(col) for col in zip(*M)]


def is_zero(M):
    return not any(x for row in M for x in row)


def assert_matches_oracle(M):
    """rank, kernel basis and M times the kernel agree exactly with the oracle;
    mat_mul works over Q only, so a symbolic M is multiplied by the oracle."""
    assert rank(M) == ref_rank(M)
    kb = kernel_basis(M, len(M[0]))
    assert kb == ref_kernel_basis(M, len(M[0]))
    assert len(kb) == len(M[0]) - rank(M)
    if kb:
        image = ref_mat_mul(M, transpose(kb))
        if not is_symbolic(M):
            assert mat_mul(M, transpose(kb)) == image
        assert is_zero(image)


# ---------------------------------------------------------------------------
# random sparse matrices over Q and small ones over Q(t)
# ---------------------------------------------------------------------------

def sparse_q(rng, n, m, density):
    return [[Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
             if rng.random() < density else Fraction(0) for _ in range(m)]
            for _ in range(n)]


def degenerate(rng, M):
    """M with a dependent row, a repeated row, a zero row and a zero column."""
    M = [row[:] for row in M]
    a, b = rng.randrange(len(M)), rng.randrange(len(M))
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    M.append([c * x + 2 * y for x, y in zip(M[a], M[b])])
    M.append(M[a][:])
    M.append([Fraction(0)] * len(M[0]))
    zc = rng.randrange(len(M[0]))
    for row in M:
        row[zc] = Fraction(0)
    rng.shuffle(M)
    return M


@pytest.mark.parametrize("seed", range(40))
def test_random_sparse_q(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 14), rng.randint(1, 16)
    M = degenerate(rng, sparse_q(rng, n, m, rng.choice([0.1, 0.2, 0.4, 0.8])))
    assert_matches_oracle(M)
    B = sparse_q(rng, m, rng.randint(1, 9), 0.3)
    assert mat_mul(M, B) == ref_mat_mul(M, B)


def test_random_sparse_q_wide_and_tall():
    rng = random.Random(2005)
    for n, m in ((3, 40), (40, 3), (25, 25)):
        assert_matches_oracle(degenerate(rng, sparse_q(rng, n, m, 0.15)))


def test_edge_shapes():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert rank(zero) == ref_rank(zero) == 0
    assert kernel_basis(zero) == ref_kernel_basis(zero)
    assert rank([]) == 0 and rank([[]]) == 0
    assert kernel_basis([], 3) == ref_kernel_basis([], 3)
    assert kernel_basis([[]], 2) == ref_kernel_basis([[]], 2)
    assert mat_mul([[Fraction(1)]], []) == ref_mat_mul([[Fraction(1)]], []) == [[]]
    assert mat_mul([], [[Fraction(1)]]) == []


RATFUNS = [T, T + 1, 1 / (T - 2), (T * T - 3) / (T + 5), RatFun.const(2),
           Fraction(-1, 3), Fraction(0), Fraction(0), Fraction(0)]


@pytest.mark.parametrize("seed", range(8))
def test_random_ratfun(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    M = [[rng.choice(RATFUNS) for _ in range(m)] for _ in range(n)]
    M.append([T * x + y for x, y in zip(M[0], M[-1])])  # a dependent row
    assert is_symbolic(M)
    assert_matches_oracle(M)


def test_mat_mul_refuses_a_ratfun_entry():
    Q = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1, 3)]]
    for A, B, named in (([[T, Fraction(1)]], Q, "A"), (Q, [[Fraction(1)], [T + 1]], "B"),
                        ([[RatFun.const(2), Fraction(0)]], Q, "A")):
        with pytest.raises(InputError, match=f"{named} has a RatFun entry"):
            mat_mul(A, B)
    # a RatFun zero is a zero, as in rank and kernel_basis
    assert mat_mul([[RatFun.const(0), Fraction(1)]], Q) == ref_mat_mul([[0, 1]], Q)


# ---------------------------------------------------------------------------
# the integer path against the oracle and against the field elimination
# ---------------------------------------------------------------------------

def field_results(M):
    """rank and kernel basis as the field ring computes them, with the
    dispatch to the Z ring switched off."""
    with mock.patch.object(linalg, "_ratios", lambda M: None):
        return rank(M), kernel_basis(M, len(M[0]))


def field_pivots(M):
    """The pivots of the one elimination run on M's entries over the field."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in M]
    return linalg._eliminate(rows, len(M[0]), False)


def assert_integer_path_exact(M, B):
    assert_matches_oracle(M)
    product = mat_mul(M, B)
    assert product == ref_mat_mul(M, B)
    assert field_results(M) == (rank(M), kernel_basis(M, len(M[0])))
    assert len(field_pivots(M)) == rank(M)


def big_q(rng, n, m, density, bits=80):
    """Sparse Q matrix with numerators and denominators of about `bits` bits."""
    def entry():
        return Fraction(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1),
                        rng.getrandbits(bits) | 1)
    return [[entry() if rng.random() < density else Fraction(0) for _ in range(m)]
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_integer_path_big_entries(seed):
    rng = random.Random(100 + seed)
    n, m = rng.randint(2, 9), rng.randint(2, 10)
    M = degenerate(rng, big_q(rng, n, m, rng.choice([0.3, 0.6, 1.0])))
    # a row whose integer content is above 1, and one that is that row over 12
    content = [Fraction(rng.randint(-5, 5) * 6) for _ in range(m)]
    M += [content, [x / 12 for x in content]]
    B = big_q(rng, len(M[0]), rng.randint(1, 5), 0.5)
    bits = [max(abs(x.numerator), x.denominator).bit_length() for row in M for x in row if x]
    assert max(bits) > 64 and any(x < 0 for row in M for x in row)
    assert_integer_path_exact(M, B)


def test_integer_path_int_entries():
    rng = random.Random(2020)
    for _ in range(10):
        n, m = rng.randint(1, 8), rng.randint(1, 9)
        ints = [[rng.choice((0, 0, 1, -2, 3, 12, -18)) for _ in range(m)] for _ in range(n)]
        ints.append([0] * m)
        as_q = [[Fraction(x) for x in row] for row in ints]
        B = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(m)]
        assert rank(ints) == ref_rank(as_q) == len(field_pivots(as_q))
        assert kernel_basis(ints) == ref_kernel_basis(as_q)
        assert mat_mul(ints, B) == ref_mat_mul(as_q, [[Fraction(x) for x in r] for r in B])
        mixed = [[Fraction(x, 3) if j % 2 else x for j, x in enumerate(row)] for row in ints]
        assert kernel_basis(mixed) == ref_kernel_basis(
            [[Fraction(x) for x in row] for row in mixed])


def test_zero_cells_read_alike_by_identity_and_by_value():
    # residue_map and mat_mul fill empty cells with the one linalg.ZERO, which
    # the scans skip by identity; zeros made apart must read the same
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    M = residue_map(spec.screenings[0], [3]).blocks[3]
    zeros = [x for row in M for x in row if not x]
    assert zeros and all(x is linalg.ZERO for x in zeros)
    rng = random.Random(5)
    apart = [[rng.choice((Fraction(0), 0, RatFun.const(0))) if x is linalg.ZERO else x
              for x in row] for row in M]
    assert linalg._ratios(apart) == linalg._ratios(M)
    assert rank(apart) == rank(M) and kernel_basis(apart) == kernel_basis(M)
    product = mat_mul(M, transpose(kernel_basis(M)))
    assert product and all(x is linalg.ZERO for row in product for x in row)


def test_integer_product_negative_control():
    """A vanishing product A B, then B plus 1/(L_i M_j) at (p, j), where column p
    of A is nonzero in row i only: the product is nonzero in cell (i, j) alone."""
    rng = random.Random(77)
    A = big_q(rng, 5, 9, 0.7, bits=70)
    i, p = 2, 4
    for r, row in enumerate(A):
        row[p] = Fraction(0) if r != i else Fraction(rng.getrandbits(70) | 1, 3 ** 40)
    B = transpose(ref_kernel_basis(A))
    assert B and is_zero(mat_mul(A, B))
    j = len(B[0]) - 1
    L_i = math.lcm(*[x.denominator for x in A[i]])
    M_j = math.lcm(*[row[j].denominator for row in B])
    B[p][j] += Fraction(1, L_i * M_j)
    product = mat_mul(A, B)
    assert product == ref_mat_mul(A, B)
    assert [(r, c) for r, row in enumerate(product) for c, x in enumerate(row) if x] == [(i, j)]
    assert product[i][j] == A[i][p] / (L_i * M_j)


def test_ratfun_matrices_reach_the_field_elimination():
    calls = Counter()
    eliminate = linalg._eliminate

    def counted_eliminate(rows, ncols, integral):
        calls["Z" if integral else "field"] += 1
        return eliminate(rows, ncols, integral)
    M = [[T, Fraction(1), Fraction(0)], [Fraction(2), T + 1, Fraction(-1, 3)]]
    Q = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(2), Fraction(4), Fraction(1)]]
    with mock.patch.object(linalg, "_eliminate", counted_eliminate):
        assert rank(M) == ref_rank(M) == 2
        assert kernel_basis(M) == ref_kernel_basis(M)
        assert calls == {"field": 2}
        assert rank(Q) == 2 and kernel_basis(Q) == ref_kernel_basis(Q)
        assert mat_mul(Q, transpose(Q)) == ref_mat_mul(Q, transpose(Q))
        assert calls == {"field": 2, "Z": 2}


def integer_mats(rng):
    """Z matrices: big and degenerate, a small one with content, and coset stacks."""
    mats = [degenerate(rng, big_q(rng, 8, 9, 0.6)) for _ in range(4)]
    mats += [[[x * 6 for x in row] for row in sparse_q(rng, 12, 10, 0.5)]]
    mats += stacked_slices(coset_maps("sl", 2, Fraction(-14, 5), 3)[1], range(4))
    return mats


def test_integer_pivots_are_primitive():
    """Over Z a line is divided by its content only when it becomes a pivot:
    every pivot row is primitive when it clears its column, every combine
    leaves (a/g) r - (b/g) piv exactly, undivided, and some pivots do need
    the division, while rank and kernel basis equal the oracle's."""
    combine, eliminate, divide = linalg._combine, linalg._eliminate, linalg._divide_content
    seen = Counter()

    def checked(r, b, a, items, integral):
        assert integral
        items = list(items)
        assert math.gcd(a, *(x for _, x in items)) == 1
        g = math.gcd(a, b)
        raw = {j: (a // g) * x for j, x in r.items()}
        for j, x in items:
            raw[j] = raw.get(j, 0) - (b // g) * x
        combine(r, b, a, items, integral)
        assert r == {j: x for j, x in raw.items() if x}
        seen["combines"] += 1
        seen["content kept"] += bool(r) and math.gcd(*r.values()) > 1

    def primitive_pivots(rows, ncols, integral):
        pivots = eliminate(rows, ncols, integral)
        assert all(math.gcd(a, *row.values()) == 1 for a, row in pivots.values())
        seen["eliminations"] += 1
        return pivots

    def counted(r):
        seen["divided"] += math.gcd(*r.values()) > 1
        divide(r)
    mats = integer_mats(random.Random(31))
    assert sum(len(M) > len(M[0]) for M in mats) >= 4
    with mock.patch.object(linalg, "_combine", checked), \
            mock.patch.object(linalg, "_eliminate", primitive_pivots), \
            mock.patch.object(linalg, "_divide_content", counted):
        # rank divides nothing but its pivots
        for M in mats:
            assert rank(M) == ref_rank(M)
        assert seen["divided"] > 0
        for M in mats:
            # the integer columns the cores take: row i of M times one L_i > 0
            columns, nrows, integral = linalg._columns(M)
            assert integral and (nrows, len(columns)) == (len(M), len(M[0]))
            for i, row in enumerate(M):
                assert {j for j, x in enumerate(row) if x} == {
                    j for j, column in enumerate(columns) if i in column}
                ratios = {Fraction(columns[j][i]) / x for j, x in enumerate(row) if x}
                assert len(ratios) <= 1 and all(r > 0 for r in ratios)
            assert kernel_basis(M) == ref_kernel_basis(M)
    assert seen["combines"] > 100 and seen["content kept"] > 0
    assert seen["eliminations"] == 2 * len(mats)


def primitive_lines_eliminate(rows, ncols):
    """The integer elimination under the rule the pivot-only division
    replaced, kept as a reference: every line divided by its content on entry
    and after every combine.  Returns its pivots, as _eliminate does, and its
    number of combines."""
    def primitive(r):
        c = math.gcd(*r.values())
        return {j: x // c for j, x in r.items()}
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(primitive(r))
    pivots, combines = {}, 0
    for col in range(ncols):
        lines = buckets.pop(col, None)
        if lines is None:
            continue
        piv = min(lines, key=len)
        a = piv.pop(col)
        pivots[col] = (a, piv)
        for r in lines:
            if r is not piv:
                b = r.pop(col)
                g = math.gcd(a, b)
                out = {j: (a // g) * x for j, x in r.items()}
                for j, x in piv.items():
                    out[j] = out.get(j, 0) - (b // g) * x
                out = {j: x for j, x in out.items() if x}
                combines += 1
                if out:
                    out = primitive(out)
                    buckets.setdefault(min(out), []).append(out)
    return pivots, combines


@contextmanager
def against_primitive_lines():
    """A Counter of pivots and eliminations; each integer _eliminate is checked
    against primitive_lines_eliminate on a copy of its lines: the same number
    of combines and the same pivots, columns and rows.  Content is positive,
    so the rows agree in sign too."""
    seen = Counter()
    eliminate, combine = linalg._eliminate, linalg._combine

    def counted(r, b, a, items, integral):
        seen["combines"] += 1
        combine(r, b, a, items, integral)

    def compared(rows, ncols, integral):
        assert integral
        ref, combines = primitive_lines_eliminate([dict(r) for r in rows], ncols)
        before = seen["combines"]
        pivots = eliminate(rows, ncols, integral)
        assert seen["combines"] - before == combines
        assert pivots == ref
        seen["pivots"] += len(pivots)
        seen["eliminations"] += 1
        return pivots
    with mock.patch.object(linalg, "_combine", counted), \
            mock.patch.object(linalg, "_eliminate", compared):
        yield seen


def test_pivot_only_division_follows_the_primitive_lines_rule():
    rng = random.Random(3232)
    mats = integer_mats(rng) + [degenerate(rng, sparse_q(rng, n, m, density))
                                for n, m, density in ((14, 5, 0.4), (4, 15, 0.3), (9, 9, 0.8))]
    mats.append([[rng.choice((0, 0, 1, -2, 3, 12, -18)) for _ in range(7)] for _ in range(9)])
    with against_primitive_lines() as seen:
        for M in mats:
            rank(M)
            kernel_basis(M)
        assert seen["eliminations"] == 2 * len(mats)
        # the coset stacks as joint_kernel hands them over, both sides of the duality
        for pair, n, max_degree in (("sl", 2, 5), ("so", 3, 4), ("sl", 3, 6)):
            degrees = range(max_degree + 1)
            left, right = (joint_kernel(maps, degrees)
                           for maps in coset_maps(pair, n, Fraction(16, 7), max_degree))
            assert left == right
    assert seen["eliminations"] > 2 * len(mats) + 30
    assert seen["pivots"] > 1000


# ---------------------------------------------------------------------------
# rank over Z of a tall matrix is taken on its columns
# ---------------------------------------------------------------------------

@contextmanager
def recorded_eliminations():
    """A list that collects (lines, ncols, integral, reach) for each call to
    _eliminate, reach being one past the largest index of any line."""
    calls = []
    eliminate = linalg._eliminate

    def recording(rows, ncols, integral):
        reach = max((max(r) + 1 for r in rows if r), default=0)
        calls.append((len(rows), ncols, integral, reach))
        return eliminate(rows, ncols, integral)
    with mock.patch.object(linalg, "_eliminate", recording):
        yield calls


def test_tall_integer_matrices_are_eliminated_on_their_columns():
    rng = random.Random(16)
    ints = [[rng.choice((0, 0, 1, -2, 3, 12)) for _ in range(3)] for _ in range(7)]
    mixed = [[Fraction(x, 3) if j % 2 else x for j, x in enumerate(row)] for row in ints]
    tall = [degenerate(rng, sparse_q(rng, 9, 4, 0.5)), ints, mixed]
    tall += stacked_slices(coset_maps("sl", 2, Fraction(-14, 5), 4)[0], (3, 4))
    assert all(len(M) > len(M[0]) for M in tall)
    with recorded_eliminations() as calls:
        for M in tall:
            assert rank(M) == ref_rank(M)
    assert len(calls) == len(tall)
    for M, (lines, ncols, integral, reach) in zip(tall, calls):
        assert (lines, ncols, integral) == (len(M[0]), len(M), True)
        assert reach <= len(M)
    # wide and square matrices, and kernel bases of tall ones, keep the rows
    wide = [transpose(M) for M in tall] + [sparse_q(rng, 6, 6, 0.5), ints[:3]]
    with recorded_eliminations() as calls:
        for M in wide:
            assert rank(M) == ref_rank(M)
        for M in tall:
            assert kernel_basis(M) == ref_kernel_basis(M)
    assert len(calls) == len(wide) + len(tall)
    for M, (lines, ncols, integral, reach) in zip(wide + tall, calls):
        assert (lines, ncols, integral) == (len(M), len(M[0]), True)
        assert reach <= len(M[0])


def test_tall_ratfun_matrix_is_eliminated_on_its_rows_after_one_scan():
    rng = random.Random(7)
    M = [[rng.choice(RATFUNS) for _ in range(3)] for _ in range(7)]
    M[2][1] = T
    scans = Counter()
    ratios = linalg._ratios

    def counted(M):
        scans["_ratios"] += 1
        return ratios(M)
    with mock.patch.object(linalg, "_ratios", counted), recorded_eliminations() as calls:
        assert rank(M) == ref_rank(M)
    assert scans["_ratios"] == 1
    assert [call[:3] for call in calls] == [(7, 3, False)]


def test_tall_rank_equals_the_oracle_and_the_rank_of_the_transpose():
    rng = random.Random(1606)
    mats = [degenerate(rng, sparse_q(rng, rng.randint(4, 12), rng.randint(1, 5), density))
            for density in (0.1, 0.3, 0.6, 1.0)]
    mats += [degenerate(rng, big_q(rng, 7, 5, density)) for density in (0.4, 1.0)]
    for maps in coset_maps("sl", 2, Fraction(-14, 5), 4) + coset_maps("so", 3, Fraction(16, 7), 3):
        mats += [M for M in stacked_slices(maps, maps[0].blocks) if len(M) > len(M[0])]
    bits = [max(abs(x.numerator), x.denominator).bit_length() for M in mats for row in M
            for x in row if x]
    assert max(bits) > 64 and len(mats) >= 12
    for M in mats:
        assert len(M) > len(M[0])
        assert rank(M) == ref_rank(M) == rank(transpose(M))


def test_ragged_matrices_are_refused():
    ragged = ([[1, 0], [0, 0, 5]], [[Fraction(1), Fraction(2)], [Fraction(3)]],
              [[T, 1], [1, T, 0]], [[1], [0], [2, 3]], [[], [1]])
    for M in ragged:
        for fn in (rank, kernel_basis):
            with pytest.raises(ShapeMismatch):
                fn(M)
    with pytest.raises(ShapeMismatch):
        mat_mul([[1, 0], [0, 0, 5]], [[1], [1]])


# ---------------------------------------------------------------------------
# rank takes the eliminated indices sparsest first; kernels keep their order
# ---------------------------------------------------------------------------

def permuted(rng, M):
    """M with its rows and its columns shuffled."""
    cols = list(range(len(M[0])))
    rng.shuffle(cols)
    return [[row[j] for j in cols] for row in rng.sample(M, len(M))]


def test_rank_is_invariant_under_row_and_column_permutations():
    rng = random.Random(25)
    mats = [degenerate(rng, sparse_q(rng, n, m, density))
            for n, m, density in ((14, 5, 0.4), (20, 6, 0.2), (4, 15, 0.3), (6, 18, 0.6))]
    for n, m in ((6, 3), (3, 5), (5, 5)):
        M = [[rng.choice(RATFUNS) for _ in range(m)] for _ in range(n)]
        mats.append(M + [[T * x + y for x, y in zip(M[0], M[-1])]])  # a dependent row
    for maps in coset_maps("sl", 2, Fraction(-14, 5), 4):
        mats += stacked_slices(maps, range(5))
    shapes = Counter((len(M) > len(M[0]), is_symbolic(M)) for M in mats)
    assert shapes[True, False] >= 4 and shapes[False, False] >= 2
    assert shapes[True, True] + shapes[False, True] >= 3
    for M in mats:
        r = ref_rank(M)
        assert rank(M) == r
        for _ in range(3):
            assert rank(permuted(rng, M)) == r
        assert kernel_basis(M) == ref_kernel_basis(M)


@contextmanager
def recorded_combines():
    """A list that collects, for each call to _combine, the number of entries
    of the line it combines before and after."""
    calls = []
    combine = linalg._combine

    def recording(r, b, a, items, integral):
        before = len(r)
        combine(r, b, a, items, integral)
        calls.append((before, len(r)))
    with mock.patch.object(linalg, "_combine", recording):
        yield calls


def arrowhead(n):
    """n x n: a dense first row, and rows e_0 + (i + 1) e_i below it."""
    return [[Fraction(j + 2) for j in range(n)]] + [
        [Fraction(1) if j == 0 else Fraction(i + 1) if j == i else Fraction(0)
         for j in range(n)]
        for i in range(1, n)]


def test_sparsest_first_rank_of_an_arrowhead_grows_no_line():
    """The first column is in every row.  Eliminated first, as the natural
    order would, each row below gains the pivot row's other entry; taken
    last, rank clears the dense row's diagonal entries one at a time and no
    combine grows a line.  The kernel basis keeps the natural order."""
    for n in (5, 12, 30):
        M = arrowhead(n)
        with recorded_combines() as calls:
            assert rank(M) == ref_rank(M)
        assert len(calls) == n - 1
        assert all(after <= before for before, after in calls)
        with recorded_combines() as calls:
            assert kernel_basis(M) == ref_kernel_basis(M)
        assert any(after > before for before, after in calls)


# ---------------------------------------------------------------------------
# the slices the checks decompose
# ---------------------------------------------------------------------------

def stacked_slices(maps, degrees):
    """The stacked per-degree matrices joint_kernel takes the rank of."""
    out = []
    for d in degrees:
        M = [row for m in maps for row in m.blocks[d]]
        if M and M[0]:
            out.append(M)
    return out


def coset_maps(pair, n, k1, max_degree):
    """The screening maps of both sides of the coset duality at level k1."""
    specs = (cat.subregular_realization(pair, n, k1, "coset"),
             cat.principal_super_realization(pair, n, cat.dual_level(pair, n, k1), "coset"))
    return [[residue_map(op, range(max_degree + 1)) for op in spec.screenings]
            for spec in specs]


def gl11_compositions(max_degree):
    """(A, B) per degree, A B the composed first two resolution residues."""
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    s1 = cat.wakimoto_shifted_screening(spec, 0)
    s2 = cat.wakimoto_shifted_screening(spec, 1)
    degrees = range(max_degree + 1)
    m1 = residue_map(s1, degrees)
    m2 = residue_map(s2, [d + s1.degree_shift() for d in degrees])
    return [(m2.blocks[d + s1.degree_shift()], m1.blocks[d]) for d in degrees]


def test_coset_sl2_slices_match_oracle():
    count = 0
    for maps in coset_maps("sl", 2, Fraction(-14, 5), 4):
        for M in stacked_slices(maps, range(5)):
            assert_matches_oracle(M)
            count += 1
    assert count >= 8


def test_gl11_resolution_slices_match_oracle():
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    gm = residue_map(spec.screenings[0], range(4))
    slices = stacked_slices([gm], range(4))
    assert len(slices) == 4
    for M in slices:
        assert_matches_oracle(M)
    # the dense reference product is slow: one composition, to degree 3
    for A, B in gl11_compositions(3):
        AB = mat_mul(A, B)
        assert AB == ref_mat_mul(A, B)
        assert is_zero(AB)


def test_symbolic_sl2_slices_match_oracle():
    count = 0
    for maps in coset_maps("sl", 2, T, 3):
        for M in stacked_slices(maps, range(4)):
            assert is_symbolic(M)
            assert_matches_oracle(M)
            count += 1
    assert count >= 4


# ---------------------------------------------------------------------------
# the line cores on sparse columns, as the checks hand them over
# ---------------------------------------------------------------------------
# A residue slice is (Z, sparse columns, rows); joint_kernel hands the
# slices of its maps to column_rank as blocks of one stack, each map's rows
# scaled by its own Z; compose_check tests the product of integer columns
# for zero with product_vanishes.  Each must agree with the dense oracle, and
# the zero test with the entries product_columns builds.

def random_block(rng, kind, n, m):
    """An n x m block of int, Fraction or Q(t) entries, about a third nonzero."""
    if kind == "t":
        return [[rng.choice(RATFUNS) for _ in range(m)] for _ in range(n)]
    M = sparse_q(rng, n, m, 0.35)
    return [[Fraction(x.numerator) for x in row] for row in M] if kind == "int" else M


def maps_of(slices):
    """GradedMaps on one source whose degree-0 slices are the given ones."""
    maps = []
    for sl in slices:
        gm = GradedMap(None, None, 0)
        gm.slices[0] = sl
        maps.append(gm)
    return maps


def stacked_columns(slices, n):
    """The slices stacked into the sparse columns of one matrix, as
    joint_kernel ranks them, and its row count and ring: over Z each slice's
    integers (its rows scaled by its Z), with a Q(t) slice Fraction(v, Z)."""
    integral = all(Z is not None for Z, _, _ in slices)
    stacked, nrows = [{} for _ in range(n)], 0
    for Z, columns, m in slices:
        for line, column in zip(stacked, columns):
            line.update({nrows + i: v if integral or Z is None else Fraction(v, Z)
                         for i, v in column.items()})
        nrows += m
    return stacked, nrows, integral


def test_stacked_slices_match_the_oracle():
    rng = random.Random(2626)
    seen = Counter()
    for trial in range(60):
        kinds = [rng.choice(("int", "q", "q", "t")) for _ in range(rng.choice((1, 2, 3)))]
        n = rng.randint(1, 10)
        blocks = [random_block(rng, kind, rng.randint(0, 9), n) for kind in kinds]
        stacked = [row for M in blocks for row in M]
        if stacked:
            # a row of the first block repeated, scaled, in the last
            blocks[-1].append([3 * x for x in rng.choice(stacked)])
            stacked.append(blocks[-1][-1])
        scales = [rng.choice((1, 2, 35, 2 ** 70 + 1)) for _ in blocks]
        slices = [as_slice(M, n, k) for M, k in zip(blocks, scales)]
        if len({Z for Z, _, _ in slices}) > 1:
            seen["rows scaled apart"] += 1
        seen["tall" if len(stacked) > n else "wide"] += 1
        seen["t" if "t" in kinds else "Z"] += 1
        seen["mixed rings"] += "t" in kinds and kinds.count("t") < len(kinds)
        before = [(Z, [dict(c) for c in columns], m) for Z, columns, m in slices]
        maps = maps_of(slices)
        assert joint_kernel(maps, [0]) == [n - (ref_rank(stacked) if stacked else 0)], \
            (trial, kinds)
        assert [gm.slices[0] for gm in maps] == before  # joint_kernel leaves them as they were
        basis = linalg.column_kernel(*stacked_columns(slices, n))
        assert basis == ref_kernel_basis(stacked, n), (trial, kinds)
    assert min(seen.values()) >= 8, seen


def row_blocks(rng, columns, nrows, k):
    """The sparse columns of nrows rows cut at random rows into k blocks
    (columns, row count) over the same columns; for k > 1 one has no rows."""
    bounds = [0, *sorted(rng.randint(0, nrows) for _ in range(k - 2)), nrows]
    if k > 1:
        i = rng.randrange(len(bounds))
        bounds.insert(i, bounds[i])
    return [([{i - lo: x for i, x in c.items() if lo <= i < hi} for c in columns], hi - lo)
            for lo, hi in zip(bounds, bounds[1:])]


def test_column_rank_takes_int_fraction_and_ratfun_columns():
    """Every ring, a tall and a wide shape and one to three blocks."""
    rng = random.Random(2627)
    for trial in range(36):
        kind = ("int", "q", "t")[trial % 3]
        nrows, n = ((9, 4), (4, 9), (6, 6))[trial // 3 % 3]
        k = trial // 9 % 3 + 1
        M = random_block(rng, kind, nrows, n)
        M.append([x + y for x, y in zip(M[0], M[-1])])  # a dependent row
        columns = [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(n)]
        if kind == "int":
            columns = [{i: int(x) for i, x in c.items()} for c in columns]
        blocks = row_blocks(rng, columns, len(M), k)
        assert sum(m for _, m in blocks) == len(M) and len(blocks) == k
        assert k == 1 or any(m == 0 for _, m in blocks)
        before = [dict(c) for c in columns], [([dict(c) for c in cs], m) for cs, m in blocks]
        # int columns are worked over Z; Fraction and RatFun ones over the field
        assert linalg.column_rank(blocks, kind == "int") == ref_rank(M), (trial, kind)
        assert linalg.column_kernel(columns, len(M), kind == "int") == ref_kernel_basis(M)
        assert (columns, blocks) == before  # the cores leave their input as it was
    # the unit rows of Q^4 in two blocks, a block of no rows and a zero row
    # between them: the rank needs every offset, on the columns over Z (a
    # tall stack) and on the rows over the field
    for integral, one in ((True, 1), (False, Fraction(1))):
        none = [{}, {}, {}, {}]
        blocks = [([{0: one}, {1: one}, {}, {}], 2), (none, 0), (none, 1),
                  ([{}, {}, {0: one}, {1: one}], 2)]
        assert linalg.column_rank(blocks, integral) == 4


def test_product_columns_match_mat_mul():
    rng = random.Random(2628)
    pairs = [(sparse_q(rng, m, p, 0.4), sparse_q(rng, p, q, 0.4))
             for m, p, q in ((3, 5, 4), (7, 2, 6), (1, 9, 1), (8, 8, 8), (5, 1, 3))]
    pairs += [(A, B) for A, B in gl11_compositions(3) if A and B and B[0]]
    nonzero = 0
    for A, B in pairs:
        ZA, a_cols, m = as_slice(A, len(B))
        ZB, b_cols, _ = as_slice(B, len(B[0]))
        product = list(product_columns(a_cols, b_cols, m))
        assert len(product) == len(B[0]) and all(len(acc) == m for acc in product)
        dense = [[Fraction(acc[i], ZA * ZB) for acc in product] for i in range(m)]
        assert dense == mat_mul(A, B) == ref_mat_mul(A, B)
        nonzero += any(map(any, product))
    assert nonzero == 5
    # the chain maps of the resolution, as their slices are stored
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    s1, s2 = (cat.wakimoto_shifted_screening(spec, i) for i in range(2))
    m1 = residue_map(s1, range(4))
    m2 = residue_map(s2, [d + s1.degree_shift() for d in range(4)])
    for d in range(4):
        (Z1, B, mid), (Z2, A, rows) = m1.slices[d], m2.slices[d + s1.degree_shift()]
        product = list(product_columns(A, B, rows))
        assert not any(map(any, product))
        assert is_zero(mat_mul(m2.blocks[d + s1.degree_shift()], m1.blocks[d]))


def vanishes_by_product(a_cols, b_cols, m):
    """The zero test's oracle: every entry of A B built by product_columns."""
    return not any(map(any, product_columns(a_cols, b_cols, m)))


def integer_columns(M, ncols):
    return as_slice(M, ncols)[1]


def test_zero_test_matches_product_columns():
    # AB = 0 by construction (B's columns span part of A's kernel), AB != 0
    # (a random B, or the kernel B with one entry bumped), small and big entries
    rng = random.Random(2829)
    seen = Counter()
    for trial in range(80):
        m, n = rng.randint(1, 9), rng.randint(2, 10)
        A = (big_q(rng, m, n, 0.5, bits=40) if trial % 4 == 3 else
             degenerate(rng, sparse_q(rng, m, n, rng.choice((0.2, 0.5)))))
        kernel = ref_kernel_basis(A, n)
        if kernel and trial % 3:
            combos = [[sum((rng.randint(-4, 4) * x for x in col), Fraction(0))
                       for col in zip(*rng.sample(kernel, min(len(kernel), 2)))]
                      for _ in range(rng.randint(1, 4))]
            B = transpose(kernel + combos)
            if trial % 3 == 2:
                p, q = rng.randrange(n), rng.randrange(len(B[0]))
                B[p][q] += Fraction(1, rng.randint(1, 3))
        else:
            B = sparse_q(rng, n, rng.randint(1, 6), 0.4)
        a_cols, b_cols = integer_columns(A, n), integer_columns(B, len(B[0]))
        expected = vanishes_by_product(a_cols, b_cols, len(A))
        assert linalg.product_vanishes(a_cols, b_cols) == expected, trial
        assert expected == is_zero(ref_mat_mul(A, B)), trial
        seen[expected] += 1
    assert min(seen[True], seen[False]) >= 20, seen
    # the resolution's compositions, as compose_check takes them
    for A, B in gl11_compositions(3):
        if A and B and B[0]:
            a_cols, b_cols = integer_columns(A, len(B)), integer_columns(B, len(B[0]))
            assert linalg.product_vanishes(a_cols, b_cols) is True
            assert vanishes_by_product(a_cols, b_cols, len(A))


def tight_pair(b):
    """Columns of A = (2^b, -1)^T and B = (1): A B = (2^b, -1), whose entry 2^b
    is max|A| max_j |B_j|_1, the bound itself."""
    return [{0: 1 << b, 1: -1}], [{0: 1}]


@pytest.mark.parametrize("b", [0, 1, 7, 30, 64, 100])
def test_zero_test_at_the_bound(b):
    a_cols, b_cols = tight_pair(b)
    assert not vanishes_by_product(a_cols, b_cols, 2)
    assert linalg.product_vanishes(a_cols, b_cols) is False
    # the same product spread over two columns of B and with signs flipped
    a_cols = [{0: -(1 << b), 1: 1}, {0: 1 << b, 3: -1}]
    b_cols = [{0: 1, 1: 1}, {1: -1}]
    assert not vanishes_by_product(a_cols, b_cols, 4)
    assert linalg.product_vanishes(a_cols, b_cols) is False


def test_zero_test_negative_control(monkeypatch):
    # with k - 1 bits per row, (2^b, -1) packs to 2^b - 2^b = 0: the bound
    # 2^k > max|A| max_j |B_j|_1 is needed, and the comparison can fail
    original = linalg._kronecker
    monkeypatch.setattr(linalg, "_kronecker", lambda cols, k: original(cols, k - 1))
    for b in (1, 7, 64):
        a_cols, b_cols = tight_pair(b)
        assert not vanishes_by_product(a_cols, b_cols, 2)
        assert linalg.product_vanishes(a_cols, b_cols) is True


def test_zero_test_on_empty_columns_and_a_zero_matrix():
    pv = linalg.product_vanishes
    assert pv([], []) and pv([{}, {}], []) and pv([{0: 5}], [{}])
    assert pv([{}, {}], [{0: 3, 1: -2}, {}, {1: 7}])   # A has no nonzeros
    assert pv([{0: 2}, {}], [{1: 9}, {}])              # B reads only A's empty column
    assert not pv([{0: 2}, {}], [{}, {0: 1, 1: 9}])    # a later column is nonzero
    assert pv([{1: 3}, {1: -3}], [{0: 1, 1: 1}])       # cancelling in row 1 alone
    assert not pv([{1: 3}, {1: -3}], [{0: 1, 1: 2}])


# ---------------------------------------------------------------------------
# negative controls: the checks built on the core are not vacuous
# ---------------------------------------------------------------------------

def test_perturbed_residue_entry_changes_kernel_dims():
    maps = coset_maps("sl", 2, Fraction(-14, 5), 3)[0]
    degrees = range(4)
    dims = joint_kernel(maps, degrees)
    # a slice with both a kernel vector v and a left kernel vector u: adding
    # 1 at (i, j) with u_i != 0 and v_j != 0 raises the rank by exactly one
    for d in degrees:
        M = [row for m in maps for row in m.blocks[d]]
        if not (M and M[0]):
            continue
        right, left = kernel_basis(M), kernel_basis(transpose(M))
        if right and left:
            break
    else:
        pytest.fail("no slice with both a kernel and a cokernel")
    j = next(c for c, x in enumerate(right[0]) if x)
    i = next(r for r, x in enumerate(left[0]) if x)
    k = 0
    while i >= len(maps[k].blocks[d]):
        i -= len(maps[k].blocks[d])
        k += 1
    block = maps[k].blocks[d]
    block[i][j] += 1
    write_block(maps[k], d, block)
    bumped = joint_kernel(maps, degrees)
    assert bumped[d] == dims[d] - 1
    assert bumped[:d] + bumped[d + 1:] == dims[:d] + dims[d + 1:]


def test_perturbed_composition_is_nonzero():
    A, B = gl11_compositions(3)[-1]
    assert is_zero(mat_mul(A, B))
    # doubling B[p][q] adds B[p][q] times column p of A to column q of AB
    p, q = next((p, q) for p, row in enumerate(B) for q, x in enumerate(row)
                if x and any(r[p] for r in A))
    B[p][q] *= 2
    assert not is_zero(mat_mul(A, B))
    assert mat_mul(A, B) == ref_mat_mul(A, B)


def test_symbolic_width_bound():
    row = [T] + [Fraction(0)] * SYMBOLIC_DIM_LIMIT
    assert len(row) == 65
    with pytest.raises(ResourceBound):
        rank([row])
    with pytest.raises(ResourceBound):
        kernel_basis([row])
    # at the limit, and for wide matrices over Q, there is no bound
    assert rank([row[:SYMBOLIC_DIM_LIMIT]]) == 1
    assert rank([[Fraction(1)] + row[1:]]) == 1
