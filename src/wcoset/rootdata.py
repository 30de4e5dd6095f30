"""Hardcoded root-system data for the two algebra pairs.

Pair "sl" is (sl_{n+1}, sl(1|n+1)) with lacity 1 and dual Coxeter numbers
(n+1, n); pair "so" is (so_{2n+1}, osp(2|2n)) with lacity 2 and (2n-1, n).
Bilinear forms follow the trace normalizations: tr for sl_{n+1}, tr/2 for
so_{2n+1} (long roots squared 2, the short root squared 1), and -str for the
superalgebras (the 0th root isotropic).  Only this bilinear data enters the
free-field engine; no matrix realizations are kept.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

SL, SO = "sl", "so"
PAIRS = (SL, SO)


def check_pair(pair: str) -> str:
    if pair not in PAIRS:
        raise InputError(f"unknown pair {pair!r}, expected 'sl' or 'so'")
    return pair


def check_rank(pair: str, n: int, least: int = 1) -> None:
    check_pair(pair)
    if n < least:
        raise InputError(f"rank n must be >= {least}")


def lacity(pair: str) -> int:
    return 1 if check_pair(pair) == SL else 2


def h1(pair: str, n: int) -> int:
    return n + 1 if check_pair(pair) == SL else 2 * n - 1


def h2(pair: str, n: int) -> int:
    check_pair(pair)
    return n


def g1_gram(pair: str, n: int):
    """(alpha_i|alpha_j), i,j = 1..n, for sl_{n+1} or so_{2n+1}."""
    check_rank(pair, n)
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = Fraction(2)
        if i + 1 < n:
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
    if pair == SO:
        G[n - 1][n - 1] = Fraction(1)
        # (alpha_{n-1}|alpha_n) stays -1 for the short last root
    return G


def g2_gram(pair: str, n: int):
    """(alpha_i|alpha_j), i,j = 0..n, for sl(1|n+1) or osp(2|2n)."""
    check_rank(pair, n)
    m = n + 1
    G = [[Fraction(0)] * m for _ in range(m)]
    if pair == SL:
        G[0][0] = Fraction(0)
        G[0][1] = G[1][0] = Fraction(-1)
        for i in range(1, m):
            G[i][i] = Fraction(2)
            if i + 1 < m:
                G[i][i + 1] = G[i + 1][i] = Fraction(-1)
        return G
    # osp(2|2n): alpha_0 isotropic, alpha_1..alpha_{n-1} squared 1, alpha_n squared 2
    if n == 1:
        G[0][1] = G[1][0] = Fraction(-1)
        G[1][1] = Fraction(2)
        return G
    G[0][1] = G[1][0] = Fraction(-1, 2)
    for i in range(1, n):
        G[i][i] = Fraction(1)
        if i + 1 < n:
            G[i][i + 1] = G[i + 1][i] = Fraction(-1, 2)
    G[n - 1][n] = G[n][n - 1] = Fraction(-1)
    G[n][n] = Fraction(2)
    return G


def omega1_coeffs(pair: str, n: int):
    """First fundamental coweight over alpha_1..alpha_n."""
    if check_pair(pair) == SL:
        return [Fraction(n - i + 1, n + 1) for i in range(1, n + 1)]
    return [Fraction(1)] * n


def omega0_coeffs(pair: str, n: int):
    """Zeroth fundamental coweight over alpha_0..alpha_n (both cases negative)."""
    if check_pair(pair) == SL:
        return [Fraction(-(n - i + 1), n) for i in range(0, n + 1)]
    return [Fraction(-2)] * n + [Fraction(-1)]


def htilde2_g1_coeffs(pair: str, n: int):
    """J^{h~2} on the subregular side as coefficients over alpha_1..alpha_n."""
    check_rank(pair, n, 2)
    out = [Fraction(0)] * n
    out[0] = Fraction(1, 2)
    out[1] = Fraction(1)
    return out


def htilde2_g2_coeffs(pair: str, n: int):
    """J^{h~2} on the principal super side over alpha_0..alpha_n.

    The alpha_0 coefficient is -(1+delta) with delta the osp(2|4) special
    case; the value is forced by (h~2|h1) = 0 and gets a dedicated
    orthogonality test since the delta-term is easy to mis-transcribe.
    """
    check_rank(pair, n, 2)
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(-2) if (pair == SO and n == 2) else Fraction(-1)
    out[2] = Fraction(1)
    return out


def pairing(G, a, b):
    """Bilinear form of two coefficient vectors over the root basis."""
    acc = Fraction(0)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            acc += x * y * G[i][j]
    return acc
