"""Acceptance suite: every criterion exact, within its stated time budget."""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_RESULTS

from wcoset import catalog as cat
from wcoset import verify as ver
from wcoset.cli import main as cli_main
from wcoset.scalars import RatFun, T


def record(num, label, ok, elapsed, budget):
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    ACCEPTANCE_RESULTS.append(
        f"{status} criterion {num:>2}: {label} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert in_budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_wakimoto_homomorphism():
    t0 = time.time()
    ok = True
    count = 0
    # affine in k2, so two symbolic-k1 runs at distinct k2 plus (t, t) are complete
    for k2 in (Fraction(1, 3), Fraction(-5, 7), T):
        rep = ver.check_homomorphism(cat.gl11_wakimoto(T, k2))
        ok = ok and rep.status == "pass" and len(rep.items) == 16
        count = len(rep.items)
    record(1, f"gl(1|1) Wakimoto homomorphism, {count} pairs symbolic",
           ok, time.time() - t0, 1)


def test_criterion_02_bosonization_maps():
    t0 = time.time()
    ok = True
    for pair in ("sl", "so"):
        rep = ver.check_homomorphism(
            cat.subregular_realization(pair, 2, Fraction(-14, 5), "bosonized"))
        ok = ok and rep.status == "pass"
        rep = ver.check_homomorphism(
            cat.principal_super_realization(pair, 2, Fraction(3), "bosonized"))
        ok = ok and rep.status == "pass"
    record(2, "FMS and boson-fermion images reproduce the pair OPEs",
           ok, time.time() - t0, 1)


def test_criterion_03_screening_resolution():
    t0 = time.time()
    rng = random.Random(303)
    ok = True
    levels = [(Fraction(7, 2), Fraction(1, 3)),
              (ver.generic_rational(rng, exclude=[Fraction(0)]),
               ver.generic_rational(rng))]
    for k1, k2 in levels:
        rep = ver.check_resolution(k1, k2, max_degree=3, terms=2)
        ok = ok and rep.status == "pass"
        ok = ok and [p.dim_right for p in rep.per_degree] == [1, 4, 12, 32]
    record(3, f"resolution at {levels[0]} and random {levels[1]}",
           ok, time.time() - t0, 30)


def test_criterion_04_rank1_ff_duality():
    t0 = time.time()
    ok = True
    for K in (Fraction(7, 2), Fraction(5, 3)):
        rep = ver.check_rank1_ff_duality(K, 6)
        ok = ok and rep.status == "pass"
        ok = ok and [p.dim_left for p in rep.per_degree] == [1, 0, 1, 1, 2, 2, 4]
    record(4, "rank-1 duality kernels [1,0,1,1,2,2,4] at K=7/2, 5/3",
           ok, time.time() - t0, 30)


def test_criterion_05_gram_duality():
    t0 = time.time()
    ok = True
    for pair in ("sl", "so"):
        for n in (2, 3):
            sub = cat.subregular_realization(pair, n, T, "coset")
            ell = cat.dual_level(pair, n, T)
            sup = cat.principal_super_realization(pair, n, ell, "coset")
            ga = [[RatFun.const(0) + x for x in row] for row in sub.system.pairing]
            gb = [[RatFun.const(0) + x for x in row] for row in sup.system.pairing]
            ok = ok and ga == gb
    record(5, "symbolic gram equality under the dual-level substitution",
           ok, time.time() - t0, 5)


def test_criterion_06_coset_kernel_duality():
    t0 = time.time()
    rng = random.Random(606)
    ok = True
    for pair, n, k1, md in (("sl", 2, Fraction(-14, 5), 4),
                            ("so", 2, Fraction(-5, 2), 3)):
        rep = ver.check_coset_duality(pair, n, k1, md)
        ok = ok and rep.status == "pass"
        k = ver.generic_rational(rng, exclude=cat.s1_levels(pair, n))
        rep = ver.check_coset_duality(pair, n, k, md, symbolic=False)
        ok = ok and rep.status == "pass"
    record(6, "coset kernel duality (sl n=2 deg<=4, so n=2 deg<=3, + random)",
           ok, time.time() - t0, 600)


def test_criterion_07_coset_currents():
    t0 = time.time()
    rng = random.Random(707)
    ok = True
    for pair in ("sl", "so"):
        for n in (2, 3):
            k = ver.generic_rational(rng, exclude=cat.s1_levels(pair, n))
            rep = ver.check_coset_currents(pair, n, k)
            ok = ok and rep.status == "pass"
    record(7, "H1, H2 annihilated by all catalog screenings (n=2,3, both pairs)",
           ok, time.time() - t0, 60)


def test_criterion_08_degeneracy_constants():
    t0 = time.time()
    ok = True
    for pair in ("sl", "so"):
        for n in (1, 2, 3):
            rep = ver.norm_degeneracy(pair, n)
            ok = ok and rep.status == "pass"
    rep = ver.norm_degeneracy("sl", 2)
    closed = [i for i in rep.items if i.id == "(H1|H1) closed form"]
    ok = ok and closed and closed[0].equal
    record(8, "norm zeros equal (x1, x2); (H1|H1) = (2/3)(k+3) - 1 for sl n=2",
           ok, time.time() - t0, 5)


def test_criterion_09_kazama_suzuki():
    t0 = time.time()
    ok = True
    for pair in ("sl", "so"):
        for n in (2, 3):
            rep = ver.check_ks(pair, n, T)
            ok = ok and rep.status == "pass"
    record(9, "Kazama-Suzuki regularity and gram normalizations, symbolic",
           ok, time.time() - t0, 60)


def test_criterion_10_conformal_dimensions():
    t0 = time.time()
    rep = ver.check_delta(ver.delta_samples(random.Random(1010), 5))
    record(10, "engine L0 matches the dimension formula on 5 random weights",
           rep.status == "pass", time.time() - t0, 10)


def test_criterion_11_counting_consistency():
    t0 = time.time()
    rep = ver.check_counting(max_degree=8)
    record(11, f"two counting paths agree to degree 8 on {len(rep.items)} systems",
           rep.status == "pass", time.time() - t0, 60)


def test_criterion_12_negative_controls():
    t0 = time.time()
    ok = True
    for name in ver.NEGATIVE_CONTROLS:
        code = cli_main(["verify", "--control", name, "--out", "/dev/null"])
        ok = ok and code == 1
    record(12, "perturbed controls fail their suites with exit code 1",
           ok, time.time() - t0, 30)
