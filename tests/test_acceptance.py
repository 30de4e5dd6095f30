"""Acceptance suite: every criterion exact, within its stated time budget.

Criteria 1-4 and 6-11 run their rows of `verify.battery` at the defaults of
`wcoset verify`, so they check what the command checks; criteria 3 and 6 run
a random level at the degree of their fixed level.  Criteria 5 and 12 stand
on their own.
"""

import random
import time

from conftest import ACCEPTANCE_RESULTS

from wcoset import catalog as cat
from wcoset import cli
from wcoset import verify as ver
from wcoset.scalars import RatFun, T

# the criteria below that run battery rows; None marks the rows of the one
# test outside the numbered criteria
RUN_BY_TESTS = {None, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}


def record(num, label, ok, elapsed, budget):
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    ACCEPTANCE_RESULTS.append(
        f"{status} criterion {num:>2}: {label} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert in_budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def rows(criterion):
    """(label, suite, args) of the battery rows `criterion` runs, drawn as
    `wcoset verify` draws them with its default seed and cap."""
    rng = random.Random(cli.DEFAULTS["seed"])
    found = [row[1:] for row in ver.battery(rng, cli.DEFAULTS["cap"])
             if row[0] == criterion]
    assert found, f"no battery row for criterion {criterion}"
    return found


def at_top_degree(found, pos, group):
    """The rows with the degree args[pos] raised to the highest one a row of
    the same group asks for, and those degrees by group."""
    top = {}
    for _, _, args in found:
        top[group(args)] = max(top.get(group(args), 0), args[pos])
    return ([(label, suite, args[:pos] + (top[group(args)],) + args[pos + 1:])
             for label, suite, args in found], top)


def run(found):
    return [suite(*args) for _, suite, args in found]


def test_criterion_01_wakimoto_homomorphism():
    t0 = time.time()
    # affine in k2, so two symbolic-k1 runs at distinct k2 plus (t, t) are complete
    reps = run(rows(1))
    ok = all(rep.status == "pass" and len(rep.items) == 16 for rep in reps)
    record(1, f"gl(1|1) Wakimoto homomorphism, {len(reps[-1].items)} pairs symbolic",
           ok, time.time() - t0, 1)


def test_criterion_02_bosonization_maps():
    t0 = time.time()
    ok = all(rep.status == "pass" for rep in run(rows(2)))
    record(2, "FMS and boson-fermion images reproduce the pair OPEs",
           ok, time.time() - t0, 1)


def test_criterion_03_screening_resolution():
    t0 = time.time()
    # the random level runs at the fixed level's degree
    found, top = at_top_degree(rows(3), 2, lambda args: ())
    degree = top[()]
    ok = True
    for rep in run(found):
        ok = ok and rep.status == "pass"
        ok = ok and [p.dim_right for p in rep.per_degree] == [1, 4, 12, 32][:degree + 1]
    record(3, f"{' and '.join(label for label, _, _ in found)} to degree {degree}",
           ok, time.time() - t0, 30)


def test_criterion_04_rank1_ff_duality():
    t0 = time.time()
    found = rows(4)
    ok = True
    for rep in run(found):
        ok = ok and rep.status == "pass"
        ok = ok and [p.dim_left for p in rep.per_degree] == [1, 0, 1, 1, 2, 2, 4]
    levels = ", ".join(str(args[0]) for _, _, args in found)
    record(4, f"rank-1 duality kernels [1,0,1,1,2,2,4] at K={levels}",
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
    # each random level runs at the degree of the fixed level of its (pair, n)
    found, top = at_top_degree(rows(6), 3, lambda args: args[:2])
    ok = all(rep.status == "pass" for rep in run(found))
    degrees = ", ".join(f"{pair} n={n} deg<={d}" for (pair, n), d in top.items())
    record(6, f"coset kernel duality ({degrees}, + random)",
           ok, time.time() - t0, 600)


def test_criterion_07_coset_currents():
    t0 = time.time()
    ok = all(rep.status == "pass" for rep in run(rows(7)))
    record(7, "H1, H2 annihilated by all catalog screenings (n=2,3, both pairs)",
           ok, time.time() - t0, 60)


def test_criterion_08_degeneracy_constants():
    t0 = time.time()
    reps = run(rows(8))
    ok = all(rep.status == "pass" for rep in reps)
    ok = ok and any(i.id == "(H1|H1) closed form" and i.equal
                    for rep in reps for i in rep.items)
    record(8, "norm zeros equal (x1, x2); (H1|H1) = (2/3)(k+3) - 1 for sl n=2",
           ok, time.time() - t0, 5)


def test_criterion_09_kazama_suzuki():
    t0 = time.time()
    ok = all(rep.status == "pass" for rep in run(rows(9)))
    record(9, "Kazama-Suzuki regularity and gram normalizations, symbolic",
           ok, time.time() - t0, 60)


def test_criterion_10_conformal_dimensions():
    t0 = time.time()
    [(_, suite, (samples,))] = rows(10)
    rep = suite(samples)
    record(10, f"engine L0 matches the dimension formula on {len(samples)} random weights",
           rep.status == "pass", time.time() - t0, 10)


def test_criterion_11_counting_consistency():
    t0 = time.time()
    [(_, suite, args)] = rows(11)
    rep = suite(*args)
    record(11, f"two counting paths agree to degree {args[0]} on {len(rep.items)} systems",
           rep.status == "pass", time.time() - t0, 60)


def test_criterion_12_negative_controls():
    t0 = time.time()
    ok = True
    for name in ver.NEGATIVE_CONTROLS:
        code = cli.main(["verify", "--control", name, "--out", "/dev/null"])
        ok = ok and code == 1
    record(12, "perturbed controls fail their suites with exit code 1",
           ok, time.time() - t0, 30)


def test_battery_rows_outside_the_criteria():
    """Covariance and the sl2 Wakimoto homomorphisms: no numbered criterion runs them."""
    found = rows(None)
    failed = [label for (label, _, _), rep in zip(found, run(found))
              if rep.status != "pass"]
    assert not failed


def test_every_battery_row_is_run_by_one_test():
    rng = random.Random(cli.DEFAULTS["seed"])
    assert {row[0] for row in ver.battery(rng, cli.DEFAULTS["cap"])} == RUN_BY_TESTS
