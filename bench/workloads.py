"""The benchmark's four workloads: seeded inputs, the program calls, and the
exact gate each pass must clear.

A workload is a list of checks.  Each check calls wcoset once and compares
what it returns with a value the benchmark fixes itself; a wrong verdict, a
wrong dimension list, an exception or a nonzero exit fails the check.  Levels
are drawn from the seed and are never resampled after a failure: a level that
fails is reported by name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Generic kernel dimensions per degree, independent of the level.
GL11_PBW_DIMS = [1, 4, 12, 32]       # resolution, degrees 0..3
SL2_COSET_DIMS = [1, 0, 1, 2, 4, 6]  # coset sl n=2, degrees 0..5

# `wcoset duality` and `wcoset resolution` run with the CLI's default cap.
CAP = 20000
WORKLOADS = ("resolution", "duality", "symbolic", "battery")
# The duality pass sums over two levels, since the cost of exact rank
# depends on the level.
DUALITY_LEVELS = 2


@dataclass
class Check:
    """One call into wcoset and its expected outcome.

    `run()` returns a list of problems; an empty list is a pass.
    """
    name: str
    run: Callable[[], list]


def sample_level(rng: random.Random, signed: bool = True) -> Fraction:
    """A generic level of fixed height: p/7 with 14 < p < 21, of random sign.

    Admissible levels of the ranks run here have denominators dividing 2, 3,
    4, 5 or 6, so these levels are generic; the fixed height keeps the cost of
    exact arithmetic alike across seeds.
    """
    sign = rng.choice((-1, 1)) if signed else 1
    return Fraction(sign * rng.randint(15, 20), 7)


def coset_level(rng: random.Random, pairs) -> Fraction:
    """A k1 for the coset pairs, outside the catalog's excluded sets S1, S2.

    Positive: a negative k1 near -h1 makes K1 = k1 + h1 small and puts the
    dual level K2 = 1/(r K1) on a small denominator, away from generic.
    """
    from wcoset import catalog as cat
    while True:
        k1 = sample_level(rng, signed=False)
        for pair, n in pairs:
            lv = cat.LevelData.from_k1(pair, n, k1)
            sets = lv.excluded_sets()
            if k1 in sets["S1"] or lv.k2 in sets["S2"]:
                break
        else:
            return k1


def sample_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs, a function of the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "resolution":
        return {"k1": sample_level(rng), "k2": sample_level(rng)}
    if workload == "duality":
        return {"k1": [coset_level(rng, [("sl", 2), ("so", 3)])
                       for _ in range(DUALITY_LEVELS)]}
    if workload == "symbolic":
        return {"k1": coset_level(rng, [("sl", 2), ("so", 2)])}
    if workload == "battery":
        return {"seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def describe(value):
    """Inputs as JSON-ready strings and lists, for printing and comparing."""
    if isinstance(value, dict):
        return {k: describe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _failed_items(rep) -> list:
    return [f"{i.id}: expected {i.expected}, computed {i.computed}"
            for i in rep.items if not i.equal]


def resolution_gate(rep, expected_dims) -> list:
    """Kernel dims equal the PBW character; every composition vanishes."""
    problems = _failed_items(rep)
    dims = [p.dim_right for p in rep.per_degree]
    if dims != expected_dims:
        problems.append(f"kernel dims {dims} != {expected_dims}")
    compositions = [i for i in rep.items if i.id.startswith("S.S=0")]
    if len(compositions) != rep.inputs["terms"]:
        problems.append(f"{len(compositions)} composition checks, "
                        f"expected {rep.inputs['terms']}")
    if rep.status != "pass":
        problems.append(f"report status {rep.status}")
    return problems


def duality_gate(rep, expected_dims=None) -> list:
    """Left and right kernel dims agree, and match `expected_dims` if given."""
    problems = _failed_items(rep)
    left = [p.dim_left for p in rep.per_degree]
    right = [p.dim_right for p in rep.per_degree]
    if left != right:
        problems.append(f"kernel dims left {left} != right {right}")
    if expected_dims is not None and left != expected_dims:
        problems.append(f"kernel dims {left} != {expected_dims}")
    if rep.status != "pass":
        problems.append(f"report status {rep.status}")
    return problems


def symbolic_gate(rep) -> list:
    """The kernel dims over Q(t) agree between the two sides."""
    problems = duality_gate(rep)
    if not any(i.id == "symbolic kernel dims agree" for i in rep.items):
        problems.append("no symbolic kernel comparison in the report")
    return problems


def battery_gate(code: int, data: bytes, first: bytes | None) -> list:
    """Exit 0, report status pass, and bytes equal to the first pass's."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    status = json.loads(data).get("status")
    if status != "pass":
        problems.append(f"report status {status}")
    if first is not None and data != first:
        problems.append("report bytes differ from the first pass with this seed")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def resolution_checks(inputs, expected_dims=GL11_PBW_DIMS) -> list:
    """`wcoset resolution --terms 1`: S[1].S[0] = 0 through degree 4, and the
    kernel of S[0] through degree 3 against the PBW character."""
    from wcoset import verify as ver
    k1, k2 = inputs["k1"], inputs["k2"]

    def run():
        rep = ver.check_resolution(k1, k2, max_degree=len(expected_dims) - 1,
                                   terms=1, cap=CAP)
        return resolution_gate(rep, expected_dims)
    return [Check(f"resolution k1={k1} k2={k2}", run)]


def duality_checks(inputs, sl2_dims=SL2_COSET_DIMS) -> list:
    """`wcoset duality` for sl n=2 to degree 5 and so n=3 to degree 4, per level."""
    from wcoset import verify as ver

    def check(pair, n, k1, max_degree, expected):
        def run():
            rep = ver.check_coset_duality(pair, n, k1, max_degree, CAP)
            return duality_gate(rep, expected)
        return Check(f"duality {pair} n={n} k1={k1} max_degree={max_degree}", run)
    checks = []
    for k1 in inputs["k1"]:
        checks.append(check("sl", 2, k1, len(sl2_dims) - 1, sl2_dims))
        checks.append(check("so", 3, k1, 4, None))
    return checks


def symbolic_checks(inputs) -> list:
    """`wcoset duality --max-degree 3 --symbolic-kernels 3` for sl and so n=2:
    kernel dims over Q(t) and at k1 through degree 3."""
    from wcoset import verify as ver
    k1 = inputs["k1"]

    def check(pair):
        def run():
            rep = ver.check_coset_duality(pair, 2, k1, 3, CAP, symbolic_kernels=3)
            return symbolic_gate(rep)
        return Check(f"symbolic {pair} n=2 k1={k1}", run)
    return [check("sl"), check("so")]


def battery_checks(inputs, workdir: Path) -> list:
    """`wcoset verify --seed S` through cli.main, report written to a file."""
    from wcoset import cli
    seed = inputs["seed"]
    out = workdir / "verify-report.json"
    first = None

    def run():
        nonlocal first
        out.unlink(missing_ok=True)
        code = cli.main(["verify", "--seed", str(seed), "--out", str(out)])
        data = out.read_bytes()
        problems = battery_gate(code, data, first)
        if first is None:
            first = data
        return problems
    return [Check(f"verify --seed {seed}", run)]


def build_checks(workload: str, inputs: dict, workdir: Path) -> list:
    if workload == "resolution":
        return resolution_checks(inputs)
    if workload == "duality":
        return duality_checks(inputs)
    if workload == "symbolic":
        return symbolic_checks(inputs)
    if workload == "battery":
        return battery_checks(inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_checks(checks) -> list:
    """Run every check once; returns (name, problems) per check.

    An exception inside wcoset is a failed check, named with its message,
    so one bad level does not hide the others.
    """
    results = []
    for check in checks:
        try:
            problems = check.run()
        except Exception as e:  # noqa: BLE001 - any program error fails the check
            problems = [f"{type(e).__name__}: {e}"]
        results.append((check.name, problems))
    return results
