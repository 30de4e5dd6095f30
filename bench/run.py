"""wcoset benchmark: time from a command to an exact certificate.

Usage, from the root of a checkout:

    python3 bench/run.py --workload resolution --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process

With --trace 0 the run times passes of the workload untraced and prints the
end-to-end metrics.  With --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics of the traced ones.  Every pass is checked
exactly (see workloads.py).  Times are in nominal seconds (see speed.py), with
raw wall times printed beside them.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The run imports wcoset from src/ of the checkout, works in a fresh directory
under .bench_work/ (so no stray wcoset.cfg is read), unsets WCOSET_CONFIG,
and starts no threads; its only child processes are the set-up probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 15
RUN_SECONDS = 20

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# layer metric -> unit; see README.md for what each should move and where
PER_LAYER = [
    ("fock.enumerate_basis.s", "s"), ("fock.enumerate_basis.calls", "count"),
    ("fock.enumerate_basis.states", "count"),
    ("fields.mode_apply.s", "s"), ("fields.mode_apply.calls", "count"),
    ("fields.ope_singular.s", "s"), ("fields.ope_singular.calls", "count"),
    ("fields.current_gram.s", "s"), ("fields.current_gram.calls", "count"),
    ("catalog.build.s", "s"), ("catalog.build.calls", "count"),
    ("screening.residue_map.self_s", "s"), ("screening.residue_map.calls", "count"),
    ("screening.residue_map.cells", "count"), ("screening.residue_map.nnz", "count"),
    ("screening.residue_map.density", "ratio"),
    ("screening.compose_check.self_s", "s"), ("screening.compose_check.calls", "count"),
    ("screening.joint_kernel.self_s", "s"), ("screening.joint_kernel.calls", "count"),
    ("linalg.mat_mul.s", "s"), ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.dense_ops", "count"), ("linalg.mat_mul.nnz_a", "count"),
    ("linalg.rank.q.s", "s"), ("linalg.rank.q.calls", "count"),
    ("linalg.rank.q.cells", "count"), ("linalg.rank.q.nnz", "count"),
    ("linalg.rank.q.max_in_bits", "bits"),
    ("linalg.rank.sym.s", "s"), ("linalg.rank.sym.calls", "count"),
    ("linalg.rank.sym.cells", "count"), ("linalg.rank.sym.nnz", "count"),
    ("linalg.kernel_basis.s", "s"), ("linalg.kernel_basis.calls", "count"),
    ("verify.self_s", "s"),
    ("report.emit_report.s", "s"), ("report.emit_report.bytes", "count"),
    ("trace_overhead_frac", "ratio"),
]


def layer_metrics(totals: dict, scale: float) -> dict:
    """The PER_LAYER values of one traced pass, from tracer.summarize;
    seconds are multiplied by `scale`, the pass's nominal over raw time."""
    out = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "density":
            rm = totals.get(layer, {})
            out[name] = rm["nnz"] / rm["cells"] if rm.get("cells") else 0.0
        elif layer:
            out[name] = totals.get(layer, {}).get(field, 0) * (scale if unit == "s" else 1)
    return out


def environment(inputs: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit(), "inputs": workloads.describe(inputs)}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(workload: str, seed: int, workdir: Path, expect: dict) -> list:
    """Fresh interpreters that import wcoset and make the inputs: their wall
    times, raw and in nominal seconds (speed sampled before and after each)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        samples = [speed.sample() for _ in range(5)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=60)
        raw.append(time.perf_counter() - t0)
        samples += [speed.sample() for _ in range(5)]
        nominal.append(speed.nominal(raw[-1], samples))
        if proc.returncode != 0 or json.loads(proc.stdout) != expect:
            raise RuntimeError(f"set-up probe disagrees with this run: "
                               f"{proc.stdout.strip()} {proc.stderr.strip()}")
    return raw, nominal


def timed_pass(checks, tr=None):
    """One pass over the checks; returns (Speedometer, results, layer totals)."""
    gc.collect()
    if tr is None:
        with speed.Speedometer() as sm:
            results = workloads.run_checks(checks)
        return sm, results, None
    with tr.installed(tracer.wcoset_plan(), tracer.wcoset_sites()):
        with speed.Speedometer() as sm:
            results = workloads.run_checks(checks)
    return sm, results, tracer.summarize(tr.spans)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Passes until `seconds` have gone by; returns (metrics, attempted, failed)."""
    inputs = workloads.sample_inputs(workload, seed)
    shown = workloads.describe(inputs)
    setup_raw, setup = setup_times(workload, seed, workdir, shown)
    checks = workloads.build_checks(workload, inputs, workdir)
    # the battery compares report bytes between passes, so it needs two;
    # a traced run needs an untraced and a traced pass
    min_passes = 2 if workload == "battery" or trace else 1
    plain, traced, layers, results = [], [], [], []
    t_start = time.perf_counter()
    while (len(plain) + len(traced) < min_passes
           or time.perf_counter() - t_start < seconds):
        if trace and len(traced) < len(plain):
            sm, res, totals = timed_pass(checks, tracer.Tracer())
            traced.append(sm)
            layers.append(layer_metrics(totals, sm.seconds / sm.elapsed))
        else:
            sm, res, _ = timed_pass(checks)
            plain.append(sm)
        results += res
    failures = [(name, problems) for name, problems in results if problems]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = statistics.median(sm.seconds for sm in plain)

    print(f"workload {workload}  seed {seed}  " + json.dumps(shown))
    print(f"  wall_s       {wall:.4f} s  (median of {len(plain)} untraced passes, "
          f"nominal: {', '.join(f'{sm.seconds:.3f}' for sm in plain)}; "
          f"raw: {', '.join(f'{sm.elapsed:.3f}' for sm in plain)})")
    print(f"  setup_s      {statistics.median(setup):.4f} s  (median of {len(setup)} "
          f"probes; raw median {statistics.median(setup_raw):.4f} s)")
    print(f"  peak_rss_mb  {rss:.1f} MiB")
    print(f"  failed_frac  {len(failures) / len(results):.4g}  "
          f"({len(failures)} of {len(results)} checks failed)")
    for name, problems in failures:
        for problem in problems:
            print(f"  FAIL {name}: {problem}")
    if trace:
        # counts repeat exactly from pass to pass; keep them whole numbers
        metrics = {name: (statistics.median_low if unit in ("count", "bits")
                          else statistics.median)(m[name] for m in layers)
                   for name, unit in PER_LAYER if name != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = (
            statistics.median(sm.seconds for sm in traced) / wall - 1)
        print(f"  per layer, median of {len(traced)} traced passes:")
        for name, unit in PER_LAYER:
            print(f"    {name:<34} {metrics[name]:.6g} {unit}")
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": rss}
    print("env " + json.dumps(environment(inputs), sort_keys=True))
    return metrics, len(results), len(failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "wcoset" / "__init__.py").is_file():
        print(f"error: no wcoset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        if args.workload == "all":
            ap.error("--setup-probe needs one workload")
        import wcoset  # noqa: F401  (the import is part of the set-up measured)
        print(json.dumps(workloads.describe(
            workloads.sample_inputs(args.workload, args.seed))))
        return 0

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ.pop("WCOSET_CONFIG", None)
    os.chdir(workdir)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, n, n_failed = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), workdir)
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            attempted += n
            failed += n_failed
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
