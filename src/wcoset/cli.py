"""Command-line surface.

Verbs: verify, kernel, duality, gram, ks-check, resolution, norm, delta,
catalog.  Levels are exact rationals "p/q".  A plain "key = value" config
file (./wcoset.cfg if there is one, or the file the WCOSET_CONFIG environment
variable must name) may pin max-degree, seed, cap and the output directory.
A verb has a flag only for the keys it reads, and the flag wins over the
config; CSV is offered only by the verbs whose reports have per-degree rows
(kernel, duality, resolution).

Exit codes: 0 all checks pass; 1 a verification failed (the report is still
written); 2 invalid input (excluded level, parse error, an integer out of
range, a report path that cannot be written); 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog as cat
from . import verify as ver
from .errors import InputError, ResourceBound
from .linalg import SYMBOLIC_DIM_LIMIT
from .rootdata import PAIRS
from .report import emit_report
from .scalars import T, parse_rat
# no longer called here; bench/test_bench.py checks that its tracer patches
# these import sites
from .screening import joint_kernel, residue_map  # noqa: F401

DEFAULTS = {"max-degree": 4, "seed": 20200713, "cap": 20000, "out-dir": "."}


def _integer(low=None):
    """An argparse type: an integer, refused below `low` if one is given."""
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


# the integer config keys; the flags of the same names share the bounds
_INTEGER_KEYS = {"max-degree": _integer(0), "seed": _integer(), "cap": _integer(1)}


def load_config() -> dict:
    cfg = dict(DEFAULTS)
    path = Path(os.environ.get("WCOSET_CONFIG", "wcoset.cfg"))
    if "WCOSET_CONFIG" in os.environ and not path.is_file():
        raise InputError(f"config file {str(path)!r} named by WCOSET_CONFIG is not a file")
    if path.is_file():
        for line in path.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"bad config line {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in cfg:
                raise InputError(f"unknown config key {key!r}")
            if key != "out-dir":
                try:
                    value = _INTEGER_KEYS[key](value)
                except argparse.ArgumentTypeError as e:
                    raise InputError(f"config {key}: {e}") from None
            cfg[key] = value
    return cfg


def _level(s: str) -> Fraction:
    try:
        return parse_rat(s)
    except (ValueError, ZeroDivisionError, InputError) as e:
        raise argparse.ArgumentTypeError(f"cannot parse level {s!r}: {e}") from e


_LEVEL_FLAGS = ("--k1", "--k2")


def _normalize_argv(argv):
    """Join level flags with their (possibly negative rational) values."""
    out, i = [], 0
    while i < len(argv):
        joined = argv[i] in _LEVEL_FLAGS and i + 1 < len(argv)
        out.append(f"{argv[i]}={argv[i + 1]}" if joined else argv[i])
        i += 2 if joined else 1
    return out


def guard_level(pair: str, n: int, k1: Fraction) -> None:
    """Warn on an admissible k1; excluded levels are refused by the duality check."""
    if cat.is_admissible_k1(pair, n, k1):
        print(f"warning: k1 = {k1} is an admissible level; kernel dimensions "
              "may jump relative to generic levels", file=sys.stderr)


def _write(report, args, cfg, command: str) -> int:
    data = emit_report(report, args.format, command)
    if args.out:
        out = Path(args.out)
        if not out.is_absolute():
            out = Path(cfg["out-dir"]) / out
        try:
            out.write_bytes(data)
        except OSError as e:
            raise InputError(f"cannot write report {out}: {e.strerror or e}") from None
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0 if report.status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wcoset",
                                 description="exact screening-kernel workbench")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, summary, *keys, csv=False):
        """A verb with --out, --format (csv only where reports have per-degree
        rows) and one flag per config key in `keys`, left None for `main`."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--format", default="json",
                       choices=["json", "csv", "text"] if csv else ["json", "text"])
        for key in keys:
            p.add_argument(f"--{key}", type=_INTEGER_KEYS[key], default=None)
        return p

    p = verb("verify", "run the full verification battery", "seed", "cap")
    p.add_argument("--control", default=None, choices=ver.NEGATIVE_CONTROLS,
                   help="run one perturbed negative control instead")

    p = verb("kernel", "joint kernel dims of a catalog system", "max-degree", "cap",
             csv=True)
    p.add_argument("--key", required=True)
    p.add_argument("--k1", type=_level, default=None)
    p.add_argument("--k2", type=_level, default=None)

    p = verb("duality", "coset kernel duality between the pair",
             "max-degree", "cap", "seed", csv=True)
    p.add_argument("--pair", required=True, choices=PAIRS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=_level, required=True)
    p.add_argument("--random-levels", type=_integer(0), default=0,
                   help="additional seeded generic levels to test")
    p.add_argument("--symbolic-kernels", type=_integer(0), default=0, metavar="D",
                   help="also certify kernel dims over the function field "
                        f"through degree D (slices capped at {SYMBOLIC_DIM_LIMIT} columns)")

    p = verb("gram", "coset gram matrices, symbolic or specialized")
    p.add_argument("--pair", required=True, choices=PAIRS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=_level, default=T, help="default: the formal level t")

    p = verb("ks-check", "Kazama-Suzuki field checks")
    p.add_argument("--pair", required=True, choices=PAIRS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k2", type=_level, default=T, help="default: the formal level t")
    p.add_argument("--perturb", default=None, choices=["drop-psi"])

    p = verb("resolution", "two-sided resolution checks", "max-degree", "cap", csv=True)
    p.add_argument("--k1", type=_level, required=True)
    p.add_argument("--k2", type=_level, required=True)
    p.add_argument("--terms", type=_integer(0), default=2)

    p = verb("norm", "coset current norm degeneracy levels")
    p.add_argument("--pair", required=True, choices=PAIRS)
    p.add_argument("--n", type=int, required=True)

    p = verb("delta", "conformal dimension checks on random weights", "seed")
    p.add_argument("--samples", type=_integer(1), default=5)

    verb("catalog", "list catalog keys")
    return ap


def cmd_verify(args, cfg) -> int:
    if args.control:
        rep = ver.run_negative_control(args.control)
        return _write(rep, args, cfg, f"verify:{args.control}")
    battery = ver.full_battery(random.Random(args.seed), cap=args.cap)
    return _write(battery, args, cfg, "verify")


def cmd_kernel(args, cfg) -> int:
    spec = cat.get_realization(args.key, args.k1, args.k2)
    if not spec.screenings:
        raise InputError(f"{args.key} has no screenings")
    dims = ver._screening_kernel(spec.screenings, range(args.max_degree + 1), args.cap)
    # the levels the system was built at: a dual level filled in, gl(1|1)'s default k2
    if spec.level is not None:
        k1, k2 = spec.level.k1, spec.level.k2
    else:
        k1 = args.k1
        k2 = cat.GL11_K2 if args.key == "wakimoto-gl11" and args.k2 is None else args.k2
    rep = ver.Report("kernel", {"key": args.key,
                                "k1": str(k1) if k1 is not None else "",
                                "k2": str(k2) if k2 is not None else "",
                                "max_degree": args.max_degree})
    for d, dim in enumerate(dims):
        rep.per_degree.append(ver.PerDegree(d, dim))
    return _write(rep, args, cfg, "kernel")


def cmd_duality(args, cfg) -> int:
    md, cap = args.max_degree, args.cap
    guard_level(args.pair, args.n, args.k1)
    rep = ver.check_coset_duality(args.pair, args.n, args.k1, md, cap,
                                  symbolic_kernels=args.symbolic_kernels)
    if args.random_levels:
        rng = random.Random(args.seed)
        exclude = cat.s1_levels(args.pair, args.n)
        for _ in range(args.random_levels):
            k = ver.generic_rational(rng, exclude)
            extra = ver.check_coset_duality(args.pair, args.n, k, md, cap,
                                            symbolic=False)
            rep.add_check(f"duality at random k1={k}", extra.status == "pass")
    return _write(rep, args, cfg, "duality")


def cmd_gram(args, cfg) -> int:
    rep = ver.Report("gram", {"pair": args.pair, "n": args.n, "k1": str(args.k1)})
    lv = cat.LevelData.from_k1(args.pair, args.n, args.k1)
    ga, gb = ([[str(x) for x in row] for row in cat.form_system(fam, "coset", lv).pairing]
              for fam in ("subregular", "super"))
    rep.add("gram(alpha~) = gram(beta~)", ga, gb)
    return _write(rep, args, cfg, "gram")


def cmd_ks(args, cfg) -> int:
    rep = ver.check_ks(args.pair, args.n, args.k2, perturb=args.perturb)
    return _write(rep, args, cfg, "ks-check")


def cmd_resolution(args, cfg) -> int:
    rep = ver.check_resolution(args.k1, args.k2, args.max_degree, args.terms, args.cap)
    return _write(rep, args, cfg, "resolution")


def cmd_norm(args, cfg) -> int:
    rep = ver.norm_degeneracy(args.pair, args.n)
    return _write(rep, args, cfg, "norm")


def cmd_delta(args, cfg) -> int:
    rep = ver.check_delta(ver.delta_samples(random.Random(args.seed), args.samples))
    return _write(rep, args, cfg, "delta")


def cmd_catalog(args, cfg) -> int:
    rep = ver.Report("catalog", {})
    for key in cat.catalog_keys():
        rep.add_check(key, True, expected="", computed="")
    return _write(rep, args, cfg, "catalog")


def _refuse_unread(args) -> None:
    """Refuse a flag the verb's mode does not read: --seed and --cap with `verify
    --control`, --seed with `duality` but no --random-levels.  A value from the
    config file is no flag and is not refused."""
    unread = (("seed", "cap") if args.verb == "verify" and args.control else
              ("seed",) if args.verb == "duality" and not args.random_levels else ())
    given = [f"--{key}" for key in unread if getattr(args, key) is not None]
    if given:
        raise InputError(f"{' and '.join(given)} not read by this {args.verb} run")


COMMANDS = {
    "verify": cmd_verify, "kernel": cmd_kernel, "duality": cmd_duality,
    "gram": cmd_gram, "ks-check": cmd_ks, "resolution": cmd_resolution,
    "norm": cmd_norm, "delta": cmd_delta, "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_normalize_argv(list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _refuse_unread(args)
        cfg = load_config()
        # the config fills each setting the verb has a flag for but was not given
        for key in _INTEGER_KEYS:
            dest = key.replace("-", "_")
            if dest in vars(args) and getattr(args, dest) is None:
                setattr(args, dest, cfg[key])
        return COMMANDS[args.verb](args, cfg)
    except ResourceBound as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
