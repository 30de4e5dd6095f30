import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wcoset
from wcoset.cli import _normalize_argv, build_parser, main
from wcoset.report import render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_duality_pass(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "duality", "--pair", "sl", "--n", "2",
                     "--k1", "-14/5", "--max-degree", "4", "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["status"] == "pass"
    assert obj["command"] == "duality"
    degrees = [r["degree"] for r in obj["per_degree"]]
    assert degrees == [0, 1, 2, 3, 4]
    assert all(r["equal"] for r in obj["per_degree"])


def test_duality_excluded_level(capsys):
    code, _, err = run(capsys, "duality", "--pair", "sl", "--n", "2", "--k1", "-3")
    assert code == 2
    assert "excluded set" in err and "K1" in err
    code, _, err = run(capsys, "duality", "--pair", "sl", "--n", "2", "--k1", "-3/2")
    assert code == 2
    assert "excluded set" in err and "S1" in err


def test_duality_admissible_warns(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "duality", "--pair", "sl", "--n", "2",
                       "--k1", "-1/2", "--max-degree", "2", "--out", str(out))
    assert code == 0
    assert "admissible" in err


def test_json_round_trip_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(capsys, "norm", "--pair", "so", "--n", "2", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert render_json(obj) == a.read_bytes()


def test_kernel_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run(capsys, "kernel", "--key", "rank1-ff", "--k1", "7/2",
                     "--max-degree", "6", "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "degree,dim"
    assert [int(l.split(",")[1]) for l in lines[1:]] == [1, 0, 1, 1, 2, 2, 4]


def test_kernel_reports_the_levels_it_ran_at(capsys):
    # a dual level filled in by the catalog, and gl(1|1)'s default k2, are reported
    for argv, k1, k2 in ((("--key", "wakimoto-gl11", "--k1", "7/2"), "7/2", "0"),
                         (("--key", "wakimoto-gl11", "--k1", "7/2", "--k2", "1/3"), "7/2", "1/3"),
                         (("--key", "super-sl:2:coset", "--k1", "1/3"), "1/3", "-17/10"),
                         (("--key", "super-sl:2:coset", "--k2", "-17/10"), "1/3", "-17/10"),
                         (("--key", "subregular-so:2:coset", "--k1", "1/3"), "1/3", "-37/20"),
                         (("--key", "rank1-ff", "--k1", "7/2"), "7/2", "")):
        code, out, _ = run(capsys, "kernel", *argv, "--max-degree", "1")
        inputs = json.loads(out)["inputs"]
        assert code == 0 and (inputs["k1"], inputs["k2"]) == (k1, k2), argv


def test_unwritable_report_path_exits_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "catalog", "--out", str(missing / "x.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report") and err.count("\n") == 1
    cfg = tmp_path / "wcoset.cfg"
    cfg.write_text(f"out-dir = {missing}\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    code, out, err = run(capsys, "norm", "--pair", "so", "--n", "2", "--out", "r.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report") and str(missing) in err
    assert not missing.exists()


def test_duality_csv_header(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "duality", "--pair", "so", "--n", "2", "--k1", "-5/2",
                     "--max-degree", "2", "--format", "csv", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "degree,dim_left,dim_right,equal"


def test_text_format_status_last(capsys):
    code, out, _ = run(capsys, "norm", "--pair", "sl", "--n", "2", "--format", "text")
    assert code == 0
    assert out.strip().splitlines()[-1] == "status: pass"


def test_gram_symbolic(capsys):
    code, out, _ = run(capsys, "gram", "--pair", "so", "--n", "3")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_gram_reports_one_comparison(capsys):
    code, out, _ = run(capsys, "gram", "--pair", "sl", "--n", "2", "--k1", "-14/5")
    assert code == 0
    items = json.loads(out)["items"]
    assert [i["id"] for i in items] == ["gram(alpha~) = gram(beta~)"]


def test_ks_check_cli(capsys):
    code, out, _ = run(capsys, "ks-check", "--pair", "sl", "--n", "2")
    assert code == 0
    code, _, _ = run(capsys, "ks-check", "--pair", "sl", "--n", "2",
                     "--k2", "3", "--perturb", "drop-psi")
    assert code == 1


def test_resolution_cli(capsys):
    code, out, _ = run(capsys, "resolution", "--k1", "7/2", "--k2", "1/3",
                       "--max-degree", "2", "--terms", "1")
    assert code == 0
    obj = json.loads(out)
    assert [r["dim_left"] for r in obj["per_degree"]] == [1, 4, 12]


def test_negative_controls_exit_1(capsys):
    for name in ("drop-dc", "flip-companion", "drop-psi"):
        code, out, _ = run(capsys, "verify", "--control", name)
        assert code == 1, name


# sha256 of the `wcoset verify` JSON report, per seed and per control: a
# refactor that must not change a result must leave these bytes identical
VERIFY_DIGESTS = {
    (): "ee71a9d64cf206f706559ea32f07727d3cbcda2a72d65e88485686cceeeb3714",
    ("--seed", "1"): "7de7e8d3f72d196d5f92deacce3c2a615fa85822227d7bce2c04a5e57dd2d5c4",
    ("--seed", "2"): "6d3085ae528f6939060d41e8d05994da2b88175ec13b8d5466b99676638ee017",
    ("--seed", "3"): "c9cc55f575bcc70abe8a8e47baeef6c73522b674a63de0c30e9ed420198e98e8",
    ("--control", "drop-dc"):
        "f6082336cd2504abae5be6dd6e8ed2c732f7cb8578c89b154172bb5594a4b126",
    ("--control", "flip-companion"):
        "21bed4e21c41ba21fed7ef4da58a2e60f43abcf58cb75a234bde3ea0f75bc0e6",
    ("--control", "drop-psi"):
        "576f62d8a16ef7d846253674845f0dcbdbaa1da2b5bed2cabe883fe297b154d9",
}


@pytest.mark.parametrize("argv", list(VERIFY_DIGESTS), ids=lambda a: " ".join(a) or "default")
def test_verify_report_bytes_are_pinned(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no wcoset.cfg is read
    monkeypatch.delenv("WCOSET_CONFIG", raising=False)
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", *argv, "--out", str(out))
    assert code == (1 if "--control" in argv else 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[argv]


# sha256 of the duality report with kernels over Q(t): the verify reports
# above never print a rational function, these carry the Q(t) kernel dims
SYMBOLIC_DIGESTS = {
    "sl": "424421ffc1ab793ecef3b57756d0b75a668ef78fe5723ae1460cb881f5ac926a",
    "so": "5dd5e65b260e9693ffdc35ec117a019f80c58d552ca0c0f9c0aacf25595f4a51",
}


@pytest.mark.parametrize("pair", list(SYMBOLIC_DIGESTS))
def test_symbolic_duality_report_bytes_are_pinned(pair, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WCOSET_CONFIG", raising=False)
    out = tmp_path / "duality.json"
    code, _, _ = run(capsys, "duality", "--pair", pair, "--n", "2", "--k1", "20/7",
                     "--max-degree", "3", "--symbolic-kernels", "3", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYMBOLIC_DIGESTS[pair]


def test_bad_level_parse(capsys):
    code, _, _ = run(capsys, "duality", "--pair", "sl", "--n", "2", "--k1", "nope")
    assert code == 2


def test_cap_exit_3(capsys):
    code, _, err = run(capsys, "resolution", "--k1", "7/2", "--k2", "1/3",
                       "--max-degree", "3", "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_config_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "wcoset.cfg"
    cfg.write_text("max-degree = 2\nseed = 9\nout-dir = .\ncap = 20000\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    out = tmp_path / "d.json"
    code, _, _ = run(capsys, "duality", "--pair", "sl", "--n", "2",
                     "--k1", "-14/5", "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert [r["degree"] for r in obj["per_degree"]] == [0, 1, 2]
    # flags override the config
    code, _, _ = run(capsys, "duality", "--pair", "sl", "--n", "2",
                     "--k1", "-14/5", "--max-degree", "3", "--out", str(out))
    assert json.loads(out.read_text())["per_degree"][-1]["degree"] == 3


def test_resolution_uses_config_max_degree(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "wcoset.cfg"
    cfg.write_text("max-degree = 2\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    code, out, _ = run(capsys, "resolution", "--k1", "7/2", "--k2", "1/3",
                       "--terms", "1")
    assert code == 0
    obj = json.loads(out)
    assert [r["degree"] for r in obj["per_degree"]] == [0, 1, 2]


def test_verify_rejects_max_degree(tmp_path, capsys, monkeypatch):
    from wcoset import verify
    monkeypatch.setattr(verify, "full_battery", None)
    for flags in (("--max-degree", "3"), ("--control", "drop-psi", "--max-degree", "4")):
        code, out, err = run(capsys, "verify", *flags)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --max-degree" in err
    # the config max-degree, shared with kernel/duality/resolution, is not read
    cfg = tmp_path / "wcoset.cfg"
    cfg.write_text("max-degree = 1\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    seen = []
    monkeypatch.setattr(verify, "full_battery",
                        lambda rng, cap=None: seen.append(cap) or verify.Report("verify", {}))
    code, _, _ = run(capsys, "verify")
    assert seen == [20000]


def test_bad_config_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_degree = 2\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    code, _, err = run(capsys, "norm", "--pair", "sl", "--n", "1")
    assert code == 2


def test_catalog_lists_keys(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    obj = json.loads(out)
    ids = [i["id"] for i in obj["items"]]
    assert "subregular-sl:3:coset" in ids and "wakimoto-gl11" in ids


def test_out_of_range_integer_flags_exit_2(capsys):
    """A negative degree or count, a rank or cap below 1, no samples, a
    malformed catalog key, a kernel of a key with no screenings, a level the
    key does not read or two levels that are not dual is refused, not run
    with nothing to check or at a level other than the one reported."""
    for argv in (("duality", "--pair", "sl", "--n", "2", "--k1", "-14/5",
                  "--max-degree", "-1"),
                 ("kernel", "--key", "rank1-ff", "--k1", "7/2", "--max-degree", "-3"),
                 ("resolution", "--k1", "7/2", "--k2", "1/3", "--terms", "-1"),
                 ("duality", "--pair", "sl", "--n", "2", "--k1", "-14/5",
                  "--random-levels", "-1"),
                 ("duality", "--pair", "sl", "--n", "2", "--k1", "-14/5",
                  "--symbolic-kernels", "-2"),
                 ("resolution", "--k1", "7/2", "--k2", "1/3", "--cap", "0"),
                 ("norm", "--pair", "sl", "--n", "0"),
                 ("norm", "--pair", "sl", "--n", "-1"),
                 ("kernel", "--key", "bogus", "--k1", "1/3"),
                 ("kernel", "--key", "super-sl:x:coset", "--k1", "1/3"),
                 ("kernel", "--key", "ks-z-sl:2", "--k1", "1/3"),
                 ("kernel", "--key", "ks-a-sl:2"),
                 ("kernel", "--key", "ks-a-sl:2", "--k1", "1/3"),
                 ("kernel", "--key", "ks-b-so:2", "--k1", "1/3"),
                 ("kernel", "--key", "super-sl:2:coset", "--k1", "1/3", "--k2", "5"),
                 ("kernel", "--key", "ks-a-sl:2", "--k1", "1/3", "--k2", "5"),
                 ("kernel", "--key", "subregular-sl:2:coset", "--k1", "1/3", "--k2", "5"),
                 ("kernel", "--key", "rank1-ff", "--k1", "7/2", "--k2", "1/3"),
                 ("delta", "--samples", "-2"),
                 ("delta", "--samples", "0"),
                 ("delta", "--samples", "two")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "error:" in err, argv
    code, out, _ = run(capsys, "delta", "--samples", "1")
    assert code == 0 and json.loads(out)["inputs"]["samples"] == "1"
    code, out, _ = run(capsys, "kernel", "--key", "super-sl:4:coset", "--k1", "1/3",
                       "--max-degree", "1")
    assert code == 0 and json.loads(out)["inputs"]["key"] == "super-sl:4:coset"
    code, out, _ = run(capsys, "kernel", "--key", "super-sl:2:coset", "--k1", "1/3",
                       "--k2", "-17/10", "--max-degree", "1")
    assert code == 0 and json.loads(out)["inputs"]["k2"] == "-17/10"


def test_missing_named_config_exit_2(tmp_path, capsys, monkeypatch):
    """A path in WCOSET_CONFIG that is not a file is refused, a directory
    included; an absent ./wcoset.cfg is not."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r.json"
    for named in (tmp_path / "wcoset.cgf", tmp_path):
        monkeypatch.setenv("WCOSET_CONFIG", str(named))
        code, stdout, err = run(capsys, "norm", "--pair", "sl", "--n", "1", "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists(), named
        assert err == f"error: config file {str(named)!r} named by WCOSET_CONFIG is not a file\n"
    monkeypatch.delenv("WCOSET_CONFIG")
    code, _, _ = run(capsys, "norm", "--pair", "sl", "--n", "1", "--out", str(out))
    assert code == 0 and out.exists()


def test_bad_config_integer_exit_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "wcoset.cfg"
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    for text in ("seed = abc\n", "max-degree = -1\n", "cap = 0\n", "cap = 2.5\n"):
        cfg.write_text(text)
        code, out, err = run(capsys, "resolution", "--k1", "7/2", "--k2", "1/3")
        assert code == 2 and out == "", text
        assert err.startswith("error: config "), text


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(wcoset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "wcoset", "catalog"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "catalog"


# each verb's flags beyond --help, and its report formats
VERB_FLAGS = {
    "verify": ({"--out", "--format", "--seed", "--cap", "--control"}, ["json", "text"]),
    "kernel": ({"--out", "--format", "--max-degree", "--cap", "--key", "--k1", "--k2"},
               ["json", "csv", "text"]),
    "duality": ({"--out", "--format", "--max-degree", "--cap", "--seed", "--pair", "--n",
                 "--k1", "--random-levels", "--symbolic-kernels"}, ["json", "csv", "text"]),
    "gram": ({"--out", "--format", "--pair", "--n", "--k1"}, ["json", "text"]),
    "ks-check": ({"--out", "--format", "--pair", "--n", "--k2", "--perturb"},
                 ["json", "text"]),
    "resolution": ({"--out", "--format", "--max-degree", "--cap", "--k1", "--k2",
                    "--terms"}, ["json", "csv", "text"]),
    "norm": ({"--out", "--format", "--pair", "--n"}, ["json", "text"]),
    "delta": ({"--out", "--format", "--seed", "--samples"}, ["json", "text"]),
    "catalog": ({"--out", "--format"}, ["json", "text"]),
}

# the arguments each verb needs to run
REQUIRED = {
    "verify": (), "kernel": ("--key", "rank1-ff", "--k1", "7/2"),
    "gram": ("--pair", "sl", "--n", "2"), "ks-check": ("--pair", "sl", "--n", "2"),
    "resolution": ("--k1", "7/2", "--k2", "1/3"), "norm": ("--pair", "sl", "--n", "2"),
    "delta": (), "catalog": (),
}

# flags that verbs no longer take, with a value for each
REMOVED = ([("verify", "--max-degree", "3"), ("kernel", "--seed", "5"),
            ("resolution", "--seed", "5"), ("delta", "--max-degree", "3"),
            ("delta", "--cap", "100"), ("gram", "--symbolic"), ("ks-check", "--symbolic")]
           + [(verb, flag, "3") for verb in ("gram", "ks-check", "norm", "catalog")
              for flag in ("--seed", "--max-degree", "--cap")]
           + [(verb, "--format", "csv")
              for verb in ("verify", "gram", "ks-check", "norm", "delta", "catalog")])


def test_each_verb_offers_only_the_flags_it_reads():
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    seen = {}
    for name, parser in verbs.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        formats = next(a.choices for a in parser._actions if a.dest == "format")
        seen[name] = (flags, formats)
    assert seen == VERB_FLAGS


def test_removed_flags_exit_2_without_a_report(tmp_path, capsys, monkeypatch):
    from wcoset import verify
    monkeypatch.setattr(verify, "full_battery", None)
    assert len([r for r in REMOVED if r[1] != "--format"]) == 19
    out = tmp_path / "r.json"
    for verb, *flag in REMOVED:
        code, stdout, err = run(capsys, verb, *REQUIRED[verb], *flag, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists(), (verb, flag)
        assert "unrecognized arguments" in err or "invalid choice: 'csv'" in err, (verb, flag)


def test_flags_a_mode_does_not_read_exit_2_without_a_report(tmp_path, capsys, monkeypatch):
    """`verify --control` reads no --seed or --cap, and `duality` no --seed
    without --random-levels; the same values from a config file pass."""
    out = tmp_path / "r.json"
    duality = ("duality", "--pair", "sl", "--n", "2", "--k1", "-14/5", "--max-degree", "2")
    control = ("verify", "--control", "drop-psi")
    for argv in (control + ("--seed", "5", "--cap", "1"), control + ("--seed", "5"),
                 control + ("--cap", "1"), duality + ("--seed", "9"),
                 duality + ("--seed", "9", "--random-levels", "0")):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists(), argv
        assert err.startswith("error: "), argv
        assert all(flag in err for flag in ("--seed", "--cap") if flag in argv), argv
    cfg = tmp_path / "wcoset.cfg"
    cfg.write_text("seed = 9\ncap = 1000\n")
    monkeypatch.setenv("WCOSET_CONFIG", str(cfg))
    for argv, want in ((control, 1), (duality, 0)):
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == want and out.exists(), argv
        out.unlink()


def test_gram_and_ks_check_report_the_given_level(capsys):
    code, out, _ = run(capsys, "gram", "--pair", "sl", "--n", "2", "--k1", "3")
    assert code == 0 and json.loads(out)["inputs"]["k1"] == "3"
    assert "t" not in json.loads(out)["items"][0]["computed"]
    code, out, _ = run(capsys, "ks-check", "--pair", "sl", "--n", "2", "--k2", "3")
    assert code == 0 and json.loads(out)["inputs"]["k2"] == "3"


@pytest.mark.parametrize("name", ["gram-sl-2", "gram-so-3", "ks-check-sl-3",
                                  "ks-check-so-2"])
def test_gram_and_ks_check_default_to_the_formal_level(name, capsys):
    """Without a level, gram and ks-check work at t; the expected bytes are the
    reports the earlier `--symbolic` flag wrote for the same pair and rank."""
    verb, pair, n = name.rsplit("-", 2)
    code, out, _ = run(capsys, verb, "--pair", pair, "--n", n)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / f"{name}.json").read_bytes()


def test_readme_commands_parse():
    """Every `wcoset ...` line of the README's sh blocks is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("wcoset ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(_normalize_argv(shlex.split(line)[1:]))
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
