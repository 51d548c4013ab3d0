"""Command-line runner: subcommands, config files, report files, exit codes."""

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import eager_parser
from shiftlab import cli
from shiftlab.cli import _atomic_write, main
from shiftlab.groups import make_box_folner
from shiftlab.metrics import default_ball_bits, lower_sum_work


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- CSV traces -------------------------------------------------------------

def test_density_writes_csv_trace(capsys):
    code, out, _ = run(capsys, "density", "--set", "visible", "--N", "100", "--kind", "centered")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,lo,hi"
    assert len(lines) >= 2
    final = float(lines[-1].split(",")[1])
    assert abs(final - 0.6079) < 0.02


def test_dbar_csv_with_explicit_n_list(capsys):
    code, out, _ = run(
        capsys, "dbar", "--x", "rf-sub:1", "--z", "rf-sub:2", "--n-list", "5,29"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,lo,hi"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "29"]
    assert float(lines[-1].split(",")[1]) == pytest.approx(1 / 3)


def test_besicovitch_csv_rows_are_intervals(capsys):
    code, out, _ = run(
        capsys, "besicovitch", "--x", "rf-sub:1", "--z", "rf-sub:2",
        "--n-list", "10,40", "--radius", "8",
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    for _, value, lo, hi in rows:
        assert float(lo) <= float(value) <= float(hi)


# --- JSON reports -----------------------------------------------------------

def test_transport_report_is_certified(capsys):
    report = run_json(capsys, "transport", "--x", "rf-sub:1", "--z", "rf-sub:2", "--N", "44")
    assert report["schema"] == "shiftlab-report/1"
    assert report["command"] == "transport"
    assert report["certified"] is True
    assert report["value"]["fraction"] == "1/3"
    assert report["config"]["x"] == "rf-sub:1"


def test_rho_chain_report_pins(capsys):
    report = run_json(capsys, "rho-chain", "--x", "rf-sub:2", "--z", "rf-sub:3", "--k-max", "3")
    assert [c["fraction"] for c in report["chain"]] == ["1/15", "1/15", "1/9"]
    assert report["oracle"]["fraction"] == "1/5"
    assert report["chain_le_oracle"] is True and report["passed"] is True


def test_rho_chain_admissible_reports_weight_coverage(capsys):
    report = run_json(
        capsys, "rho-chain", "--x", "rf-sub:1", "--z", "rf-sub:2",
        "--k-max", "2", "--cost", "admissible",
    )
    assert len(report["weight_coverage"]) == 2
    assert report["weight_coverage"][0]["fraction"] == "1/2"


def test_rho_chain_admissible_is_bounded_by_the_best_shift(capsys):
    report = run_json(
        capsys, "rho-chain", "--x", "rf-sub:2", "--z", "rf-sub:3",
        "--k-max", "2", "--cost", "admissible",
    )
    # weight coverage 1/2 and 5/8 times the joining infimum 1/5
    assert [b["fraction"] for b in report["shift_bound"]] == ["1/10", "1/8"]
    assert "oracle" not in report and report["passed"] is True


def test_rho_chain_admissible_above_the_shift_bound_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "rho_bar_lower", lambda mus, nus, cost: [Fraction(1, 2)] * len(mus))
    code, out, _ = run(
        capsys, "rho-chain", "--x", "rf-sub:2", "--z", "rf-sub:3",
        "--k-max", "2", "--cost", "admissible",
    )
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_dprime_report_pin(capsys):
    report = run_json(capsys, "dprime", "--x", "rf-sub:1", "--z", "rf-sub:2", "--N", "999")
    assert report["value"]["fraction"] == "67/200"
    assert report["saturated"] is False


def test_empirical_report_exact_thirds(capsys):
    report = run_json(capsys, "empirical", "--set", "rf-sub:2", "--N", "299", "--window", "2")
    weights = {tuple(p): (num, den) for p, num, den in report["distribution"]["weights"]}
    assert weights == {(0, 0): (1, 3), (0, 1): (1, 3), (1, 0): (1, 3)}


def test_prokhorov_report_pin(capsys):
    report = run_json(
        capsys, "prokhorov", "--x", "rf-sub:2", "--z", "rf-sub:3", "--N", "60", "--window", "1"
    )
    assert report["distance"]["fraction"] == "4/61"
    # 8595/131072 is the feasible dyadic value that bisection to 1e-6 gives;
    # the exact infimum lies below it by at most that step
    dyadic = Fraction(8595, 131072)
    assert Fraction(4, 61) <= dyadic and dyadic - Fraction(4, 61) <= Fraction(1, 10**6)


def test_omega_report_counts_clusters(capsys):
    report = run_json(
        capsys, "omega", "--set", "rf-sub:3", "--merge-tol", "0.05", "--n-list", "8,64,512"
    )
    assert report["count"] == 2
    assert len(report["representatives"]) == 2


def test_omega_reads_each_empirical_measure_once(capsys, monkeypatch):
    # the measure at max(n-list) is read once, for the cell budget, and is
    # then clustered without a second read
    from shiftlab import measures

    sizes = []
    pattern_counts = measures._pattern_counts

    def counted(configs, window_set, W):
        sizes.append(len(window_set))
        return pattern_counts(configs, window_set, W)

    monkeypatch.setattr(measures, "_pattern_counts", counted)
    report = run_json(capsys, "omega", "--set", "visible", "--window", "2",
                      "--n-list", "10,20,40")
    assert sorted(sizes) == [11**2, 21**2, 41**2]
    assert report["count"] == len(report["representatives"])


def test_tempered_passes_at_two(capsys):
    report = run_json(capsys, "tempered", "--group", "z:1", "--n", "20", "--c", "2")
    assert report["passed"] is True
    assert report["max_ratio"]["fraction"] == "40/21"


def test_tempered_fails_at_three_halves(capsys):
    code, out, _ = run(capsys, "tempered", "--group", "z:1", "--n", "20", "--c", "1.5")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_examples_listing_and_info(capsys):
    listing = run_json(capsys, "examples")
    names = [f["name"] for f in listing["families"]]
    assert "visible" in names
    info = run_json(capsys, "examples", "--name", "rf-sub:2")
    assert info["example"]["dim"] == 1
    assert info["example"]["period_index"] == 3


def test_entropy_report_pins(capsys):
    report = run_json(capsys, "entropy", "--set", "rf-sub:2", "--N", "599", "--sizes", "1,2")
    table = dict((k, v) for k, v in report["bits_per_site"])
    assert table[1] == pytest.approx(0.9182958340544896)
    assert table[2] == pytest.approx(0.792481250360578)


def test_glue_and_triangle_checks_pass(capsys):
    glue = run_json(capsys, "glue-check", "--trials", "5", "--seed", "3")
    assert glue["passed"] is True and len(glue["items"]) == 5
    tri = run_json(capsys, "triangle-check", "--trials", "5", "--seed", "3", "--support", "3")
    assert tri["passed"] is True


def test_nowy_check_on_seeded_pairs(capsys):
    report = run_json(
        capsys, "nowy-check", "--pairs", "random:3", "--seed", "7", "--n", "2000"
    )
    assert report["passed"] is True
    assert len(report["items"]) == 3
    for item in report["items"]:
        assert item["passed"] is True


def test_nowy_check_is_decided_by_exact_links(capsys):
    # at n = 50 some dbar values lie more than 1/100 below the oracle; the
    # floor from the whole joint periods in {0..50} still bounds each one
    report = run_json(capsys, "nowy-check", "--n", "50", "--seed", "3", "--pairs", "random:20")
    assert report["passed"] is True and len(report["items"]) == 20
    assert "tol" not in report["config"]
    frac = lambda v: Fraction(v["fraction"])
    for item in report["items"]:
        assert item["passed"] is True
        assert all(frac(c) <= frac(item["oracle"]) for c in item["chain"])
        assert frac(item["oracle"]) <= frac(item["dbar_limit"])
        assert frac(item["dbar_floor"]) <= frac(item["dbar"])
    assert any(frac(it["dbar"]) < frac(it["oracle"]) - Fraction(1, 100) for it in report["items"])


def test_nowy_check_has_no_tolerance_flag(capsys):
    assert run(capsys, "nowy-check", "--tol", "0.01")[0] == 1


def test_convergence_reduced_run_passes(capsys):
    code, out, _ = run(
        capsys, "convergence", "--N", "240", "--n-max", "3",
        "--stages", "4", "--entropy-sizes", "1,2,3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    for section in ("visible_density", "approximant_convergence", "substitution", "entropy_decay"):
        assert report[section]["passed"] is True
    # each dbar against its exact mismatch bound over the (2N+1)^2 window
    conv = report["approximant_convergence"]
    assert [b["fraction"] for b in conv["mismatch_bounds"]] == [
        str(Fraction(b, 481**2)) for b in (47016, 21096, 11688)
    ]
    assert conv["bounded"] is True and "tail_bounds" not in conv


@pytest.mark.parametrize("argv", [
    [], ["--N", "120", "--n-max", "3", "--stages", "4", "--entropy-sizes", "1,2,3"],
], ids=["defaults", "pinned"])
def test_convergence_passes_by_exact_bounds(capsys, argv):
    report = run_json(capsys, "convergence", *argv)
    conv = report["approximant_convergence"]
    assert report["passed"] is True and conv["bounded"] is True
    for d, b in zip(conv["dbar"], conv["mismatch_bounds"], strict=True):
        assert Fraction(d["fraction"]) <= Fraction(b["fraction"])


# --- exit codes follow the report -------------------------------------------

@pytest.mark.parametrize("argv", [
    ["tempered"],
    ["tempered", "--c", "3/2"],
    ["transport", "--x", "rf-sub:1", "--z", "rf-sub:2", "--N", "44"],
    ["rho-chain", "--x", "rf-sub:2", "--z", "rf-sub:3", "--k-max", "2"],
    ["glue-check", "--trials", "5", "--seed", "3"],
    ["nowy-check", "--pairs", "random:2", "--seed", "7", "--n", "2000", "--max-period", "6"],
    # dbar over 3 sites is 1/3, below the joining infimum 3/5, but no whole
    # joint period fits in 3 sites, so the floor is 0 and the check passes
    ["nowy-check", "--pairs", "random:1", "--seed", "6", "--n", "2", "--max-period", "6"],
], ids=" ".join)
def test_exit_code_is_two_exactly_when_the_report_fails(capsys, argv):
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    failed = report.get("passed") is False or report.get("certified") is False
    assert code == (2 if failed else 0)


def test_uncertified_transport_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_transport_certificate", lambda res, cost: False)
    code, out, _ = run(capsys, "transport", "--x", "rf-sub:1", "--z", "rf-sub:2", "--N", "44")
    assert code == 2
    assert json.loads(out)["certified"] is False


# --- output files and determinism -------------------------------------------

def test_out_writes_file_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "transport", "--x", "rf-sub:1", "--z", "rf-sub:2",
        "--N", "44", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"]["fraction"] == "1/3"
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(
        capsys, "transport", "--x", "rf-sub:1", "--z", "rf-sub:2", "--out", str(target)
    )
    assert code == 1 and "error" in err
    assert list(tmp_path.iterdir()) == [target]
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(tmp_path / "report.json"), "\ud800")
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("target, errno_text", [
    ("missing/report.json", "[Errno 2] No such file or directory"),
    ("taken", "[Errno 21] Is a directory"),
], ids=["missing-directory", "directory-target"])
def test_failed_write_names_the_given_path(tmp_path, capsys, target, errno_text):
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, "density", "--set", "visible", "--out", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {errno_text}: {str(path)!r}\n"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_written_report_gets_the_default_file_mode(tmp_path):
    umask = os.umask(0o022)
    try:
        _atomic_write(str(tmp_path / "r.json"), "{}\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o644


def test_written_report_mode_does_not_touch_the_umask(tmp_path):
    def no_umask(mask):
        raise AssertionError("the write changed the process umask")

    umask = os.umask(0o022)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "umask", no_umask)
            _atomic_write(str(tmp_path / "r.json"), "{}\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o644


def test_taken_temp_name_is_skipped_and_left_alone(tmp_path, monkeypatch):
    target = tmp_path / "r.json"
    taken = tmp_path / f"r.json.{os.getpid()}.5.tmp"
    taken.write_text("someone else's")
    monkeypatch.setattr(cli, "_TEMP_NUMBERS", itertools.count(5))
    _atomic_write(str(target), "{}\n")
    assert target.read_text() == "{}\n"
    assert taken.read_text() == "someone else's"
    assert sorted(tmp_path.iterdir()) == [target, taken]


def test_reports_are_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["glue-check", "--trials", "4", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# sha256 of the triangle-check and glue-check reports (less their version
# field) and exit codes for seeds 0..29, taken when the seeded metrics and
# laws were still built in Fractions
SEEDED_REPORTS_SHA256 = "49a5339e895826c71dddc2054bda0fc8b66f91bdc4089f28e963b87e1a615f44"


def test_seeded_check_reports_hash_is_unchanged(capsys):
    digest = hashlib.sha256()
    for s in range(30):
        for argv in (["triangle-check", "--seed", str(s), "--trials", "6",
                      "--support", str(2 + s % 7)],
                     ["glue-check", "--seed", str(s), "--trials", "6"]):
            code, out, _ = run(capsys, *argv)
            doc = json.loads(out)
            doc.pop("version")
            digest.update(json.dumps([argv, code, doc], sort_keys=True).encode())
    assert digest.hexdigest() == SEEDED_REPORTS_SHA256


# --- config files -----------------------------------------------------------

def test_config_file_supplies_defaults_and_cli_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = rf-sub:1\nz = rf-sub:2\nn-list = 5,11\n# comment\n")
    code, out, _ = run(capsys, "dbar", "--config", str(cfg))
    assert code == 0
    assert [ln.split(",")[0] for ln in out.strip().splitlines()[1:]] == ["5", "11"]
    code, out, _ = run(capsys, "dbar", "--config", str(cfg), "--n-list", "29")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.strip().splitlines()[1:]] == ["29"]


def test_config_file_out_is_honoured_and_the_flag_wins(tmp_path, capsys):
    argv = ["glue-check", "--trials", "2", "--seed", "3"]
    expected = run(capsys, *argv)[1]
    from_file = tmp_path / "from-file.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trials = 2\nseed = 3\nout = {from_file}\n")
    code, out, _ = run(capsys, "glue-check", "--config", str(cfg))
    assert code == 0 and out == ""
    # out is not part of the embedded configuration
    assert from_file.read_text() == expected
    from_file.unlink()
    from_flag = tmp_path / "from-flag.json"
    code, out, _ = run(capsys, "glue-check", "--config", str(cfg), "--out", str(from_flag))
    assert code == 0 and out == ""
    assert from_flag.read_text() == expected
    assert not from_file.exists()


@pytest.mark.parametrize("argv, cfg_text", [
    (["omega", "--set", "rf-sub:3", "--n-list", "8,64,512", "--merge-tol", "0.05"],
     "set = rf-sub:3\nn-list = 8,64,512\nmerge-tol = 0.05\n"),
    (["dprime", "--x", "rf-sub:1", "--z", "rf-sub:2", "--N", "99"],
     "x = rf-sub:1\nz = rf-sub:2\nN = 99\n"),
])
def test_flags_and_config_file_give_the_same_report(tmp_path, capsys, argv, cfg_text):
    from_flags = run_json(capsys, *argv)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, argv[0], "--config", str(cfg))
    assert code == 0, err
    assert out == json.dumps(from_flags, sort_keys=True, indent=2) + "\n"


_RF_PAIR = ["--x", "rf-sub:1", "--z", "rf-sub:2"]


@pytest.mark.parametrize("base, key, value", [
    pytest.param(base, key, value, id=f"{key}-{value}") for base, key, value in [
        (["empirical", "--set", "visible"], "kind", "diagonal"),
        (["empirical", "--set", "visible"], "N", "abc"),
        (["empirical", "--set", "visible"], "N", "0"),
        (["density", "--set", "visible"], "n-list", ","),
        (["empirical", "--set", "visible"], "window", "0"),
        (["besicovitch", *_RF_PAIR], "radius", "-1"),
        (["rho-chain", *_RF_PAIR], "k-max", "0"),
        (["tempered"], "n", "1"),
        (["tempered"], "c", "1"),
        (["triangle-check"], "support", "1"),
        (["triangle-check"], "support", "9"),
        (["convergence"], "n-max", "0"),
        (["convergence"], "n-max", "6"),
        (["convergence"], "stages", "7"),
        (["nowy-check"], "n", "0"),
        (["nowy-check"], "max-period", "0"),
        (["nowy-check"], "pairs", "random:0"),
        (["nowy-check"], "pairs", "fixed:3"),
    ]
])
def test_bad_values_fail_alike_from_flag_and_file(tmp_path, capsys, base, key, value):
    code, out, flag_err = run(capsys, *base, f"--{key}", value)
    assert code == 1 and out == ""
    assert flag_err.startswith(f"error: {key}: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, file_err = run(capsys, *base, "--config", str(cfg))
    assert code == 1 and out == ""
    assert file_err == flag_err


def test_fraction_with_zero_denominator_is_a_usage_error(capsys):
    code, _, err = run(capsys, "tempered", "--c", "1/0")
    assert code == 1 and err.startswith("error: c: ")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("x = rf-sub:1\nbogus = 3\n")
    code, _, err = run(capsys, "dbar", "--config", str(cfg))
    assert code == 1 and "bogus" in err


def test_config_file_rejects_malformed_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just-some-text\n")
    code, _, err = run(capsys, "dbar", "--config", str(cfg))
    assert code == 1 and "error" in err


# --- exit codes -------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "density")[0] == 1  # missing --set
    assert run(capsys, "density", "--set", "not-a-family")[0] == 1
    assert run(capsys, "density", "--set", "visible", "--N", "abc")[0] == 1
    assert run(capsys, "tempered", "--group", "q:1")[0] == 1
    # checks that would check nothing
    assert run(capsys, "glue-check", "--trials", "0")[0] == 1
    assert run(capsys, "triangle-check", "--trials", "0")[0] == 1
    for stages in ("0", "1", "9"):
        assert run(capsys, "convergence", "--stages", stages)[0] == 1


def test_oversized_window_job_is_refused_before_reading(capsys):
    limit = cli.SITE_BUDGET
    code, out, err = run(capsys, "density", "--set", "visible", "--N", "1000000")
    # the ladder 125000, 250000, 500000, 1000000 of {0..n}^2 boxes
    estimate = sum((n + 1) ** 2 for n in (125_000, 250_000, 500_000, 1_000_000))
    assert code == 1 and out == ""
    assert err == f"error: job would read about {estimate} sites, over the limit of {limit}\n"


@pytest.mark.parametrize("argv, err", [
    (["convergence", "--N", "20000"],
     f"error: job would read about 8004847503 sites, over the limit of {cli.SITE_BUDGET}\n"),
    (["tempered", "--group", "z:2", "--n", "20000"],
     f"error: n: must be <= {cli.TEMPERED_N_MAX}, got 20000\n"),
], ids=["convergence", "tempered"])
def test_oversized_pipeline_job_is_refused_at_once(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


_BUDGET_JOBS = [
    # (argv, estimated site reads)
    (["density", "--set", "visible", "--n-list", "9,19"], 10**2 + 20**2),
    (["dbar", "--x", "visible", "--z", "prime-approx:1", "--kind", "centered", "--n-list", "4"],
     9**2),
    # Besicovitch and D': the word operations of the lower sums, per window
    # words · (ceil(log2 width) + 1 + (R + 1) · (1 + coefficient words)) for
    # the one row of a 1-D window widened by R, plus sites · bits(sites) for
    # reading and sorting the sums.  The sums fit 1-byte lanes, so a row of
    # width w takes ceil((w + 1) / 8) words: 2 and 4 at widths 14 and 24 ...
    (["besicovitch", *_RF_PAIR, "--n-list", "9,19", "--radius", "2"],
     2 * (5 + 3 * 2) + 10 * 4 + 4 * (6 + 3 * 2) + 20 * 5),
    (["dprime", *_RF_PAIR, "--N", "19", "--radius", "3"], 4 * (6 + 4 * 2) + 20 * 5),
    # ... and at R = 64 the ball's mass has 66 bits, so 9-byte lanes and
    # ceil(131 * 9 / 8) = 148 words a row, and a coefficient of 65 bits
    # takes 2 words
    (["dprime", *_RF_PAIR, "--N", "1", "--radius", "64"], 148 * (9 + 65 * 3) + 2 * 2),
    (["empirical", "--set", "visible", "--N", "9", "--window", "3"], 10**2 * 9),
    (["prokhorov", *_RF_PAIR, "--N", "9", "--window", "2"], 10 * 2 * 2),
    (["transport", "--x", "visible", "--z", "prime-approx:1", "--N", "9", "--window", "2"],
     10**2 * 2 * 2**2),
    (["omega", "--set", "rf-sub:2", "--n-list", "8,16", "--window", "2"], (9 + 17) * 2),
    (["entropy", "--set", "visible", "--N", "9", "--sizes", "1,2"], 10**2 * (1 + 2**2)),
    # {0..2519} is a whole number of joint periods, so every pair passes
    (["nowy-check", "--pairs", "random:3", "--n", "2519", "--max-period", "10", "--k-max", "2"],
     3 * 2520),
    # the centered density ladder 100, 300, 1000, n-max windows F_N and the
    # 1-D entropy box {0..1994} read once per block side
    (["convergence", "--N", "40", "--n-max", "2", "--stages", "3", "--entropy-sizes", "1,2"],
     201**2 + 601**2 + 2001**2 + 2 * 81**2 + 1995 * (1 + 2)),
]


@pytest.mark.parametrize("argv, estimate", _BUDGET_JOBS, ids=[a[0] for a, _ in _BUDGET_JOBS])
def test_site_budget_is_checked_against_the_estimate(monkeypatch, capsys, argv, estimate):
    monkeypatch.setattr(cli, "SITE_BUDGET", estimate)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "SITE_BUDGET", estimate - 1)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        f"error: job would read about {estimate} sites, over the limit of {estimate - 1}\n"
    )


def test_lower_sum_jobs_are_charged_for_the_widened_window(monkeypatch, capsys):
    # {0..500}^2 widened by R = 12 has 525 rows of width 525 in 4-byte lanes,
    # 263 words a row: 11 shift-adds on each widened row and 13 two-word
    # terms on each of the 501 window rows, plus 18 a window site
    argv = ("dprime", "--x", "visible", "--z", "prime-approx:2", "--N", "500")
    estimate = 263 * (525 * 11 + 501 * 13 * 2) + 501**2 * 18
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and json.loads(out)["value"]["fraction"] == "2/25"
    monkeypatch.setattr(cli, "SITE_BUDGET", estimate - 1)
    assert run(capsys, *argv) == (
        1, "", f"error: job would read about {estimate} sites, over the limit of {estimate - 1}\n"
    )


def test_lower_sum_charge_follows_the_lanes_not_the_radius(capsys):
    # a 2-D radius whose lanes are narrow for its window runs in about 0.13 s
    code, out, err = run(capsys, "dprime", "--x", "visible", "--z", "prime-approx:2",
                         "--N", "1", "--radius", "231")
    assert (code, err) == (0, "") and json.loads(out)["saturated"] is False
    # the centered F_50 at that radius (4.5 s) and a 1-D radius of 1151,
    # whose 1153-bit lanes and 18-word coefficients took 1.4 s, are refused
    # by the first charge, at R + 1 bits, before the numerators are built
    for argv, estimate in (
        (("dprime", "--x", "visible", "--z", "prime-approx:2", "--kind", "centered",
          "--N", "50", "--radius", "231"), 252399699),
        (("dprime", *_RF_PAIR, "--N", "1", "--radius", "1151"), 908672494),
    ):
        assert run(capsys, *argv) == (
            1, "", f"error: job would read about {estimate} sites, over the limit of "
            f"{cli.SITE_BUDGET}\n"
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_the_first_lower_sum_charge_is_a_lower_bound(dim):
    # `_window_inputs` charges R + 1 bits before it builds the metric's
    # numerators; that charge must never pass the real one
    F = make_box_folner(dim)
    for R in range(0, 160, 7):
        mass_bits, coef_bits = default_ball_bits(dim, R)
        assert min(mass_bits, coef_bits) >= R + 1
        windows = [F.set_at(n) for n in (1, 9, 40)]
        assert lower_sum_work(windows, R, R + 1, R + 1) <= lower_sum_work(
            windows, R, mass_bits, coef_bits)


_CELL_JOBS = [
    # (argv, cells: the support sizes of its two measures multiplied)
    (["transport", "--x", "visible", "--z", "prime-approx:2", "--N", "9", "--window", "2"],
     11 * 10),
    (["prokhorov", "--x", "rf-sub:3", "--z", "rf-sub:4", "--N", "30", "--window", "3"], 7 * 7),
    # the chain's largest solve, on its 3x3 marginals
    (["rho-chain", "--x", "prime-approx:2", "--z", "prime-approx:3", "--k-max", "3"], 31 * 108),
    # every solve's patterns are among the 10 of the box at the largest index
    (["omega", "--set", "prime-approx:2", "--window", "2", "--n-list", "6,12"], 10 * 10),
]


@pytest.mark.parametrize("argv, cells", _CELL_JOBS, ids=[a[0] for a, _ in _CELL_JOBS])
def test_cell_budget_is_checked_against_the_support_sizes(monkeypatch, capsys, argv, cells):
    monkeypatch.setattr(cli, "CELL_BUDGET", cells)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "CELL_BUDGET", cells - 1)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: solve would have {cells} cells, over the limit of {cells - 1}\n"


def test_tempered_n_is_capped_by_its_cast(capsys, monkeypatch):
    # n = 400 takes 79,800 box unions, the largest job admitted; it is not run
    params = next(params for name, _, _, params in cli.COMMANDS if name == "tempered")
    cast = next(p.cast for p in params if p.key == "n")
    assert cli.TEMPERED_N_MAX == 400 and cast("400") == 400
    with pytest.raises(ValueError, match=r"^must be <= 400, got 401$"):
        cast("401")

    def no_ratio(*args):
        raise AssertionError("the job computed a ratio")

    monkeypatch.setattr(cli, "temperedness_ratio", no_ratio)
    assert run(capsys, "tempered", "--n", "401") == (1, "", "error: n: must be <= 400, got 401\n")


@pytest.mark.parametrize("symbol", ["5", "-1"])
def test_density_refuses_a_symbol_outside_the_alphabet_before_reading(
    monkeypatch, capsys, symbol
):
    def no_read(*args):
        raise AssertionError("the job read sites")

    monkeypatch.setattr(cli, "upper_density", no_read)
    code, out, err = run(capsys, "density", "--set", "visible", "--symbol", symbol)
    assert code == 1 and out == ""
    assert err == f"error: symbol {symbol} outside alphabet of size 2\n"


@pytest.mark.parametrize("argv", [
    ["transport", "--x", "visible", "--z", "rf-sub:1", "--N", "3"],
    ["prokhorov", "--x", "visible", "--z", "rf-sub:1", "--N", "3"],
    ["transport", "--x", "visible", "--z", "rf-sub:2", "--N", "5"],
], ids=["transport-constant", "prokhorov-constant", "transport"])
def test_examples_of_different_dimensions_are_refused(capsys, argv):
    # rf-sub:1 is a constant rule, which answers a point of any length
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: configurations of dimension 1 read on windows of dimension 2\n"


def test_dbar_of_different_dimensions_is_refused_by_the_shared_check(capsys):
    code, out, err = run(capsys, "dbar", "--x", "visible", "--z", "rf-sub:1")
    assert code == 1 and out == ""
    assert err == "error: configurations of dimension 1/2 read on windows of dimension 2\n"


def test_oversized_solve_is_refused_before_solving(capsys):
    # 3x3 patterns: 233 of visible against 211 of prime-approx:5
    code, out, err = run(capsys, "transport", "--x", "visible", "--z", "prime-approx:5",
                         "--N", "100", "--window", "3")
    assert code == 1 and out == ""
    assert err == f"error: solve would have 49163 cells, over the limit of {cli.CELL_BUDGET}\n"


@pytest.mark.parametrize("n", ["0", "1"])
def test_tempered_refuses_fewer_than_two_windows(capsys, n):
    code, out, err = run(capsys, "tempered", "--n", n)
    assert code == 1 and out == ""
    assert err == f"error: n: must be >= 2, got {n}\n"


@pytest.mark.parametrize("c", ["1", "0", "1/2", "-3"])
def test_tempered_refuses_a_constant_that_cannot_pass(capsys, c):
    """Every temperedness ratio exceeds 1: `--c` is cast as the library
    reads a tempering constant, and refused before any ratio is taken."""
    code, out, err = run(capsys, "tempered", "--c", c)
    assert code == 1 and out == ""
    assert err == f"error: c: tempering constant must exceed 1, got {c}\n"


# --- refusal sweep ------------------------------------------------------------
# Every parameter of every command is either sized, so that values which
# must be refused are fed to it below, or has no size to refuse; a new
# parameter must be put in one of the two.
_HUGE = ("10000000000", "100000000000000000000")
_REFUSED = {
    **{key: _HUGE for key in ("N", "n-list", "n", "window", "symbol", "trials",
                              "k-max", "max-period", "support", "n-max", "stages")},
    # radii whose 1-D jobs the site count alone would admit, though each
    # lane of their lower sums spans R/64 words
    "radius": ("2000", "4998", *_HUGE),
    **{key: ("0", "-3000", "3000,-3000", _HUGE[0]) for key in ("sizes", "entropy-sizes")},
    "pairs": tuple(f"random:{v}" for v in _HUGE),
    "group": tuple(f"z:{v}" for v in _HUGE),
    # every temperedness ratio exceeds 1, so no such constant can pass
    "c": ("1", "0", "1/2"),
}
_UNSIZED = {"x", "z", "set", "kind", "cost", "seed", "merge-tol", "name"}
# the examples a command reads: 2-D ones, then 1-D ones, whose boxes reach
# 10^20 sites in one dimension
_EXAMPLES = ({"x": "visible", "z": "prime-approx:2", "set": "visible"},
             {"x": "rf-sub:1", "z": "rf-sub:2", "set": "rf-sub:2"})


# refusals the swept values do not reach: a million pairs at n = 1, which
# the site budget alone would admit, and a pair whose joint period the
# oracle cannot enumerate, at the longest chain
_REFUSED_ARGVS = (
    ("nowy-check", "--pairs", "random:1000000", "--n", "1"),
    ("rho-chain", "--x", "rf-sub:5", "--z", "rf-sub:6", "--k-max", "16"),
)


def _refusal_cases():
    cases = {" ".join(argv): argv for argv in _REFUSED_ARGVS}
    for name, _, _, params in cli.COMMANDS:
        for examples in _EXAMPLES:
            base = [name]
            for p in params:
                if p.key in examples and p.default is cli.REQUIRED:
                    base += [f"--{p.key}", examples[p.key]]
            for p in params:
                for value in _REFUSED.get(p.key, ()):
                    argv = (*base, f"--{p.key}", value)
                    cases[" ".join(argv)] = argv
    return list(cases.values())


def test_every_parameter_is_swept_or_has_no_size():
    keys = {p.key for _, _, _, params in cli.COMMANDS for p in params}
    assert keys == _REFUSED.keys() | _UNSIZED


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran("still running after 2 s")


@pytest.mark.parametrize("argv", _refusal_cases(), ids=" ".join)
def test_oversized_and_senseless_values_are_refused_at_once(capsys, argv):
    old = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert elapsed < 0.5


def test_a_box_past_sys_maxsize_is_charged_by_its_size(capsys):
    # 10^10 + 1 sites a side: len() of the box would raise OverflowError
    code, out, err = run(capsys, "density", "--set", "visible", "--n-list", "10000000000")
    assert code == 1 and out == ""
    assert err == (f"error: job would read about {(10**10 + 1) ** 2} sites, "
                   f"over the limit of {cli.SITE_BUDGET}\n")


def _parsers(parser):
    """The top parser, then every subparser in the listing's order."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [parser, *sub.choices.values()]


def _with_plain_formatters(parser):
    """The parser with argparse's default formatter, which probes the
    terminal each time it is made, on the top parser and every subparser."""
    for p in _parsers(parser):
        p.formatter_class = argparse.HelpFormatter
    return parser


def test_a_parser_build_probes_the_terminal_once(monkeypatch):
    calls = []
    probe = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli._build_parser(["density"])
    assert len(calls) == 1


_NAMES = [name for name, *_ in cli.COMMANDS]


@pytest.mark.parametrize("columns", ["50", "150"])
def test_help_and_usage_match_the_default_formatter(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    # the top parser, then each subcommand in a build whose argv names it
    for i, argv in enumerate([[], *([name] for name in _NAMES)]):
        built = _parsers(cli._build_parser(argv))
        plain = _parsers(_with_plain_formatters(cli._build_parser(argv)))
        assert len(built) == len(cli.COMMANDS) + 1
        assert built[i].format_help() == plain[i].format_help()
        assert built[i].format_usage() == plain[i].format_usage()


@pytest.mark.parametrize("columns", ["50", "150"])
@pytest.mark.parametrize("argv, message", [
    # the top parser's usage, then the density subparser's
    (["density", "--bogus", "1"], "shiftlab: error: unrecognized arguments: --bogus 1\n"),
    (["density", "--N"], "shiftlab density: error: argument --N: expected one argument\n"),
], ids=["bogus", "missing-value"])
def test_usage_error_matches_the_default_formatter(monkeypatch, capsys, columns, argv, message):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.endswith(message)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: _with_plain_formatters(build(argv)))
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("columns", ["50", "150"])
def test_help_and_usage_match_the_eager_parser(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    eager = _parsers(eager_parser())
    assert [p.prog for p in _parsers(cli._build_parser([]))] == [p.prog for p in eager]
    # the top parser, then each subcommand in a build whose argv names it
    for i, argv in enumerate([[], *([name] for name in _NAMES)]):
        ours = _parsers(cli._build_parser(argv))[i]
        assert ours.format_help() == eager[i].format_help()
        assert ours.format_usage() == eager[i].format_usage()


@pytest.mark.parametrize("columns", ["50", "150"])
@pytest.mark.parametrize("argv", [
    ["-h"], ["--version"], ["bogus"], ["density", "-h"], ["density", "--set", "visible", "-h"],
    ["density", "--bogus", "1"], ["density", "--N"], ["density"],
    ["--", "density", "--set", "visible", "--N", "10"],
], ids=" ".join)
def test_main_matches_the_eager_parser(monkeypatch, capsys, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    ours = run(capsys, *argv)
    monkeypatch.setattr(cli, "_build_parser", lambda argv: eager_parser())
    assert run(capsys, *argv) == ours


def _flags(parser) -> list[str]:
    return [s for a in parser._actions for s in a.option_strings]


@pytest.mark.parametrize("argv, named", [
    ([], None), (["--version"], None), (["bogus"], None),
    (["density", "--set", "visible"], "density"),
    (["--", "density", "--set", "dbar"], "density"),
    (["-h", "tempered", "density"], "tempered"),
], ids=["empty", "version", "bogus", "density", "after-dashes", "help-first"])
def test_a_build_adds_flags_to_the_subcommand_argv_names_alone(argv, named):
    eager = dict(zip(_NAMES, _parsers(eager_parser())[1:]))
    subs = dict(zip(_NAMES, _parsers(cli._build_parser(argv))[1:]))
    for name, p in subs.items():
        want = _flags(eager[name]) if name == named else ["-h", "--help"]
        assert _flags(p) == want, name


def test_help_and_version_exit_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    code, out, _ = run(capsys, "--version")
    assert code == 0 and "0.1.0" in out


def test_readme_names_only_declared_flags():
    # every `COMMAND --flag ...` span outside the fenced examples names a
    # subcommand and flags it declares, or the shared --config and --out
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flags = {name: {f"--{p.key}" for p in params} | {"--config", "--out"}
             for name, _, _, params in cli.COMMANDS}
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    spans = [s.split() for s in re.findall(r"`([^`]+)`", prose)]
    checked = [w for w in spans if len(w) > 1 and w[1].startswith("--")]
    assert checked
    for words in checked:
        assert words[0] in flags, " ".join(words)
        unknown = [w for w in words if w.startswith("--") and w not in flags[words[0]]]
        assert not unknown, " ".join(words)


def test_console_script_is_installed():
    exe = shutil.which("shiftlab")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0 and "0.1.0" in proc.stdout


def test_module_runs_from_a_plain_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "shiftlab 0.1.0"
