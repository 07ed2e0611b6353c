import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from qgrass import aep, cli, gf, qcomb, qdist

CLI = [sys.executable, "-m", "qgrass.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run(*args, inp=None, env_extra=None):
    env = dict(os.environ)
    env.pop("QGRASS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    # a hang fails the test instead of blocking the suite
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=inp, env=env, timeout=120
    )


def test_qcoeff_binomial_and_multinomial():
    r = run("qcoeff", "4", "2", "--q", "2")
    assert r.returncode == 0 and r.stdout.strip() == "35"
    r = run("qcoeff", "5", "0", "--q", "3")
    assert r.stdout.strip() == "1"
    r = run("qcoeff", "3", "1", "1", "1", "--q", "2")
    assert r.stdout.strip() == "21"


def test_qcoeff_past_the_int_text_limit(capsys):
    # 4,336 digits: more than str() writes under CPython's default limit
    assert cli.main(["qcoeff", "--q", "2", "240", "120"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out) == 4337 and out.endswith("\n")
    assert gf.from_text(out[:-1], 10) == qcomb.q_binomial(240, 120, 2)
    for x in (0, 7, 10**640 - 1, 10**640, 10**641 + 5, 10**1280, 3**4000):
        assert cli._decimal(x) == str(x)


def test_typical_size_past_the_int_text_limit(capsys):
    argv = ["typical", "--n", "300", "--epsilon", "0.1", "--theta", "1e-40", "--q", "2"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    size = json.loads(out)["exact_size"]
    assert err == "" and len(size) > 4300
    assert gf.from_text(size, 10) == aep.typical_set(300, 0.1, 1e-40, 2).exact_size


def test_qcoeff_domain_error_json(capsys):
    r = run("qcoeff", "4", "9", "--q", "2")
    assert r.returncode == 1
    err = json.loads(r.stderr)
    assert err["error"] == "domain" and err["detail"]
    r = run("qcoeff", "4", "2", "--q", "1")
    assert r.returncode == 1 and json.loads(r.stderr)["error"] == "domain"
    # a negative n is named as such, not as a k that exceeds it
    assert cli.main(["qcoeff", "--q", "2", "-5", "0"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "domain", "detail": "n must be a nonnegative integer, got -5"}


def test_simulate_deterministic_and_zero():
    r = run("simulate", "--n", "0", "--theta", "1", "--q", "2")
    rec = json.loads(r.stdout)
    assert rec["final"]["n"] == 0 and rec["final"]["dim"] == 0
    a = run("simulate", "--n", "6", "--theta", "1", "--q", "2", "--samples", "5", "--seed", "11")
    b = run("simulate", "--n", "6", "--theta", "1", "--q", "2", "--samples", "5", "--seed", "11")
    assert a.stdout == b.stdout and a.stdout.count("\n") == 5


def test_simulate_keep_history():
    r = run("simulate", "--n", "4", "--theta", "1", "--q", "2",
            "--keep-history", "--seed", "2")
    rec = json.loads(r.stdout)
    assert len(rec["history"]) == 5
    assert rec["history"][0] == {"n": 0, "dim": 0, "basis": ""}
    assert rec["history"][-1]["basis"] == rec["final"]["basis"]


def test_simulate_seed_env_override():
    a = run("simulate", "--n", "5", "--theta", "1", "--q", "2", env_extra={"QGRASS_SEED": "77"})
    b = run("simulate", "--n", "5", "--theta", "1", "--q", "2", "--seed", "77")
    assert a.stdout == b.stdout


# SHA-256 of simulate's stdout over the grid below, recorded while each
# Subspace still held entry tuples and every growth step drew its dilation.
SIMULATE_GRID_SHA256 = "fffed3ad94e49d0665e836bbbc1e5176317c0a7c2c7fd47ea7ff0cb778c2f2c9"


def test_simulate_stdout_over_a_grid_is_pinned(capsys):
    # prime, characteristic-2 and odd extension fields, every codimension
    # regime from codim 0 to codim > dim, with and without the history
    digest = hashlib.sha256()
    for n in (0, 1, 6, 24, 64):
        for q in (2, 3, 4, 8, 9, 16, 25, 27):
            for theta in ("0", repr(2**-40), "1/256", "1", "1e6"):
                for seed in (0, 7):
                    for history in ([], ["--keep-history"]):
                        argv = ["simulate", "--n", str(n), "--q", str(q), "--theta", theta,
                                "--seed", str(seed), "--samples", "2", *history]
                        assert cli.main(argv) == 0
                        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SIMULATE_GRID_SHA256


# SHA-256 of simulate's stdout over the prime orders 5..31, which the grid
# above leaves out, recorded while every coordinate at q > 2 was drawn by
# its own randrange(q) call.
SIMULATE_PRIME_GRID_SHA256 = "6c67f3f1a883d7d4968b768e3df988aa1cd1e934d0c877a5617110b6fd170710"


def test_simulate_stdout_over_prime_orders_is_pinned(capsys):
    # the bulk draw's tables at k = q.bit_length() = 3, 4 and 5
    digest = hashlib.sha256()
    for n in (1, 24, 64):
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            for theta in (repr(2**-40), "1", "1e6"):
                for seed in (0, 7):
                    for history in ([], ["--keep-history"]):
                        argv = ["simulate", "--n", str(n), "--q", str(q), "--theta", theta,
                                "--seed", str(seed), "--samples", "2", *history]
                        assert cli.main(argv) == 0
                        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SIMULATE_PRIME_GRID_SHA256


def test_simulate_histogram_tv():
    r = run(
        "simulate", "--n", "5", "--theta", "1", "--q", "2",
        "--samples", "4000", "--histogram", "--seed", "3",
    )
    payload = json.loads(r.stdout)
    assert payload["schema"] == "qgrass/1"
    assert sum(payload["dim_counts"]) == 4000
    assert payload["tv"] < 0.05


def test_simulate_histogram_at_overflowing_theta(capsys):
    # theta q^i is inf past step 1: every chain grows at every step
    assert cli.main(["simulate", "--n", "5", "--theta", "1e308", "--q", "2",
                     "--samples", "20", "--histogram"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_counts"] == [0] * 5 + [20]
    assert payload["tv"] < 1e-300


def test_typical_and_aep_check_past_the_double_range(capsys):
    # q^n overflows a double at n = 1100, q = 2; the log law does not
    argv = ["--n", "1100", "--epsilon", "0.1", "--theta", "1.5", "--q", "2"]
    assert cli.main(["typical"] + argv) == 0
    ts = json.loads(capsys.readouterr().out)
    assert ts["delta_codim"] == ts["limit_delta"] == 2
    assert int(ts["exact_size"]) == sum(qcomb.q_binomial(1100, 1100 - d, 2) for d in range(3))
    assert cli.main(["aep-check"] + argv + ["--delta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a_n"] == 2 and report["pass"]
    for gap, g in zip(report["gaps"], report["g_over_n"]):
        assert abs(gap - g) < 1e-12


def test_rational_theta_past_the_double_range(capsys):
    # theta = 1 is rational: the exact class masses are walked in integers
    argv = ["--n", "1100", "--epsilon", "0.1", "--theta", "1", "--q", "2"]
    assert cli.main(["typical"] + argv) == 0
    ts = json.loads(capsys.readouterr().out)
    assert ts["delta_codim"] == ts["limit_delta"] == 2
    assert int(ts["exact_size"]) == sum(qcomb.q_binomial(1100, 1100 - d, 2) for d in range(3))
    assert cli.main(["aep-check"] + argv + ["--delta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a_n"] == 2 and report["pass"] and len(report["gaps"]) == 3
    # a codimension-2 codeword round-trips through its 1098 x 1100 basis
    assert cli.main(["code-encode"] + argv + ["--subspace", "1" + "0" * 1099]) == 0
    length = json.loads(capsys.readouterr().out)["codeword_len"]
    index = 1 + qcomb.q_binomial(1100, 1, 2) + 12345  # past codimensions 0 and 1
    word = format(index, f"0{length}b")
    assert cli.main(["code-decode"] + argv + ["--word", word]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["dim"] == 1098
    assert cli.main(["code-encode"] + argv + ["--subspace", decoded["subspace"]]) == 0
    encoded = json.loads(capsys.readouterr().out)
    assert encoded["word"] == word and encoded["typical"]


def test_growth_at_large_n(capsys):
    assert cli.main(["growth", "--q", "2", "--n-list", "1000"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    # the value that summing q_binomial(1000, k, 2) over k gives
    assert rows == [{"n": 1000, "value": 0.5000057640999308}]


def test_mle_cli_below_the_bisection_reach(tmp_path, capsys):
    # one sample 1 at n = 300: theta_hat ~ 2^-300 is found on log theta
    path = tmp_path / "samples.txt"
    path.write_text("1\n")
    assert cli.main(["mle", "--n", "300", "--q", "2", "--samples-file", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_residual"] < 1e-12 and 0 < payload["theta_hat"] < 2.0**-200
    # at n = 2000 it is ~2^-2000, below every double
    assert cli.main(["mle", "--n", "2000", "--q", "2", "--samples-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "domain"
    assert "below the double range" in json.loads(err)["detail"]


def test_simulate_basis_guard():
    r = run("simulate", "--n", "80", "--theta", "1", "--q", "2")
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"] == "basis_print_guard"


def test_mu_table_sums_to_one():
    r = run("mu-table", "--q", "2", "--theta", "1")
    payload = json.loads(r.stdout)
    assert abs(sum(payload["mu"]) - 1.0) < 1e-9
    assert payload["tail"] < 1e-12
    r = run("mu-table", "--q", "2", "--theta", "0.5", "--format", "csv")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "d,mu"
    assert len(lines) > 3


def test_typical_and_aep_check():
    r = run("typical", "--n", "20", "--epsilon", "0.1", "--theta", "1", "--q", "2")
    payload = json.loads(r.stdout)
    assert payload["delta_codim"] == 2
    assert payload["exact_size"].isdigit()
    r = run("aep-check", "--n", "20", "--epsilon", "0.1", "--delta", "0.5",
            "--theta", "1", "--q", "2")
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["a_n"] == 2


def test_typical_reads_a_small_epsilon_as_its_decimal(capsys):
    # --epsilon 4e-13 asks for need 1 - 4/10^13 exactly, met by class 9
    argv = ["typical", "--n", "200", "--epsilon", "4e-13", "--theta", "1", "--q", "2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["delta_codim"] == 9


def test_aep_check_n_zero_is_domain_error():
    r = run("aep-check", "--n", "0", "--epsilon", "0.1", "--delta", "0.5",
            "--theta", "1", "--q", "2")
    assert r.returncode == 1 and r.stdout == ""
    assert json.loads(r.stderr) == {"error": "domain", "detail": "n must be >= 1"}


def test_aep_check_bad_delta_is_domain_error(capsys):
    argv = ["aep-check", "--n", "20", "--epsilon", "0.1", "--theta", "1", "--q", "2"]
    for bad in ("nan", "-1"):
        assert cli.main(argv + ["--delta", bad]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "domain"
        assert json.loads(err)["detail"].startswith("delta_tol must be >= 0")


def test_code_round_trip():
    enc = run(
        "code-encode", "--n", "4", "--epsilon", "0.2", "--theta", "1",
        "--q", "2", "--subspace", "1100;0010",
    )
    word = json.loads(enc.stdout)["word"]
    dec = run(
        "code-decode", "--n", "4", "--epsilon", "0.2", "--theta", "1",
        "--q", "2", "--word", word,
    )
    assert json.loads(dec.stdout)["subspace"] == "1100;0010"


def test_code_encode_rejects_garbage():
    r = run(
        "code-encode", "--n", "4", "--epsilon", "0.2", "--theta", "1",
        "--q", "2", "--subspace", "11;00",
    )
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"] == "bad_subspace"


def test_mle_stdin():
    r = run("mle", "--n", "8", "--q", "2", inp="3\n4\n5\n4\n")
    payload = json.loads(r.stdout)
    assert payload["m_residual"] < 1e-12
    assert payload["samples"] == 4
    r = run("mle", "--n", "8", "--q", "2", inp="8\n8\n")
    assert json.loads(r.stdout)["theta_hat"] == "infinite"
    r = run("mle", "--n", "8", "--q", "2", inp="")
    assert r.returncode == 1


def test_mle_samples_file(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("3\n4\n5\n4\n")
    r = run("mle", "--n", "8", "--q", "2", "--samples-file", str(path))
    via_stdin = run("mle", "--n", "8", "--q", "2", inp="3\n4\n5\n4\n")
    assert r.stdout == via_stdin.stdout
    # blank lines, tabs and spaces separate samples like newlines do
    path.write_text("\n3\t4\n\n  5 \r\n\t4\n\n")
    assert cli.main(["mle", "--n", "8", "--q", "2", "--samples-file", str(path)]) == 0
    assert capsys.readouterr().out == r.stdout
    # the first bad token is the one reported
    path.write_text("3\n\n4x\t5\ny\n")
    assert cli.main(["mle", "--n", "8", "--q", "2", "--samples-file", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "bad_samples", "detail": "invalid literal for int() with base 10: '4x'"
    }


def test_mle_past_the_double_range(tmp_path, capsys):
    # q^i has no float past i = 1023 at q = 2; the chain factor goes on in
    # the log domain.  The sample mean keeps the MLE inside the doubles.
    path = tmp_path / "samples.txt"
    path.write_text("1995\n")
    assert cli.main(["mle", "--n", "2000", "--q", "2", "--samples-file", str(path)]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["samples"] == 1
    assert 0 < payload["theta_hat"] < 1 and payload["m_residual"] < 1e-12


@pytest.mark.parametrize("flags, detail", [
    (["--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["--tol", "-1"], "tol must be finite and >= 0, got -1.0"),
    (["--n", "-3"], "n must be a nonnegative integer, got -3"),
])
def test_mle_refuses_a_bad_tol_or_n(flags, detail, tmp_path, capsys):
    # an infinite tol returned the first midpoint, a NaN or negative one ran
    # every halving, and a negative n blamed the first sample
    path = tmp_path / "samples.txt"
    path.write_text("3\n4\n5\n4\n")
    argv = ["mle", "--n", "8", "--q", "2", "--samples-file", str(path), *flags]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "domain", "detail": detail}


def test_mle_tol_zero_runs_to_the_end(tmp_path, capsys):
    # tol 0 asks for no early return; the estimate is still the root
    path = tmp_path / "samples.txt"
    path.write_text("3\n4\n5\n4\n")
    assert cli.main(["mle", "--n", "8", "--q", "2", "--samples-file", str(path),
                     "--tol", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_residual"] < 1e-14 and payload["samples"] == 4


def test_histogram_past_the_double_range(capsys):
    argv = ["simulate", "--n", "1100", "--theta", "1", "--q", "2", "--histogram",
            "--samples", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and len(payload["dim_counts"]) == 1101
    assert sum(payload["dim_counts"]) == 3
    assert abs(sum(payload["exact_dim_pmf"]) - 1) < 1e-9
    assert 0 <= payload["tv"] <= 1


def test_maxent_subcommand():
    r = run("maxent", "--energies", "0,1,2", "--mean", "0.5")
    payload = json.loads(r.stdout)
    assert abs(payload["probs"][0] - 7 / 12) < 1e-10
    r = run("maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "12", "--q", "2")
    payload = json.loads(r.stdout)
    assert payload["finite_n"]["nominal_is_optimal"]
    r = run("maxent", "--energies", "0,1", "--mean", "5")
    assert r.returncode == 1
    # a mean at the top of two levels a hair apart: valid output, not a traceback
    r = run("maxent", "--energies", "2,2.0007156159253063", "--mean", "2.0007156159253063")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["probs"] == [0.0, 1.0]
    # energies whose squares overflow a double: solved in rationals
    r = run("maxent", "--energies", "1e200,0", "--mean", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["probs"] == [1e-200, 1.0]
    # ten levels: the neighbourhood walk visits the L1 ball, not the 13^10 box
    r = run("maxent", "--energies", "0,1,2,3,4,5,6,7,8,9", "--mean", "2.5",
            "--finite-n", "60", "--q", "2")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)["finite_n"]
    assert sum(report["nominal"]) == 60
    assert all(sum(k) == 60 for k in report["argmax"])


def test_asymptotics_and_growth():
    r = run("asymptotics", "--probs", "0.5,0.5", "--n-list", "16,64", "--q", "2")
    rows = json.loads(r.stdout)["rows"]
    assert abs(rows[-1]["rate"] - 0.5) < 0.05
    r = run("asymptotics", "--probs", "0.5,0.5", "--n-list", "64")
    rows = json.loads(r.stdout)["rows"]
    assert abs(rows[0]["target"] - 0.6931) < 1e-3
    r = run("growth", "--q", "2", "--n-list", "1,40", "--format", "csv")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,value"
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.5, abs=0.1)


GOLDEN_CASES = {
    "qcoeff": (["qcoeff", "4", "2", "--q", "2"], None),
    "simulate": (
        ["simulate", "--n", "5", "--theta", "1", "--q", "2", "--samples", "2", "--seed", "4"],
        None,
    ),
    "mu-table": (["mu-table", "--q", "2", "--theta", "1"], None),
    "typical": (["typical", "--n", "12", "--epsilon", "0.1", "--theta", "1", "--q", "2"], None),
    "aep-check": (
        ["aep-check", "--n", "12", "--epsilon", "0.1", "--delta", "0.5", "--theta", "1", "--q", "2"],
        None,
    ),
    "code-encode": (
        ["code-encode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "2",
         "--subspace", "1100;0010"],
        None,
    ),
    "code-decode": (
        ["code-decode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "2",
         "--word", "001010"],
        None,
    ),
    "mle": (["mle", "--n", "8", "--q", "2"], "3\n4\n5\n4\n"),
    "maxent": (
        ["maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "12", "--q", "2"],
        None,
    ),
    "asymptotics": (["asymptotics", "--probs", "0.5,0.5", "--n-list", "8,16", "--q", "2"], None),
    "growth": (["growth", "--q", "2", "--n-list", "1,10,20", "--format", "csv"], None),
    "simulate-histogram": (
        ["simulate", "--n", "8", "--theta", "0.5", "--q", "3", "--samples", "400",
         "--histogram", "--seed", "9", "--format", "csv"],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    args, inp = GOLDEN_CASES[name]
    r = run(*args, inp=inp)
    assert r.returncode == 0
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        assert r.stdout == fh.read()


def test_every_golden_file_has_a_case():
    assert sorted(os.listdir(GOLDEN)) == sorted(f"{name}.txt" for name in GOLDEN_CASES)


def test_out_file_written_whole(tmp_path):
    out = tmp_path / "res.json"
    r = run("growth", "--q", "2", "--n-list", "4,8", "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["rows"]
    # failing run must not create the file
    out2 = tmp_path / "nope.json"
    r = run("qcoeff", "4", "9", "--q", "2", "--out", str(out2))
    assert r.returncode == 1 and not out2.exists()


# Bad inputs and the error code each must end in.  "{tmp}" is a fresh
# directory holding an empty directory "dir" and the file "{samples}" with
# the one sample "1"; a failing run must leave nothing else in it.
BAD_INPUTS = [
    (["mu-table", "--q", "2", "--theta", "inf"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "1e400"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "1/0"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "nan"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "abc"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "-1"], "bad_theta"),
    (["simulate", "--n", "3", "--theta", "-1", "--q", "2"], "bad_theta"),
    (["mu-table", "--q", "2", "--theta", "1e-320"], "domain"),
    (["mu-table", "--q", "1", "--theta", "1"], "domain"),
    (["typical", "--n", "8", "--epsilon", "0.1", "--theta", "1", "--q", "1"], "domain"),
    (["aep-check", "--n", "8", "--epsilon", "0.1", "--delta", "0.5", "--theta", "1",
      "--q", "1"], "domain"),
    (["mle", "--n", "8", "--q", "2", "--samples-file", "{tmp}/missing.txt"], "io"),
    (["maxent", "--energies", "inf,0", "--mean", "0.5"], "domain"),
    (["maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "0"], "domain"),
    (["maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "-2"], "domain"),
    (["asymptotics", "--probs", "nan,0.5", "--n-list", "4"], "domain"),
    (["asymptotics", "--probs", "0.5,0.5", "--n-list", "0"], "domain"),
    (["asymptotics", "--probs", "0.5,0.5", "--n-list", "0", "--q", "2"], "domain"),
    (["growth", "--q", "2", "--n-list", "4", "--out", "{tmp}/missing/res.json"], "io"),
    (["growth", "--q", "2", "--n-list", "4", "--out", "{tmp}/dir"], "io"),
    (["simulate", "--n", "4", "--theta", "1", "--q", "6", "--histogram"], "domain"),
    (["simulate", "--n", "3", "--q", "2"], "usage"),
    (["growth", "--q", "2", "--n-list", "4", "--format", "xml"], "usage"),
    (["code-encode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "2",
      "--subspace", "1#00;0010"], "bad_subspace"),
    (["code-decode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "4",
      "--word", "0#"], "bad_word"),
    (["simulate", "--n", "2", "--theta", "1", "--q", "37"], "domain"),
    (["qcoeff", "--q", "2", "-5", "0"], "domain"),
] + [
    (["typical", "--n", "8", "--epsilon", eps, "--theta", "1", "--q", "2"], code)
    for eps, code in (("1/0", "usage"), ("abc", "usage"), ("nan", "domain"),
                      ("inf", "domain"), ("0", "domain"), ("1", "domain"))
]


@pytest.mark.parametrize("argv,code", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_is_one_json_error(argv, code, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n")
    argv = [a.format(tmp=tmp_path, samples=samples) for a in argv]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"error", "detail"} and error["error"] == code and error["detail"]
    assert sorted(os.listdir(tmp_path)) == ["dir", "samples.txt"]
    assert os.listdir(tmp_path / "dir") == []


def test_entry_point_usage_error_is_json():
    r = run("growth", "--q", "2", "--n-list", "4", "--format", "xml")
    assert r.returncode == 1 and r.stdout == "" and "Traceback" not in r.stderr
    assert json.loads(r.stderr)["error"] == "usage"


# Calls of cli.main in one process share one parser; a flag or an error of
# one call must not reach the next.
IN_PROCESS_SEQUENCE = [
    ["simulate", "--n", "4", "--theta", "1", "--q", "2", "--keep-history", "--seed", "2"],
    ["simulate", "--n", "4", "--theta", "1", "--q", "2", "--seed", "2"],
    GOLDEN_CASES["maxent"][0],
    ["maxent", "--energies", "0,1,2", "--mean", "0.5"],
    ["simulate", "--n", "3", "--q", "2"],
    GOLDEN_CASES["simulate"][0],
]


def test_repeated_main_matches_entry_point(capsys):
    for argv in IN_PROCESS_SEQUENCE:
        rc = cli.main(list(argv))
        out, err = capsys.readouterr()
        ref = run(*argv)
        assert (rc, out, err) == (ref.returncode, ref.stdout, ref.stderr), argv
    with open(os.path.join(GOLDEN, "simulate.txt")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("q", ["37", "251"])
def test_simulate_refuses_text_base_before_running(q, monkeypatch, capsys):
    def no_trajectory(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(cli.grassproc, "simulate", no_trajectory)
    assert cli.main(["simulate", "--n", "2", "--theta", "1", "--q", q, "--samples", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "domain", "detail": "text format supports base <= 36"}


@pytest.mark.parametrize("argv,error", [
    (["typical", "--n", "1024", "--epsilon", "1e-15", "--theta", "0/1", "--q", "256"],
     {"error": "domain", "detail": "mu is undefined at theta = 0 (degenerate process)"}),
    (["aep-check", "--n", "1023", "--epsilon", "0.5", "--delta", "1", "--theta", "0", "--q", "3"],
     {"error": "domain", "detail": "mu is undefined at theta = 0 (degenerate process)"}),
    (["code-encode", "--n", "1023", "--epsilon", "0.5", "--theta", "0", "--q", "3",
      "--subspace", "12;01"],
     {"error": "bad_subspace", "detail": "row '12' must have 1023 digits for n=1023"}),
    (["code-decode", "--n", "1023", "--epsilon", "0.5", "--theta", "0", "--q", "3",
      "--word", "#"],
     {"error": "bad_word", "detail": "digit '#' out of range for base 3"}),
])
def test_refusals_come_before_the_exact_work(argv, error, monkeypatch, capsys):
    def exact_work(*args, **kwargs):
        raise AssertionError("the exact work ran")

    monkeypatch.setattr(aep, "_class_mass_stop", exact_work)
    monkeypatch.setattr(aep, "make_block_code", exact_work)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == error


class FakeCpus:
    """Runs of the CLI in this process as if it could run on `count` CPUs:
    os.sched_getaffinity reports range(count), os.sched_setaffinity records
    its calls instead of making them, and os.fork counts its calls."""

    def __init__(self, monkeypatch):
        self.count, self.forks, self.pins = 1, 0, []
        fork = os.fork

        def counted_fork():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(self.count)))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: self.pins.append(
            (pid, set(cpus))))
        monkeypatch.setattr(os, "fork", counted_fork)

    def main(self, argv, count, capsys):
        """(exit code, stdout, stderr) of cli.main(argv) on count CPUs; no
        child is left after it."""
        self.count = count
        rc = cli.main(list(argv))
        out, err = capsys.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return rc, out, err


@pytest.fixture
def cpus(monkeypatch):
    return FakeCpus(monkeypatch)


HISTOGRAM_ARGV, _ = GOLDEN_CASES["simulate-histogram"]


def _golden(name):
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        return fh.read()


@pytest.mark.parametrize("count, forks", [(1, 0), (2, 1), (3, 2), (5, 2)])
def test_golden_histogram_on_any_cpu_count(count, forks, cpus, capsys):
    # 400 samples of n = 8 are 3,200 steps: at most 3 blocks of >= 1024,
    # here of 200 + 200 or 133 + 133 + 134 samples
    assert cpus.main(HISTOGRAM_ARGV, count, capsys) == (0, _golden("simulate-histogram"), "")
    assert cpus.forks == forks
    if forks:
        assert cpus.pins == [(pid, {j}) for j, (pid, _) in enumerate(cpus.pins[:forks], 1)] + [
            (0, {0}), (0, set(range(count)))]


@pytest.mark.parametrize("q", [2, 3, 16])
@pytest.mark.parametrize("theta", ["0", "1", "0.5", "1e300"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_histogram_split_matches_one_block(q, theta, fmt, cpus, capsys):
    argv = ["simulate", "--n", "8", "--theta", theta, "--q", str(q), "--samples", "400",
            "--histogram", "--seed", "5", "--format", fmt]
    one = cpus.main(argv, 1, capsys)
    assert cpus.forks == 0 and one[0] == 0
    assert cpus.main(argv, 3, capsys) == one
    assert cpus.forks == 2
    chain = qdist.bernoulli_chain(qdist.QBinomialParams(8, float(theta), q))
    counts = cli._dim_counts(chain, 5, 0, 400)
    if fmt == "json":
        assert json.loads(one[1])["dim_counts"] == counts
    else:
        assert [int(line.split(",")[1]) for line in one[1].splitlines()[1:]] == counts


def test_histogram_with_fewer_samples_than_cpus(cpus):
    # 3 samples of n = 1024 on 8 CPUs: one sample per block
    cpus.count = 8
    chain = qdist.bernoulli_chain(qdist.QBinomialParams(1024, 1.0, 2))
    assert cli._histogram_counts(chain, 4, 3) == cli._dim_counts(chain, 4, 0, 3)
    assert cpus.forks == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_histogram_reads_counts_past_the_pipe_buffer(cpus, monkeypatch):
    # 100,001 counts fill a slot of ~800 kB of the shared mapping, all of
    # which the child writes and the parent reads back
    def one_class(chain, seed, start, stop):
        return [stop - start] + [0] * len(chain)

    monkeypatch.setattr(cli, "_dim_counts", one_class)
    cpus.count = 2
    assert cli._histogram_counts((0.0,) * 100_000, 1, 5) == [5] + [0] * 100_000
    assert cpus.forks == 1


class SplitCalls:
    """cli._dim_counts as the parent and its forked children call it: a
    child calls child(counts) on its counts, and `parent` counts the calls
    made in this process."""

    def __init__(self, monkeypatch, child=lambda counts: counts):
        self.parent, self.pid, real = 0, os.getpid(), cli._dim_counts

        def dim_counts(*args):
            if os.getpid() == self.pid:
                self.parent += 1
                return real(*args)
            return child(real(*args))

        monkeypatch.setattr(cli, "_dim_counts", dim_counts)


def _exit_3(counts):
    os._exit(3)


def _raise(counts):
    raise RuntimeError("a failing child")


@pytest.mark.parametrize("child, exit_status", [
    (_exit_3, None),
    (_raise, None),
    (lambda counts: counts[:-1], None),  # one count too few
    (lambda counts: [counts[0] + 1] + counts[1:], None),  # one sample too many
    (lambda counts: counts + [0], None),  # one count too many
    (lambda counts: ["x"] + counts[1:], None),
    (lambda counts: counts, 5),  # the right counts, then a nonzero exit
    (lambda counts: [-1, counts[0] + counts[1] + 1] + counts[2:], None),  # -1, the right total
], ids=["exit_3", "raise", "short", "wrong_sum", "long", "not_a_number", "exit_5", "negative"])
def test_histogram_counts_a_failed_block_itself(child, exit_status, cpus, monkeypatch, capsys):
    if exit_status is not None:
        pid, exit = os.getpid(), os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit(
            exit_status if os.getpid() != pid else status))
    calls = SplitCalls(monkeypatch, child)
    assert cpus.main(HISTOGRAM_ARGV, 3, capsys) == (0, _golden("simulate-histogram"), "")
    # its own block and one for each failed child
    assert cpus.forks == 2 and calls.parent == 3


def test_histogram_sums_what_its_children_send(cpus, monkeypatch, capsys):
    calls = SplitCalls(monkeypatch)
    assert cpus.main(HISTOGRAM_ARGV, 3, capsys) == (0, _golden("simulate-histogram"), "")
    assert cpus.forks == 2 and calls.parent == 1


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["own_block", "wait"])
def test_histogram_interrupted_kills_and_reaps_its_children(where, cpus, monkeypatch):
    pid = os.getpid()

    def dim_counts(chain, seed, start, stop):
        if os.getpid() != pid:
            time.sleep(60)  # unless killed
        elif where == "own_block":
            raise KeyboardInterrupt
        return [0] * len(chain) + [stop - start]

    monkeypatch.setattr(cli, "_dim_counts", dim_counts)
    if where == "wait":  # the first wait for a child is interrupted, later ones reap
        waitpid, waits = os.waitpid, iter([_interrupt])
        monkeypatch.setattr(os, "waitpid", lambda pid, options: next(waits, waitpid)(pid, options))
    cpus.count = 3
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._histogram_counts((0.5,) * 8, 1, 400)
    assert time.monotonic() - start < 30
    assert cpus.forks == 2 and cpus.pins[-1] == (0, {0, 1, 2})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("case", ["second_thread", "one_cpu", "few_steps"])
def test_histogram_stays_in_one_process(case, cpus, monkeypatch, capsys):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    argv, count = HISTOGRAM_ARGV, 2
    if case == "one_cpu":
        count = 1
    if case == "few_steps":
        # 255 samples of n = 8 are 2,040 steps, short of two blocks
        argv = [a.replace("400", "255") for a in argv]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "second_thread":
        thread.start()
    try:
        rc, out, err = cpus.main(argv, count, capsys)
    finally:
        release.set()
        if case == "second_thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert rc == 0 and err == "" and cpus.pins == []
    if case != "few_steps":
        assert out == _golden("simulate-histogram")


def test_histogram_leaves_the_affinity_as_it_was(capsys):
    # the real calls: on a host with two CPUs or more the samples split
    before = os.sched_getaffinity(0)
    assert cli.main(list(HISTOGRAM_ARGV)) == 0
    assert capsys.readouterr().out == _golden("simulate-histogram")
    assert os.sched_getaffinity(0) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_histogram_builds_no_subspace(monkeypatch, capsys):
    def no_subspace(*args, **kwargs):
        raise AssertionError("a subspace was built")

    monkeypatch.setattr(cli.grassproc, "simulate", no_subspace)
    monkeypatch.setattr(cli.grassproc, "_Annihilator", no_subspace)
    monkeypatch.setattr(cli.gf, "Echelon", no_subspace)
    monkeypatch.setattr(cli.gf, "rref", no_subspace)
    argv = ["simulate", "--n", "12", "--theta", "1", "--q", "4", "--samples", "300",
            "--histogram", "--seed", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sum(json.loads(out)["dim_counts"]) == 300


@pytest.mark.parametrize("name", ["code-encode", "code-decode"])
def test_code_ops_compute_no_mu(name, monkeypatch, capsys):
    # a block code indexes the classes up to the finite-n stop; the limit
    # law mu is not one of its inputs
    def no_mu(*args, **kwargs):
        raise AssertionError("a coding op computed mu")

    monkeypatch.setattr(aep, "build_mu_table", no_mu)
    monkeypatch.setattr(aep, "_mu_values", no_mu, raising=False)
    assert cli.main(list(GOLDEN_CASES[name][0])) == 0
    out, err = capsys.readouterr()
    assert err == ""
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        assert out == fh.read()


def test_limit_law_at_tiny_theta(capsys):
    # x0 = 1/2 - log_q theta is ~997 at theta = 1e-300: the linear form of
    # mu overflows a double there, the log form does not; at 3.45e-14 only
    # its normaliser overflows
    for theta in ("1e-300", "3.45e-14"):
        assert cli.main(["mu-table", "--q", "2", "--theta", theta]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(sum(payload["mu"]) - 1.0) < 1e-9 and payload["tail"] < 1e-12
    argv = ["--n", "200", "--epsilon", "0.1", "--theta", "1e-30", "--q", "2"]
    assert cli.main(["typical"] + argv) == 0
    ts = json.loads(capsys.readouterr().out)
    assert ts["n"] == 200 and ts["limit_delta"] >= ts["delta_codim"] > 0
    assert cli.main(["aep-check"] + argv + ["--delta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a_n"] == ts["delta_codim"] and report["limit_delta"] == ts["limit_delta"]


def _parse_outcome(parse, argv):
    """What parsing argv ends in: the namespace (as text, so that a NaN
    equals itself), the CliError, or the exit with what it printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "args", repr(sorted(vars(parse(list(argv))).items()))
    except cli.CliError as exc:
        return "error", exc.code, exc.detail
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


TYPICAL_ARGV = GOLDEN_CASES["typical"][0]
PARSE_CASES = (
    [argv for argv, _ in GOLDEN_CASES.values()]
    + [argv for argv, _ in BAD_INPUTS]
    + [argv for argv in IN_PROCESS_SEQUENCE]
    + [["--bogus"], ["--"], [], ["nope"], ["-h"], ["--help"], ["-h", "typical"],
       TYPICAL_ARGV + ["--bogus"], TYPICAL_ARGV + ["extra"], TYPICAL_ARGV + ["--"],
       TYPICAL_ARGV + ["--", "extra"], ["typical", "--", "--n", "12"], ["typical", "-h"],
       ["typical", "--bogus"], ["typical", "--n", "x"], ["typical", "--n"],
       ["qcoeff", "--q", "2", "--", "4", "2"], ["qcoeff", "--q", "2", "4", "-2"],
       ["qcoeff", "--q=2", "4", "2"], ["qcoeff", "4", "--q", "2", "2"],
       ["mle", "--n", "8", "--q", "2", "--sample", "f"],
       ["mle", "--n", "8", "--q", "2", "--s", "f"],
       ["growth", "--n-list", "4", "--q", "2", "--format"], ["simulate", "simulate"],
       ["typical", "typical"], ["Typical"], ["qcoeff"]]
)


def test_one_pass_parse_matches_the_full_parser():
    # each argv ends in the same namespace, or the same usage error with the
    # same detail (an unrecognized argument is the full parser's, qgrass:),
    # or the same exit and help text
    full = cli.build_parser().parse_args
    for argv in PARSE_CASES:
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(full, argv), argv
    assert _parse_outcome(cli._parse_args, TYPICAL_ARGV + ["--bogus"]) == (
        "error", "usage", "qgrass: unrecognized arguments: --bogus")


def test_a_subcommand_argv_is_parsed_once(monkeypatch):
    def no_full_parse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli.build_parser(), "parse_args", no_full_parse)
    for argv, _ in GOLDEN_CASES.values():
        assert cli._parse_args(list(argv)).command == argv[0]
