import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "qgrass.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*args, inp=None, env_extra=None):
    env = dict(os.environ)
    env.pop("QGRASS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=inp, env=env
    )


def test_qcoeff_binomial_and_multinomial():
    r = run("qcoeff", "4", "2", "--q", "2")
    assert r.returncode == 0 and r.stdout.strip() == "35"
    r = run("qcoeff", "5", "0", "--q", "3")
    assert r.stdout.strip() == "1"
    r = run("qcoeff", "3", "1", "1", "1", "--q", "2")
    assert r.stdout.strip() == "21"


def test_qcoeff_domain_error_json():
    r = run("qcoeff", "4", "9", "--q", "2")
    assert r.returncode == 1
    err = json.loads(r.stderr)
    assert err["error"] == "domain" and err["detail"]
    r = run("qcoeff", "4", "2", "--q", "1")
    assert r.returncode == 1 and json.loads(r.stderr)["error"] == "domain"


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


def test_simulate_histogram_tv():
    r = run(
        "simulate", "--n", "5", "--theta", "1", "--q", "2",
        "--samples", "4000", "--histogram", "--seed", "3",
    )
    payload = json.loads(r.stdout)
    assert payload["schema"] == "qgrass/1"
    assert sum(payload["dim_counts"]) == 4000
    assert payload["tv"] < 0.05


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


def test_aep_check_n_zero_is_domain_error():
    r = run("aep-check", "--n", "0", "--epsilon", "0.1", "--delta", "0.5",
            "--theta", "1", "--q", "2")
    assert r.returncode == 1 and r.stdout == ""
    assert json.loads(r.stderr) == {"error": "domain", "detail": "n must be >= 1"}


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


def test_mle_samples_file(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("3\n4\n5\n4\n")
    r = run("mle", "--n", "8", "--q", "2", "--samples-file", str(path))
    via_stdin = run("mle", "--n", "8", "--q", "2", inp="3\n4\n5\n4\n")
    assert r.stdout == via_stdin.stdout


def test_maxent_subcommand():
    r = run("maxent", "--energies", "0,1,2", "--mean", "0.5")
    payload = json.loads(r.stdout)
    assert abs(payload["probs"][0] - 7 / 12) < 1e-10
    r = run("maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "12", "--q", "2")
    payload = json.loads(r.stdout)
    assert payload["finite_n"]["nominal_is_optimal"]
    r = run("maxent", "--energies", "0,1", "--mean", "5")
    assert r.returncode == 1


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
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    args, inp = GOLDEN_CASES[name]
    r = run(*args, inp=inp)
    assert r.returncode == 0
    golden = os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")
    with open(golden) as fh:
        assert r.stdout == fh.read()


def test_out_file_written_whole(tmp_path):
    out = tmp_path / "res.json"
    r = run("growth", "--q", "2", "--n-list", "4,8", "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["rows"]
    # failing run must not create the file
    out2 = tmp_path / "nope.json"
    r = run("qcoeff", "4", "9", "--q", "2", "--out", str(out2))
    assert r.returncode == 1 and not out2.exists()
