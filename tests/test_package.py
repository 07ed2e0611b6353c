import copy
import json
import os
import pickle
import subprocess
import sys
import types

import pytest

import qgrass
from qgrass import aep, gf, grassproc, maxent, qdist

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every public name of the package.  Each has a CLI path, states one of the
# paper's identities, serves as an oracle or is a type that one of these
# returns; adding or removing one is a deliberate change to this list.
PUBLIC_SURFACE = [
    "BlockCode", "EnergyModel", "FieldSpec", "MaxEntSolution", "MuTable",
    "ProcessState", "QBinomialParams", "Subspace", "Trajectory",
    "TypicalSet", "asymptotic_constant", "build_mu_table", "c_inf", "c_n",
    "check_aep", "check_chain_rule", "check_flag_identity",
    "check_gauss_identity", "check_multinomial_asymptotics",
    "check_qmultinomial_asymptotics", "check_tail_quotient_bounds",
    "decode", "delta", "dilations", "encode", "enumerate_grassmannian",
    "finite_n_check", "format_subspace", "full_space", "gamma_q",
    "grassmannian_growth", "greedy_min_set_size", "is_continuity_point",
    "ln_alpha", "log_pmf", "log_pmf_by_codim", "m_qn", "make_block_code",
    "mean", "mle_theta", "mu", "multinomial", "outcome_tree_law",
    "parse_subspace", "pmf", "pmf_xy", "pochhammer", "pochhammer_inf",
    "q_binomial", "q_factorial", "q_integer", "q_multinomial",
    "quadratic_entropy", "rref", "simulate", "solve", "tsallis_entropy",
    "typical_set", "variance", "zero_subspace",
]


def test_public_surface():
    # the package imports its modules lazily, so its names are read through
    # __all__ and dir(), and each one is the object its module holds
    assert sorted(qgrass.__all__) == PUBLIC_SURFACE
    names = sorted(
        name for name in dir(qgrass)
        if not name.startswith("_") and not isinstance(getattr(qgrass, name), types.ModuleType)
    )
    assert names == PUBLIC_SURFACE
    for name in PUBLIC_SURFACE:
        value = getattr(qgrass, name)
        assert getattr(sys.modules[value.__module__], name) is value
    star = {}
    exec("from qgrass import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_SURFACE
    assert qgrass.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        qgrass.not_a_name


def test_attribute_access_loads_the_module():
    # in a fresh child, a public name or a module read from the package
    # loads that module (and what it imports) on first use
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qgrass\n"
        "for name in ('pmf', 'maxent'):\n"
        "    loaded = set(sys.modules); getattr(qgrass, name)\n"
        "    print(sorted(m for m in set(sys.modules) - loaded if m.startswith('qgrass')))\n"
        "print(qgrass.maxent is sys.modules['qgrass.maxent'], qgrass.pmf is qgrass.qdist.pmf)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines() == [
        "['qgrass.qcomb', 'qgrass.qdist']", "['qgrass.entropy', 'qgrass.maxent']", "True True",
    ]


def test_readme_library_example_runs(capsys):
    # the README's example is executed, so its calls cannot drift from the API
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n", text.index("## Library example")) + len("```python\n")
    code = text[start:text.index("\n```", start)]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1].endswith(" True")


_F2 = gf.FieldSpec(2)
_V = gf.rref([[1, 0, 1], [0, 1, 1]], 3, _F2)

# One value of each public value type, built twice from the same fields,
# one of its fields and its repr.
VALUES = {
    "Subspace": (
        lambda: gf.rref([[1, 0, 1], [0, 1, 1]], 3, _F2),
        "ambient_dim",
        "Subspace(q=2, n=3, basis='101;011')",
    ),
    "MuTable": (
        lambda: aep.MuTable(theta=1.0, q=2, values=(0.5, 0.25), tail_bound=0.25),
        "theta",
        "MuTable(theta=1.0, q=2, values=(0.5, 0.25), tail_bound=0.25)",
    ),
    "TypicalSet": (
        lambda: aep.typical_set(4, 0.1, 1.0, 2),
        "n",
        "TypicalSet(n=4, q=2, theta=1.0, epsilon=0.1, delta_codim=2, exact_size=51,"
        " limit_delta=2, discontinuity=False, bracket=(2, 2))",
    ),
    "BlockCode": (
        lambda: aep.make_block_code(4, 0.1, 1.0, _F2),
        "n",
        "BlockCode(n=4, field=FieldSpec(2), codim_bound=2, class_sizes=(1, 15, 35),"
        " exact_size=51, codeword_len=6)",
    ),
    "QBinomialParams": (
        lambda: qdist.QBinomialParams(n=6, theta=1.0, q=2),
        "n",
        "QBinomialParams(n=6, theta=1.0, q=2)",
    ),
    "ProcessState": (
        lambda: grassproc.ProcessState(3, _V),
        "step",
        "ProcessState(step=3, current=Subspace(q=2, n=3, basis='101;011'))",
    ),
    "Trajectory": (
        lambda: grassproc.Trajectory(2, 1.0, 7, grassproc.ProcessState(3, _V)),
        "q",
        "Trajectory(q=2, theta=1.0, seed=7, final=ProcessState(step=3,"
        " current=Subspace(q=2, n=3, basis='101;011')), history=None)",
    ),
    "EnergyModel": (
        lambda: maxent.EnergyModel((0, 1, 2), 1),
        "energies",
        "EnergyModel(energies=(0.0, 1.0, 2.0), target_mean=1)",
    ),
    "MaxEntSolution": (
        lambda: maxent.MaxEntSolution((0.5, 0.5), (0.5, 0.0), (0, 1)),
        "probs",
        "MaxEntSolution(probs=(0.5, 0.5), multipliers=(0.5, 0.0), active_support=(0, 1))",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_frozen_values(name):
    make, field, text = VALUES[name]
    value = make()
    assert type(value) is getattr(qgrass, name)
    assert repr(value) == text
    twin = make()
    assert twin is not value and twin == value and hash(twin) == hash(value)
    copies = [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value) and other == value and hash(other) == hash(value)
        assert repr(other) == text
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.not_a_field = None
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("build, message", [
    (lambda: qdist.QBinomialParams(-1, 1.0, 2), "n must be a nonnegative integer, got -1"),
    (lambda: qdist.QBinomialParams(2, -1.0, 2), "theta must be >= 0, got -1.0"),
    (lambda: qdist.QBinomialParams(2, float("nan"), 2), "theta must be >= 0, got nan"),
    (lambda: qdist.QBinomialParams(2, 1.0, 1), "q must be an integer >= 2, got 1"),
    (lambda: grassproc.ProcessState(2, _V), "ambient dimension 3 != step 2"),
    (lambda: maxent.EnergyModel((), 0.0), "at least one energy level is required"),
    (lambda: maxent.EnergyModel((1, float("inf")), 1.0), "energies must be finite, got (1.0, inf)"),
    (lambda: maxent.EnergyModel((0, 1), 5), "target mean 5 outside the feasible range [0.0, 1.0]"),
])
def test_value_type_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_replace_goes_through_the_checks():
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        qdist.QBinomialParams(6, 1.0, 2)._replace(n=-1)
    with pytest.raises(ValueError, match="ambient dimension 3 != step 2"):
        grassproc.ProcessState(3, _V)._replace(step=2)
    model = maxent.EnergyModel((0, 1), 0.5)._replace(energies=[2, 0])
    assert model == maxent.EnergyModel((2.0, 0.0), 0.5) and type(model.energies) is tuple


def test_cli_import_skips_dataclasses_and_inspect():
    # a CLI call imports the package first: keep the modules that cost most
    # of that import out of it (measured against the set that site loaded)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules);"
        " import qgrass.cli;"
        " print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, SRC],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


# A fresh `python -I -S` child (no site, so no .pth file preloads anything)
# that imports the package, then the CLI, then runs each argv of argv[2]
# (JSON) through cli.main.  It prints, per step, the exit code, which
# watched stdlib modules and which qgrass modules that step added to
# sys.modules.
_IMPORT_STEPS_CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
watched = {"fractions", "decimal", "numbers", "threading", "shutil"}
report = []

def step(name, rc, loaded):
    added = set(sys.modules) - loaded
    own = sorted(m for m in added if m.partition(".")[0] == "qgrass")
    report.append([name, rc, sorted(watched & added), own])

loaded = set(sys.modules)
import qgrass
step("import qgrass", 0, loaded)
loaded = set(sys.modules)
import qgrass.cli
step("import qgrass.cli", 0, loaded)
for argv in json.loads(sys.argv[2]):
    loaded = set(sys.modules)
    sys.stdin, sys.stdout = io.StringIO("3\\n4\\n5\\n4\\n"), io.StringIO()
    try:
        rc = qgrass.cli.main(argv)
    finally:
        sys.stdout = sys.__stdout__
    step(" ".join(argv), rc, loaded)
print(json.dumps(report))
"""


def _import_steps(argvs):
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_STEPS_CHILD, SRC, json.dumps(argvs)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


# No step here builds a Fraction, starts a thread or imports shutil, which
# a HelpFormatter with no width imports to read the terminal's (only -h
# needs it).  The histogram holds 3,200 growth steps, enough to reach the
# CLI's check for a second thread.  The first five run only the modules
# that `import qgrass.cli` loads.
_NO_FRACTION_ARGVS = [
    ["simulate", "--n", "5", "--theta", "1", "--q", "2", "--samples", "2", "--seed", "4"],
    ["simulate", "--n", "6", "--theta", "0.5", "--q", "3", "--seed", "1", "--keep-history"],
    ["simulate", "--n", "8", "--theta", "0.5", "--q", "3", "--samples", "400",
     "--histogram", "--seed", "9", "--format", "csv"],
    ["qcoeff", "4", "2", "--q", "2"],
    ["mle", "--n", "8", "--q", "2"],
    ["mu-table", "--q", "2", "--theta", "1"],
    ["growth", "--q", "2", "--n-list", "1,10,20", "--format", "csv"],
    ["asymptotics", "--probs", "0.5,0.5", "--n-list", "8,16", "--q", "2"],
    ["maxent", "--energies", "0,1,2", "--mean", "0.5", "--q", "2"],
]


@pytest.mark.parametrize("argv", [
    ["typical", "--n", "12", "--epsilon", "0.1", "--theta", "1", "--q", "2"],
    ["simulate", "--n", "5", "--theta", "1/2", "--q", "2", "--seed", "4"],
], ids=["typical", "simulate-theta-a/b"])
def test_cli_imports_fractions_only_where_it_builds_one(argv):
    # fractions (with decimal and numbers) is a quarter of a CLI call's
    # set-up: the import, the Fraction-free subcommands and threading stay
    # clear of it, and the first command that builds a Fraction imports it.
    # No step imports shutil, so building the parser does not either.
    *clean, (_, rc, added, _) = _import_steps(_NO_FRACTION_ARGVS + [argv])
    assert [step for step in clean if step[1:3] != [0, []]] == []
    assert rc == 0 and added == ["decimal", "fractions", "numbers"]


# What `import qgrass.cli` loads: the modules that simulate, qcoeff and mle
# run, and no other.
_CLI_MODULES = ["qgrass.cli", "qgrass.gf", "qgrass.grassproc", "qgrass.qcomb", "qgrass.qdist"]


@pytest.mark.parametrize("argv, modules", [
    (["typical", "--n", "12", "--epsilon", "0.1", "--theta", "1", "--q", "2"],
     ["aep", "entropy"]),
    (["aep-check", "--n", "12", "--epsilon", "0.1", "--delta", "0.5", "--theta", "1", "--q", "2"],
     ["aep", "entropy"]),
    (["code-encode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "2",
      "--subspace", "1100;0010"], ["aep", "entropy"]),
    (["code-decode", "--n", "4", "--epsilon", "0.2", "--theta", "1", "--q", "2",
      "--word", "001010"], ["aep", "entropy"]),
    (["mu-table", "--q", "2", "--theta", "1"], ["aep", "entropy"]),
    (["growth", "--q", "2", "--n-list", "1,10,20"], ["aep", "entropy"]),
    (["maxent", "--energies", "0,1,2", "--mean", "0.5", "--q", "2"], ["entropy", "maxent"]),
    (["maxent", "--energies", "0,1,2", "--mean", "0.5", "--finite-n", "12", "--q", "2"],
     ["entropy", "maxent"]),
    (["asymptotics", "--probs", "0.5,0.5", "--n-list", "8,16", "--q", "2"], ["entropy"]),
], ids=["typical", "aep-check", "code-encode", "code-decode", "mu-table", "growth", "maxent",
        "maxent-finite-n", "asymptotics"])
def test_cli_imports_only_the_modules_its_subcommand_runs(argv, modules):
    # `import qgrass` loads no module of the package, `import qgrass.cli`
    # only what simulate, qcoeff and mle run, and each other subcommand its
    # own modules on its first call
    steps = _import_steps(_NO_FRACTION_ARGVS[:5] + [argv])
    (_, _, _, package), (_, _, _, cli), *core, (_, rc, _, added) = steps
    assert package == ["qgrass"] and cli == _CLI_MODULES
    assert [step for step in core if step[1] != 0 or step[3]] == []
    assert rc == 0 and added == [f"qgrass.{m}" for m in modules]
