"""CLI smoke and golden tests (fresh interpreter per invocation)."""
import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wptrees import checks, cli
from wptrees.montecarlo import McReport

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every README example except the 10^6-sample Monte Carlo run; the expected
# stdout of each row is tests/golden/<id>.txt, byte for byte.
README_GOLDEN = {
    "vol-n4": "vol --n 4",
    "vol-n5-graph-sum": "vol --n 5 --method graph-sum",
    "vol-n4-lengths": "vol --n 4 --lengths 1,2,3,4",
    "vol-n4-lengths-decimal": "vol --n 4 --lengths 0.5,1,1,1",
    "vol-n4-json": "vol --n 4 --format json",
    "vol-n4-latex": "vol --n 4 --format latex",
    "htc-n4": "htc --n 4",
    "gf-r3": "gf --target r --order 3",
    "gf-z4-json": "gf --target z --order 4 --format json",
    "trees-two-three-n4-count": "trees --family two-three --n 4 --count",
    "trees-full-n4-list": "trees --family full --n 4 --list",
    "verify-identities-5": "verify identities --max-n 5",
}


# Outputs of code shared across commands: one assembler lists every tree
# family, and one printer serves `vol` and `htc` with or without lengths.
SHARED_PATH_GOLDEN = {
    "trees-two-three-n5-list": "trees --family two-three --n 5 --list",
    "trees-graph-n5-list": "trees --family graph --n 5 --list",
    "vol-n4-lengths-json": "vol --n 4 --lengths 1,2,3,4 --format json",
    "htc-n4-lengths-json": "htc --n 4 --lengths 1,2,3,4 --format json",
    "htc-n5-latex": "htc --n 5 --format latex",
    "htc-n8": "htc --n 8",
}


# The recursion route and the series roots, whose stdout must not change
# byte for byte when their exact kernels do.
MOMENT_GOLDEN = {
    "vol-n8-recursion": "vol --n 8 --method recursion",
    "gf-r7": "gf --target r --order 7",
    "gf-r10": "gf --target r --order 10",
    "gf-h6-json": "gf --target h --order 6 --format json",
    "gf-h8-json": "gf --target h --order 8 --format json",
    "gf-z3-latex": "gf --target z --order 3 --format latex",
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "wptrees.cli", *args],
                          capture_output=True, text=True)


def assert_golden(name, command):
    out = run_cli(*command.split())
    assert out.returncode == 0
    assert out.stdout == (GOLDEN_DIR / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", README_GOLDEN)
def test_readme_golden(name):
    assert_golden(name, README_GOLDEN[name])


@pytest.mark.parametrize("name", MOMENT_GOLDEN)
def test_moment_route_golden(name):
    assert_golden(name, MOMENT_GOLDEN[name])


def test_exact_mc_golden():
    # Every member at n = 4 is exact, so these bytes hold without numpy.
    assert_golden("verify-mc-n4", "verify mc --n 4 --lengths 1,2,3,4 --samples 10 --seed 1")


@pytest.mark.parametrize("name", SHARED_PATH_GOLDEN)
def test_shared_path_golden(name):
    assert_golden(name, SHARED_PATH_GOLDEN[name])


def test_all_methods_print_identical_polynomial():
    outputs = set()
    for method in ("tree", "recursion", "graph-sum", "decomposition"):
        out = run_cli("vol", "--n", "5", "--method", method)
        assert out.returncode == 0
        outputs.add(out.stdout)
    assert len(outputs) == 1


def test_vol_n5_emits_coefficient_note():
    out = run_cli("vol", "--n", "5")
    assert out.returncode == 0
    assert "3*pi2" in out.stderr
    assert "3*pi" in out.stderr


def test_vol_json_round_trips():
    from wptrees.algebra import expand_orbits, poly_from_json_terms
    from wptrees.volumes import v0n_reduced

    out = run_cli("vol", "--n", "4", "--format", "json")
    payload = json.loads(out.stdout)
    assert list(payload) == ["command", "n", "method", "terms"]
    assert payload["n"] == 4 and payload["method"] == "tree"
    assert poly_from_json_terms(payload["terms"]) == expand_orbits(v0n_reduced(4))
    htc = json.loads(run_cli("htc", "--n", "4", "--lengths", "1,2,3,4",
                             "--format", "json").stdout)
    assert list(htc) == ["command", "n", "assumption", "lengths", "terms"]


def test_htc_assumption_note():
    out = run_cli("htc", "--n", "3")
    assert out.stdout.strip() == "1"
    assert "L1 < L2" in out.stderr
    bad = run_cli("htc", "--n", "3", "--lengths", "2,1,1")
    assert bad.returncode == 2


def test_gf_targets():
    out = run_cli("gf", "--target", "r", "--order", "2")
    assert out.stdout.strip() == "m0 + 1/2*m0*m1 + pi2*m0^2"
    z = run_cli("gf", "--target", "z", "--order", "1", "--format", "json")
    payload = json.loads(z.stdout)
    assert payload["target"] == "z"
    assert all("grade" in term for term in payload["terms"])
    h = run_cli("gf", "--target", "h", "--order", "1")
    assert h.stdout.strip() == "m0"


def test_trees_list_json():
    out = run_cli("trees", "--family", "full", "--n", "4", "--list")
    items = json.loads(out.stdout)
    assert len(items) == 2
    assert all(set(i) == {"t1", "t2", "key", "plane_embeddings"} for i in items)


def test_invalid_inputs_exit_2():
    assert run_cli("vol", "--n", "2").returncode == 2
    assert run_cli("vol", "--n", "4", "--lengths", "1,2,3").returncode == 2
    assert run_cli("vol", "--n", "4", "--lengths", "1,2,x,4").returncode == 2
    assert run_cli("vol", "--n", "4", "--method", "magic").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("--threads", "0", "vol", "--n", "3").returncode == 2
    assert run_cli("--threads", "-1", "vol", "--n", "3").returncode == 2


def test_lengths_allow_whitespace_around_fields(capsys):
    assert cli.main(["vol", "--n", "4", "--lengths", " 1, 2 ,3 ,\t4 "]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "vol-n4-lengths.txt").read_text()


@pytest.mark.parametrize("lengths", ["5e-1,1/1,1.0,+1", "0.50,01,1e0,10E-1", ".5,1.,2/2,+3/3"])
def test_equal_lengths_in_other_ascii_forms_print_the_same_bytes(capsys, lengths):
    assert cli.main(["vol", "--n", "4", "--lengths", lengths]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "vol-n4-lengths-decimal.txt").read_text()


def test_value_too_long_to_print_is_refused_in_plain_words(capsys):
    # 1e2150 squared and halved has 4300 digits and prints; 1e4000 is
    # admitted, but its value has more digits than Python prints.
    assert cli.main(["vol", "--n", "4", "--lengths", "1,2,3,1e2150"]) == 0
    assert len(capsys.readouterr().out) > 4300
    assert cli.main(["vol", "--n", "4", "--lengths", "1,2,3,1e4000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the value at these lengths has a coefficient of more "
                            "than 4300 digits, too long to print\n")


def test_enumeration_above_limit_exits_2_fast(capsys):
    start = time.perf_counter()
    code = cli.main(["trees", "--family", "two-three", "--n", "9"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "limited to n <= 8" in captured.err
    assert elapsed < 0.5  # refused before any tree is built


TOO_BIG = str(cli.VOLUME_MAX_N + 1)
TOO_LONG = str(cli.GF_MAX_ORDER + 1)


@pytest.fixture
def no_routes(monkeypatch):
    """Make every volume route and series fail if it is entered."""
    def computed(*args, **kwargs):
        raise AssertionError("a volume route or series was called")

    for name in ("v0n_reduced", "v0n_graph_sum", "full_decomposition_v0n",
                 "f_substituted", "htc_volume",
                 "z_series", "solve_r", "htc_genfun", "mc_full_volume"):
        monkeypatch.setattr(cli, name, computed)
    # `verify identities` imports the battery from checks when it runs.
    monkeypatch.setattr(checks, "identity_checks", computed)


@pytest.mark.parametrize("argv", [
    ["vol", "--n", TOO_BIG],
    ["vol", "--n", TOO_BIG, "--method", "recursion"],
    ["htc", "--n", TOO_BIG],
    ["verify", "identities", "--max-n", TOO_BIG],
    ["gf", "--target", "r", "--order", TOO_LONG],
    ["gf", "--target", "h", "--order", TOO_LONG],
    ["gf", "--target", "z", "--order", TOO_LONG],
])
def test_volume_size_above_limit_refused(no_routes, capsys, argv):
    # A size that cannot finish is refused before any route or series is entered.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if argv[0] == "gf":
        assert f"series are limited to --order <= {cli.GF_MAX_ORDER}" in captured.err
    else:
        assert f"volumes are limited to n <= {cli.VOLUME_MAX_N}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["vol", "--n", "11", "--lengths", "1,2"], "expected 11 comma-separated lengths, got 2"),
    (["vol", "--n", "5", "--method", "decomposition", "--lengths", "1,2"],
     "expected 5 comma-separated lengths, got 2"),
    (["vol", "--n", "5", "--lengths", "1,2,0,1,1"], "lengths must be positive"),
    (["htc", "--n", "6", "--lengths", "1,2,3"], "expected 6 comma-separated lengths, got 3"),
    (["htc", "--n", "5", "--lengths", "1,2,-1,1,1", "--format", "json"],
     "lengths must be positive"),
    (["htc", "--n", "5", "--lengths", "2,1,1,1,1"], "half-tight volumes assume 0 < L1 < L2"),
    (["htc", "--n", "4", "--lengths", "3,3,1,1", "--format", "latex"],
     "half-tight volumes assume 0 < L1 < L2"),
    (["vol", "--n", "4", "--lengths", "1,2,,3,4"],
     "malformed length list '1,2,,3,4': empty field"),
    (["vol", "--n", "4", "--lengths", "1,2,3,4,"],
     "malformed length list '1,2,3,4,': empty field"),
    (["vol", "--n", "4", "--lengths", "1, ,3,4"],
     "malformed length list '1, ,3,4': empty field"),
    (["vol", "--n", "4", "--lengths", ""], "malformed length list '': empty field"),
    (["htc", "--n", "4", "--lengths", ""], "malformed length list '': empty field"),
    (["verify", "mc", "--n", "4", "--lengths", "", "--samples", "10", "--seed", "1"],
     "malformed length list '': empty field"),
    # Python 3.11's Fraction reads 1_0 as 10 and 3.10's refuses it: both refuse it here.
    (["vol", "--n", "4", "--lengths", "1,2,3,1_0"],
     "malformed length list '1,2,3,1_0': digit separators are not accepted"),
    # Python's Fraction reads any Unicode digit; a length is ASCII only.
    (["vol", "--n", "4", "--lengths", "\u0661,2,3,4"],
     "malformed length list '\u0661,2,3,4': '\u0661' is not a decimal or p/q in ASCII digits"),
    # Refused before 10^999999999 or 10^10000000 is built, and 10^-4300 has
    # one digit too many in its denominator.
    (["vol", "--n", "4", "--lengths", "1,2,3,1e999999999"],
     "malformed length list '1,2,3,1e999999999': length '1e999999999' has more than "
     "4300 digits in its numerator or denominator"),
    (["verify", "mc", "--n", "4", "--lengths", "1,2,3,1e10000000", "--samples", "10",
      "--seed", "1"],
     "malformed length list '1,2,3,1e10000000': length '1e10000000' has more than "
     "4300 digits in its numerator or denominator"),
    (["htc", "--n", "4", "--lengths", "1,2,3,1e-4300"],
     "malformed length list '1,2,3,1e-4300': length '1e-4300' has more than "
     "4300 digits in its numerator or denominator"),
    # A zero denominator is refused in words, not as Fraction's own error text.
    (["vol", "--n", "4", "--lengths", "1,2,3,1/0"],
     "malformed length list '1,2,3,1/0': '1/0' has a zero denominator"),
    (["verify", "mc", "--n", "4", "--lengths", "1,2,3,0/0", "--samples", "10", "--seed", "1"],
     "malformed length list '1,2,3,0/0': '0/0' has a zero denominator"),
], ids=["vol-count-n11", "vol-count-n5", "vol-nonpositive", "htc-count", "htc-nonpositive",
        "htc-l1-above-l2", "htc-l1-equals-l2", "vol-empty-field", "vol-trailing-comma",
        "vol-blank-field", "vol-empty", "htc-empty", "mc-empty", "vol-digit-separator",
        "vol-non-ascii-digit", "vol-huge-exponent", "mc-huge-exponent", "htc-tiny-exponent",
        "vol-zero-denominator", "mc-zero-denominator"])
def test_bad_lengths_refused_before_any_route(no_routes, capsys, argv, message):
    # Lengths are checked before the volume is computed, so a bad list
    # costs no route time and gets no V_{0,5} note ahead of the error.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


MC = ["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1", "--samples", "10", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "identities", "--max-n", "2"], "need --max-n >= 3"),
    (["verify", "identities", "--max-n", "-1"], "need --max-n >= 3"),
    (MC + ["--sigma", "inf"], "need a finite --sigma > 0, got inf"),
    (MC + ["--sigma", "0"], "need a finite --sigma > 0, got 0.0"),
    (MC + ["--sigma", "-3"], "need a finite --sigma > 0, got -3.0"),
    (MC + ["--sigma", "nan"], "need a finite --sigma > 0, got nan"),
], ids=["max-n-2", "max-n-negative", "sigma-inf", "sigma-zero", "sigma-negative",
        "sigma-nan"])
def test_out_of_range_bounds_refused_before_any_work(no_routes, capsys, argv, message):
    # A --max-n below 3 would run only the n-free checks and report OK; a
    # z-score bound that is not finite and positive could only PASS or only
    # FAIL.  Both are refused before any check, reference or draw.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ablation_sigma_is_not_an_option(no_routes, capsys):
    # The ablation's rows are exact, so its |z| is 0 or infinite and no
    # bound on it can change the verdict.
    code = cli.main(MC + ["--ablation", "--ablation-sigma", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --ablation-sigma 5" in captured.err


# Run in a fresh interpreter, since the test session has numpy loaded.  The
# script's last stdout line reports what each step loaded, and the OS
# threads left after sampling (None where /proc is absent).
IMPORT_PROBE = """
import contextlib, io, json, os, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("wptrees.") or m == "dataclasses")
import wptrees
state = {"submodules": loaded()}
from wptrees import cli
state["after_cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    state["vol"] = cli.main(["vol", "--n", "4"])
    state["after_vol"] = loaded()
    state["numpy_after_vol"] = "numpy" in sys.modules
    # The dimension checks read the polytope geometry.
    state["identities"] = cli.main(["verify", "identities", "--max-n", "5"])
    state["after_identities"] = loaded()
    state["numpy_after_identities"] = "numpy" in sys.modules
    # No member at n = 4 has an inner-inner edge, so nothing is drawn.
    state["exact_mc"] = cli.main(["verify", "mc", "--n", "4", "--lengths", "1,2,1,1",
                                  "--samples", "2000", "--seed", "3"])
    state["numpy_after_exact_mc"] = "numpy" in sys.modules
    # Too many draws are refused before numpy loads.
    state["huge_mc"] = cli.main(["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1",
                                 "--samples", "100000000000000", "--seed", "3"])
    state["numpy_after_huge_mc"] = "numpy" in sys.modules
    state["mc"] = cli.main(["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1",
                            "--samples", "2000", "--seed", "3", "--sigma", "100"])
    state["numpy_after_mc"] = "numpy" in sys.modules
    state["sampler_modules"] = {m: m in sys.modules for m in ("numpy.random", "hashlib")}
state["pool_module_loaded"] = "concurrent.futures" in sys.modules
tasks = "/proc/self/task"
state["os_threads"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps(state))
"""


@pytest.fixture(scope="module")
def probe_state():
    # Without a user-set OPENBLAS_NUM_THREADS, as a plain shell runs it.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# Whether numpy's bit generators and hashlib, which seeding them loads, are
# loaded by a bare ``import numpy``.
BARE_NUMPY_PROBE = """
import json, sys
import numpy
print(json.dumps({m: m in sys.modules for m in ("numpy.random", "hashlib")}))
"""


def test_sampling_loads_no_bit_generator_or_hashlib(probe_state):
    # numpy 1.x loads numpy.random with numpy itself; the sampler adds
    # neither it nor hashlib, and still runs on one OS thread.
    out = subprocess.run([sys.executable, "-c", BARE_NUMPY_PROBE],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    bare = json.loads(out.stdout)
    assert probe_state["mc"] == 0 and probe_state["numpy_after_mc"]
    assert {m for m, loaded in probe_state["sampler_modules"].items() if loaded} <= {
        m for m, loaded in bare.items() if loaded}
    if probe_state["os_threads"] is not None:
        assert probe_state["os_threads"] == 1


def test_numpy_is_loaded_only_to_sample(probe_state):
    state = probe_state
    assert state["submodules"] == []  # `import wptrees` loads no submodule
    assert state["vol"] == 0
    assert not state["numpy_after_vol"]
    assert state["identities"] == 0
    assert not state["numpy_after_identities"]
    assert state["exact_mc"] == 0
    assert not state["numpy_after_exact_mc"]
    assert state["huge_mc"] == 2
    assert not state["numpy_after_huge_mc"]
    assert state["mc"] == 0
    assert state["numpy_after_mc"]


# The layers that perfbench/spans.py wraps right after `import wptrees.cli`,
# plus cli itself.
CLI_MODULES = ["wptrees." + name for name in
               ("algebra", "cli", "genfun", "montecarlo", "trees", "volumes")]


def test_exact_commands_load_only_the_layers_they_use(probe_state):
    # No dataclasses (nor the inspect it loads), and the identity battery and
    # the polytope geometry only with the commands that use them.
    assert probe_state["after_cli"] == CLI_MODULES
    assert probe_state["after_vol"] == CLI_MODULES
    assert probe_state["after_identities"] == sorted(
        CLI_MODULES + ["wptrees.checks", "wptrees.polytope"])


def test_no_module_imports_an_underscore_name():
    # A module's underscore names are its own: ``from .x import _y`` would
    # tie one module to another's internals.
    offending = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                offending += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offending == []


def test_verify_mc_runs_on_one_os_thread(probe_state):
    # The sampler draws in the calling thread, and numpy's OpenBLAS, which
    # would otherwise start a worker thread at import, is held to one.
    if probe_state["os_threads"] is None:
        pytest.skip("no /proc/self/task on this platform")
    assert probe_state["os_threads"] == 1
    assert not probe_state["pool_module_loaded"]


def test_main_keeps_a_set_openblas_thread_count(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert cli.main(["vol", "--n", "3"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert cli.main(["vol", "--n", "3"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_closed_stdout_exits_quietly_with_141():
    # 140 KB of output: the reader has closed the pipe long before it ends.
    proc = subprocess.Popen(
        [sys.executable, "-m", "wptrees.cli", "vol", "--n", "9", "--method", "recursion"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


def test_internal_key_error_is_not_invalid_input(monkeypatch):
    def broken(n):
        raise KeyError("unbound atom")

    monkeypatch.setattr(cli, "v0n_reduced", broken)
    with pytest.raises(KeyError):
        cli.main(["vol", "--n", "4"])


def test_verify_identities_exit_zero():
    out = run_cli("verify", "identities", "--max-n", "4")
    assert out.returncode == 0
    assert "FAIL" not in out.stdout
    assert out.stdout.strip().endswith("0 failing identity check(s)")


def test_verify_identities_reports_a_raising_check_as_fail(monkeypatch, capsys):
    # A reduced-route weight scaled by (1 + a_1) trips the symmetry guard in
    # every check that reads V_{0,n} for n >= 4; the others still run.
    from wptrees import volumes
    reduced_factor = volumes._reduced

    def scaled(a1, a2):
        return tuple((e1, e2, w * (1 + a1)) for e1, e2, w in reduced_factor(a1, a2))

    monkeypatch.setattr(volumes, "_reduced", scaled)
    code = cli.main(["verify", "identities", "--max-n", "4"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert {"FAIL table-v0-4", "FAIL symmetry-4", "PASS table-v0-3",
            "PASS ell-integral-grid", "PASS enumerator-oracle-4"} <= set(lines)
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert lines[-1] == f"FAILED: {len(failed)} failing identity check(s)"
    assert "table-v0-4: orbit coefficient depends on the placement" in captured.err


def test_verify_mc_small_run():
    out = run_cli("verify", "mc", "--n", "4", "--lengths", "1,2,1,1",
                  "--samples", "20000", "--seed", "1")
    assert out.returncode == 0
    report = json.loads(out.stdout.splitlines()[0])
    assert report["samples"] == 20000
    assert abs(report["z_score"]) < 3


@pytest.mark.parametrize("n, lengths", [(3, "1,2,1"), (4, "1,2,1,1")])
def test_verify_mc_ablation_refused_below_n5(monkeypatch, capsys, n, lengths):
    # No tree at n <= 4 has an inner-inner edge, so the ablation could only
    # repeat the constrained run; it is refused before any sampling.
    def sampled(*args, **kwargs):
        raise AssertionError("mc_full_volume was called")

    monkeypatch.setattr(cli, "mc_full_volume", sampled)
    code = cli.main(["--threads", "2", "verify", "mc", "--n", str(n), "--lengths", lengths,
                     "--samples", "20000", "--seed", "3", "--ablation"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--ablation needs --n >= 5" in captured.err


def test_mc_report_json_bytes():
    # Scalars in the record's field order: 17 significant digits, integers
    # as written, an infinite z-score as a string; then each row.
    rows = [{"key": "B2(B3())", "kind": "half-tight", "constant": 1.5, "shape": "",
             "estimate": 1.5, "std_error": 0.0, "exact": True},
            {"key": "D[B1(B3())|B2(B4())]", "kind": "full", "constant": 0.5, "shape": "(())",
             "estimate": 1 / 3, "std_error": 0.01, "exact": False}]
    report = McReport(0.1 + 0.2, 2.5e-17, 10, 7, -1.0, -math.inf, rows)
    assert cli._report_json(report) == (
        '{"estimate": 0.30000000000000004, "std_error": 2.4999999999999999e-17, '
        '"samples": 10, "seed": 7, "reference": -1, "z_score": "-inf", "per_tree": ['
        '{"key": "B2(B3())", "kind": "half-tight", "estimate": 1.5, "std_error": 0, '
        '"exact": true}, '
        '{"key": "D[B1(B3())|B2(B4())]", "kind": "full", "estimate": 0.33333333333333331, '
        '"std_error": 0.01, "exact": false}]}')


def test_byte_stable_output():
    a = run_cli("vol", "--n", "5", "--format", "json")
    b = run_cli("vol", "--n", "5", "--format", "json")
    assert a.stdout == b.stdout
    c = run_cli("--threads", "3", "verify", "mc", "--n", "4",
                "--lengths", "1,2,1,1", "--samples", "5000", "--seed", "9")
    d = run_cli("--threads", "1", "verify", "mc", "--n", "4",
                "--lengths", "1,2,1,1", "--samples", "5000", "--seed", "9")
    assert c.stdout == d.stdout
