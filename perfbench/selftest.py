"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout.  They show that each output gate rejects
a corrupted stdout, that seeded inputs are reproducible, that the smoke
mode (n=5, cap 4, a few thousand samples) prints every metric, and that the
steadiness check enforces the bounds.  About 20 s on two cores.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import steady  # noqa: E402
import suite  # noqa: E402


def cli(*argv: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "wptrees.cli", *argv], capture_output=True,
                          cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- oracles ---------------------------------------------------------------------

def test_zograf_matches_known_constant_terms():
    assert [suite.zograf_constant(n) for n in (3, 4, 5, 6)] == [1, 2, 10, Fraction(244, 3)]
    assert suite.zograf_constant(7) == Fraction(2758, 3)
    assert suite.zograf_constant(9) == Fraction(3531956, 15)


def test_parse_poly_reads_signs_powers_and_moments():
    poly = suite.parse_poly("-1/2*pi2^2*L3^4 + m0*m1^2 - 3")
    assert poly == {(("L3", 2), ("pi2", 2)): Fraction(-1, 2),
                    (("m0", 1), ("m1", 2)): Fraction(1), (): Fraction(-3)}
    assert len(suite.parse_poly(suite.golden("vol-n7.txt").decode())) == 330


# -- each gate rejects a corrupted stdout ------------------------------------------

def corrupt(data: bytes, old: bytes, new: bytes) -> bytes:
    assert old in data
    return data.replace(old, new, 1)


def test_golden_gate():
    good = suite.golden("vol-n7.txt")
    assert suite.gate_golden(good, "vol-n7.txt") == []
    assert suite.gate_golden(corrupt(good, b"910/3", b"911/3"), "vol-n7.txt")
    assert suite.gate_golden(good[:-1], "vol-n7.txt")
    assert suite.gate_golden(good + b"\n", "vol-n7.txt")


def test_zograf_gate():
    for n in (7, 9):
        good = suite.golden(f"vol-n{n}.txt")
        assert suite.gate_zograf(good, n) == []
    bad = corrupt(suite.golden("vol-n7.txt"), b"2758/3*pi2^4", b"2757/3*pi2^4")
    assert suite.gate_zograf(bad, 7)
    assert suite.gate_zograf(b"garbage*", 7)


def test_lengths_gate():
    lengths = [Fraction(1), Fraction(3, 2), Fraction(4), Fraction(7), Fraction(3)]
    good = cli("vol", "--n", "5", "--lengths", suite.lengths_arg(lengths), "--format", "json")
    assert suite.gate_lengths_eval(good, 5, lengths, "vol-n5.txt") == []
    payload = json.loads(good)
    payload["terms"][0]["coeff"] = str(Fraction(payload["terms"][0]["coeff"]) + 1)
    assert suite.gate_lengths_eval(json.dumps(payload).encode(), 5, lengths, "vol-n5.txt")
    other = lengths[:4] + [Fraction(5, 2)]
    assert suite.gate_lengths_eval(good, 5, other, "vol-n5.txt")
    assert suite.gate_lengths_eval(b"not json", 5, lengths, "vol-n5.txt")
    assert suite.gate_lengths_eval(b"[1]", 5, lengths, "vol-n5.txt")


def arg(cmd: suite.Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def lengths_of(cmd: suite.Command) -> list[Fraction]:
    return [Fraction(v) for v in arg(cmd, "--lengths").split(",")]


def mc_output(threads: str = "1") -> tuple[bytes, list[Fraction], suite.Command]:
    cmds = suite.workload_commands("mc-verify", 5, suite.SMOKE)
    cmd = cmds[0] if threads == "1" else cmds[1]
    return cli(*cmd.argv), lengths_of(cmd), cmd


def test_mc_gates():
    out, lengths, cmd = mc_output()
    seed, samples = int(arg(cmd, "--seed")), int(arg(cmd, "--samples"))
    assert suite.gate_mc(out, "vol-n5.txt", lengths, samples, seed) == []
    rep = suite.mc_report(out)
    rest = out.split(b"\n", 1)[1]

    def with_field(key, value) -> bytes:
        changed = dict(rep, **{key: value})
        return json.dumps(changed).encode() + b"\n" + rest

    nudged = math.nextafter(rep["reference"], math.inf)
    assert suite.gate_mc(with_field("reference", nudged), "vol-n5.txt", lengths, samples, seed)
    assert suite.gate_mc(with_field("z_score", 5.5), "vol-n5.txt", lengths, samples, seed)
    assert suite.gate_mc(with_field("z_score", "inf"), "vol-n5.txt", lengths, samples, seed)
    assert suite.gate_mc(with_field("seed", seed + 1), "vol-n5.txt", lengths, samples, seed)
    assert suite.gate_mc(b"{oops", "vol-n5.txt", lengths, samples, seed)
    assert suite.gate_mc(b"[]\n", "vol-n5.txt", lengths, samples, seed)


def test_thread_identity_gate():
    out, _, _ = mc_output("1")
    _, _, t2 = mc_output("2")
    assert t2.gate(out, {"mc-t1": out}) == []
    assert t2.gate(out, {"mc-t1": out.replace(b"PASS", b"PAS5")})


def test_acceptance_gate():
    cmd = suite.workload_commands("mc-verify", 5, suite.SMOKE)[2]
    out = cli(*cmd.argv)
    assert cmd.gate(out, {}) == []
    assert suite.gate_acceptance(out, 4000) == []
    first, verdict, rest = out.split(b"\n", 2)
    rep = json.loads(first)
    nudged = dict(rep, reference=math.nextafter(rep["reference"], math.inf))
    assert suite.gate_acceptance(json.dumps(nudged).encode() + b"\n" + verdict + b"\n" + rest, 4000)
    assert suite.gate_acceptance(corrupt(out, b"PASS mc-ablation", b"FAIL mc-ablation"), 4000)
    assert suite.gate_acceptance(first + b"\n" + verdict + b"\n", 4000)
    assert suite.gate_acceptance(out, 8000)


def test_nonzero_exit_is_a_failed_op():
    runner = run.Runner(run.time.monotonic() + 60, "selftest")
    cmd = suite.Command("mc-strict", ["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1",
                                      "--samples", "2000", "--seed", "42", "--sigma", "1e-9"],
                        lambda out, seen: [])
    op = runner.run(cmd, {})
    assert op.proc.code == 1 and not op.ok


# -- inputs, statistics, steadiness ---------------------------------------------------

def test_seeded_inputs_are_reproducible_and_valid():
    for workload in suite.WORKLOADS:
        a = [c.argv for c in suite.workload_commands(workload, 11)]
        assert a == [c.argv for c in suite.workload_commands(workload, 11)]
    seeded = {a.label for w in suite.WORKLOADS
              for a, b in zip(suite.workload_commands(w, 11), suite.workload_commands(w, 12))
              if a.argv != b.argv}
    assert seeded == {"vol-lengths", "mc-t1", "mc-t2"}
    for seed in range(40):
        for cmd in suite.workload_commands("mc-verify", seed)[:2]:
            lengths = lengths_of(cmd)
            assert all(v > 0 for v in lengths) and lengths[0] < lengths[1]
    assert (suite.workload_commands("mc-verify", 1)[0].argv
            != suite.workload_commands("mc-verify", 2)[0].argv)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(9)]) is None
    assert run.tail([float(i) for i in range(20)]) == {"p": 50.0, "value": 9.0}
    assert run.tail([float(i) for i in range(1000)])["p"] == 99.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.LAYER_MOVES) == set(run.PER_LAYER)


def _rows(workload: str, values: list[float], metric: str = "wall_s") -> list[str]:
    return [json.dumps({"workload": workload, "seed": i, "result": {
        "correct": True, "metrics": {metric: {"value": v, "unit": "s"}}}}) for i, v in enumerate(values)]


def test_steady_compare_enforces_bounds(tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady_vals = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]

    def write(name: str, scale: float = 1.0, values=steady_vals, only=None) -> str:
        lines = []
        for w in spec["workloads"]:
            for m in spec["end_to_end"]:
                vals = (only or {}).get(m["name"], values)
                lines += _rows(w["name"], [v * scale for v in vals], m["name"])
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    a = write("a.jsonl")
    assert steady.main(["compare", a, write("b.jsonl", 1.01)]) == 0
    assert steady.main(["compare", a, write("slow.jsonl", 1.5)]) == 1
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert steady.main(["compare", write("wide.jsonl", values=wide)]) == 1
    assert steady.main(["compare", write("wide_setup.jsonl", only={"setup_s": wide})]) == 1
    capsys.readouterr()


# -- smoke runs of the whole benchmark ------------------------------------------------

@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = bench("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def test_smoke_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "moment-series", "--seed", "4", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stdout[-3000:]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for fam in ("htc", "two-three", "full", "graph"):
        assert metrics[f"trees.count.{fam}"] == int(suite.golden(f"trees-{fam}-n5.txt"))
    assert metrics["genfun.r_terms.cap8"] == len(suite.parse_poly(suite.golden("gf-r4.txt").decode()))
    assert metrics["montecarlo.sampled_units"] > 0
    assert metrics["cli.stdout_bytes"] == sum(
        len(suite.golden(name)) for name in ("vol-n5.txt", "gf-r4.txt", "gf-h3-json.txt"))


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "tree-sums", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
