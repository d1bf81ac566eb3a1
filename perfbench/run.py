"""The wptrees benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --capture-golden

Run from the root of a checkout; the package is imported from ``src/``.
Every CLI command runs in a fresh ``wptrees`` process, one at a time, and
its stdout is checked by the gate in ``suite.py``; a command that exits
non-zero or fails its gate counts as a failed op.

``--trace 0`` repeats passes over the workload's commands until S seconds
(default: ``run_seconds`` of BENCHMARK.json) have been measured and reports
the end-to-end metrics: medians over the passes, with timings scaled by a
gauge process (see ``GAUGE_CODE``).  ``--trace 1`` is the same for every
workload: it runs each command of every workload untraced and then traced
under ``spans.py``, then a fresh-process enumeration of each tree family
traced, and ``probe.py``; it reports the per-layer metrics, read from the
spans, and the tracing overhead.  The last stdout
line is one JSON object: correct, attempted, failed and metrics.  The
lines before it print every metric with its unit, and a results file with
the environment, the seed, every command's argv and all samples goes to
``perfbench/out/``.

``--all`` prints every end-to-end metric of every workload in one report.
``--capture-golden`` rewrites ``golden/`` from the current code, after
checking that the four ``vol`` routes print identical bytes; run it only
on a commit whose outputs are known to be right.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans as tracing
import suite

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
RUN_BUDGET_S = 170.0   # a run must end within 180 s
CMD_TIMEOUT_S = 120.0
SETUP_PER_CMD = 2  # setup_s samples taken before each command of a pass
# A fixed pure-Python process, independent of wptrees (exact Fraction
# products keyed by tuples, the package's own kind of work), timed before
# every command of an end-to-end run as a gauge of the machine's speed.
# Two runs in a row land on either vCPU, which can differ 1.7 times in speed.
GAUGE_PER_CMD = 2
GAUGE_CODE = """
from fractions import Fraction
a = {(i, j): Fraction(i + 1, j + 2) for i in range(40) for j in range(6)}
out = {}
for (i, j), c in a.items():
    for (k, m), d in a.items():
        if (i + k) % 7 == 0:
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
"""
GAUGE_NOMINAL_S = 0.15  # the gauge's wall time at the speed timings are scaled to
# A command's wall time moves as the gauge's to the power 0.6: the slope of
# log pass wall on log gauge wall was 0.54-0.64 for each of the three
# workloads over about 280 passes on a 2-vCPU VM.  setup_s, a short fresh
# interpreter like the gauge itself, moves with it one to one.
COMMAND_ELASTICITY = 0.6
# A traced run times these commands untraced too, for trace.overhead_s.
OVERHEAD_WORKLOAD = "tree-sums"

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower"),          # one pass over the workload's commands
    "slowest_cmd_s": ("s", "lower"),   # the slowest command of a pass
    "peak_rss_mb": ("MB", "lower"),    # highest max-RSS of any command process
    "setup_s": ("s", "lower"),         # fresh interpreter until `import wptrees` is done
}
# Reported with the end-to-end metrics but not bounded: fail_ratio is 0 on a
# correct program, and the Monte Carlo figures exist for mc-verify only.
REPORTED = {
    "fail_ratio": ("ratio", "lower"),
    "mc_draws_per_s": ("1/s", "higher"),
    "mc_var_time": ("vol2.s", "lower"),
}
PER_LAYER = {
    **{f"trees.enumerate_s.{f}": ("s", "lower") for f in ("htc", "two-three", "full", "graph")},
    **{f"trees.count.{f}": ("count", "lower") for f in ("htc", "two-three", "full", "graph")},
    "trees.rss_mb.two-three": ("MB", "lower"),
    **{f"volumes.assemble_s.{r}": ("s", "lower")
       for r in ("reduced", "graph-sum", "decomposition", "htc")},
    "volumes.summands_per_s.reduced": ("1/s", "higher"),
    "algebra.mul_small_s": ("s", "lower"),
    "algebra.accumulate_s": ("s", "lower"),
    "algebra.mul_large_s": ("s", "lower"),
    "genfun.solve_r_s.cap8": ("s", "lower"),
    "genfun.htc_genfun_s.cap7": ("s", "lower"),
    "genfun.f_substituted_s.n9": ("s", "lower"),
    "genfun.symmetric_from_moments_s.n9": ("s", "lower"),
    "genfun.r_terms.cap8": ("count", "lower"),
    "montecarlo.sample_s.t1": ("s", "lower"),
    "montecarlo.sample_s.t2": ("s", "lower"),
    "montecarlo.draws_per_s.t2": ("1/s", "higher"),
    "montecarlo.scaling_eff": ("ratio", "higher"),
    "montecarlo.sampled_units": ("count", "lower"),
    "montecarlo.reference_s": ("s", "lower"),
    "cli.import_s.numpy": ("s", "lower"),
    "cli.import_s.wptrees": ("s", "lower"),
    "cli.render_s.text": ("s", "lower"),
    "cli.render_s.json": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "mc_draws_per_s": REPORTED["mc_draws_per_s"],
    "mc_var_time": REPORTED["mc_var_time"],
    "trace.overhead_s": ("s", "lower"),
}


def _map(prefix: str, targets: list[str]) -> dict[str, list[str]]:
    return {m: targets for m in PER_LAYER if m.startswith(prefix)}


# The end-to-end metric (workload:metric) each per-layer metric should move.
LAYER_MOVES = {
    **_map("trees.", ["tree-sums:wall_s", "tree-sums:peak_rss_mb"]),
    **_map("volumes.", ["tree-sums:wall_s", "tree-sums:slowest_cmd_s"]),
    "algebra.mul_small_s": ["tree-sums:wall_s"],
    "algebra.accumulate_s": ["tree-sums:wall_s"],
    "algebra.mul_large_s": ["moment-series:wall_s"],
    **_map("genfun.", ["moment-series:wall_s", "moment-series:slowest_cmd_s"]),
    **_map("montecarlo.", ["mc-verify:wall_s", "mc-verify:mc_draws_per_s", "mc-verify:mc_var_time"]),
    **_map("cli.import_s.", ["tree-sums:setup_s", "moment-series:setup_s", "mc-verify:setup_s"]),
    **_map("cli.render_s.", ["moment-series:wall_s"]),
    "cli.stdout_bytes": ["moment-series:wall_s"],
    "mc_draws_per_s": ["mc-verify:wall_s"],
    "mc_var_time": ["mc-verify:wall_s"],
    "trace.overhead_s": [],
}


# -- processes ----------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(args: list[str], deadline: float) -> Proc:
    """Run one process to completion with stdout/stderr in files of the
    checkout; wall time and max RSS come from the process itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(min(CMD_TIMEOUT_S, max(0.0, deadline - time.monotonic())), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, out.read(), err.read())


def cli_args(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "wptrees.cli", *argv]


@dataclass
class Op:
    """One command run and its verdict."""

    label: str
    argv: list[str]
    proc: Proc
    problems: list[str]
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Runs passes and counts ops; ``traced`` runs commands under spans.py."""

    def __init__(self, deadline: float, run_id: str):
        self.deadline = deadline
        self.run_id = run_id
        self.ops: list[Op] = []

    def run(self, cmd: suite.Command, seen: dict, traced: bool = False) -> Op:
        if time.monotonic() >= self.deadline:
            raise TimeoutError("run budget exhausted")
        spans_file = None
        if traced:
            spans_file = OUT_DIR / f"spans-{os.getpid()}-{len(self.ops)}.json"
            args = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_file),
                    f"{self.run_id}/{len(self.ops)}", "--", *cmd.argv]
        else:
            args = cli_args(cmd.argv)
        proc = spawn(args, self.deadline)
        problems = []
        if proc.code != 0:
            problems.append(f"exit code {proc.code}: {proc.stderr[-400:].decode(errors='replace')}")
        else:
            problems += cmd.gate(proc.stdout, seen)
        seen[cmd.label] = proc.stdout
        op = Op(cmd.label, cmd.argv, proc, problems)
        if spans_file is not None:
            try:
                op.spans = json.loads(spans_file.read_text())["spans"]
                spans_file.unlink()
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"no spans: {exc}")
        self.ops.append(op)
        return op

    def run_pass(self, cmds: list[suite.Command], traced: bool = False) -> list[Op]:
        seen: dict = {}
        return [self.run(c, seen, traced) for c in cmds]


def measure_setup(deadline: float, samples: int) -> list[float]:
    """Fresh interpreter until ``import wptrees`` is done (the child reads
    the same monotonic clock).  Call it once before measuring, so that no
    sample pays for compiling the package."""
    code = "import time, wptrees; print(time.monotonic())"
    out = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = spawn([sys.executable, "-c", code], deadline)
        if proc.code != 0:
            raise RuntimeError(f"import wptrees failed: {proc.stderr.decode(errors='replace')}")
        out.append(float(proc.stdout) - t0)
    return out


# -- statistics -----------------------------------------------------------------

def tail(values: list[float]) -> dict | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, -(-int(p * n) // 100))  # nearest rank, ceil(p n / 100)
        if n - rank >= 10:
            return {"p": p, "value": xs[rank - 1]}
    return None


def timing(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "tail": tail(values),
            "samples": values}


# -- end-to-end run ---------------------------------------------------------------

def mc_figures(ops: list[Op]) -> dict[str, float]:
    """mc_draws_per_s and mc_var_time from the seeded --threads 2 command."""
    t2 = [op for op in ops if op.label == "mc-t2" and op.ok]
    if not t2:
        return {}
    rates, var_times = [], []
    for op in t2:
        units = suite.sampled_units(op.proc.stdout)
        rep = suite.mc_report(op.proc.stdout)
        rates.append(units * rep["samples"] / op.proc.wall)
        var_times.append(rep["std_error"] ** 2 * op.proc.wall)
    return {"mc_draws_per_s": statistics.median(rates),
            "mc_var_time": statistics.median(var_times)}


def end_to_end(workload: str, seed: int, seconds: float, sizes: suite.Sizes,
               deadline: float, runner: Runner) -> tuple[dict, dict]:
    cmds = suite.workload_commands(workload, seed, sizes)
    measure_setup(deadline, 1)  # compile the package once, unmeasured
    passes: list[list[Op]] = []
    gauge: list[list[float]] = []  # per pass, GAUGE_PER_CMD walls before each command
    setup: list[list[float]] = []  # per pass, SETUP_PER_CMD before each command
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        seen: dict = {}
        ops, gauge_walls, setup_walls = [], [], []
        for cmd in cmds:
            gauge_walls += [spawn([sys.executable, "-c", GAUGE_CODE], deadline).wall
                            for _ in range(GAUGE_PER_CMD)]
            setup_walls += measure_setup(deadline, SETUP_PER_CMD)
            ops.append(runner.run(cmd, seen))
        passes.append(ops)
        gauge.append(gauge_walls)
        setup.append(setup_walls)
    # On a shared 2-core VM single commands vary by 20-30% from pass to
    # pass, which medians over the passes absorb, and the machine's speed
    # drifts by up to 1.9 times over minutes, which they cannot.  The gauge
    # processes run before each command track the drift: each pass's timings
    # are scaled to the speed at which the pass's median gauge would take
    # GAUGE_NOMINAL_S.
    speeds = [GAUGE_NOMINAL_S / statistics.median(g) for g in gauge]
    walls = [sum(op.proc.wall for op in p) for p in passes]
    slowest = [max(op.proc.wall for op in p) for p in passes]
    scaled = {
        "wall_s": [w * v ** COMMAND_ELASTICITY for w, v in zip(walls, speeds)],
        "slowest_cmd_s": [w * v ** COMMAND_ELASTICITY for w, v in zip(slowest, speeds)],
        "setup_s": [x * v for xs, v in zip(setup, speeds) for x in xs],
    }
    unscaled = {"wall_s": walls, "slowest_cmd_s": slowest, "setup_s": [x for xs in setup for x in xs]}
    metrics = {
        "wall_s": statistics.median(scaled["wall_s"]),
        "slowest_cmd_s": statistics.median(scaled["slowest_cmd_s"]),
        "peak_rss_mb": max(op.proc.rss_mb for p in passes for op in p),
        "setup_s": statistics.median(scaled["setup_s"]),
    }
    ops = [op for p in passes for op in p]
    extra = {"fail_ratio": sum(not op.ok for op in ops) / len(ops), **mc_figures(ops)}
    detail = {
        "passes": len(passes),
        "speeds": speeds,
        "unscaled": {k: statistics.median(v) for k, v in unscaled.items()},
        "gauge_s": timing([x for g in gauge for x in g]),
        "timings": {**{k: timing(v) for k, v in scaled.items()},
                    **{f"unscaled.{k}": timing(v) for k, v in unscaled.items()},
                    **{f"cmd.{c.label}": timing([p[i].proc.wall for p in passes])
                       for i, c in enumerate(cmds)}},
        "reported": extra,
    }
    return metrics, detail


# -- traced run ----------------------------------------------------------------------

def _one(ops: list[Op], label: str) -> Op:
    found = [op for op in ops if op.label == label]
    if len(found) != 1:
        raise KeyError(f"expected one traced {label!r} command, found {len(found)}")
    return found[0]


def _span(op: Op, name: str) -> dict:
    found = tracing.outermost(op.spans, name)
    if len(found) != 1:
        raise KeyError(f"{op.label}: expected one outermost {name!r} span, found {len(found)}")
    return found[0]


def probe_metrics(probe: dict) -> dict[str, float]:
    """The per-layer metrics that ``probe.py`` measures in process."""
    return {"algebra.mul_small_s": probe["mul_small_s"],
            "algebra.accumulate_s": probe["accumulate_s"],
            "algebra.mul_large_s": probe["mul_large_s"],
            "cli.render_s.text": probe["render_text_s"],
            "cli.render_s.json": probe["render_json_s"]}


def layer_metrics(traced: list[Op], sizes: suite.Sizes) -> dict[str, float]:
    """Per-layer metrics from the spans and outputs of the traced commands."""
    m: dict[str, float] = {}
    for fam in ("htc", "two-three", "full", "graph"):
        op = _one(traced, f"trees-{fam}")
        m[f"trees.enumerate_s.{fam}"] = tracing.duration(_span(op, "trees.enumerate_family"))
        m[f"trees.count.{fam}"] = int(op.proc.stdout)
    m["trees.rss_mb.two-three"] = _one(traced, "trees-two-three").proc.rss_mb
    for metric, label, fn in (("reduced", "vol-tree", "v0n_reduced"),
                              ("graph-sum", "vol-graph-sum", "v0n_graph_sum"),
                              ("decomposition", "vol-decomposition", "full_decomposition_v0n"),
                              ("htc", "htc", "htc_volume")):
        op = _one(traced, label)
        m[f"volumes.assemble_s.{metric}"] = tracing.self_time(op.spans, _span(op, f"volumes.{fn}"))
    m["volumes.summands_per_s.reduced"] = m["trees.count.two-three"] / m["volumes.assemble_s.reduced"]

    solve = _span(_one(traced, "gf-r"), "genfun.solve_r")
    m["genfun.solve_r_s.cap8"] = tracing.duration(solve)
    m["genfun.htc_genfun_s.cap7"] = tracing.duration(_span(_one(traced, "gf-h-json"), "genfun.htc_genfun"))
    rec = _one(traced, "vol-recursion")
    m["genfun.f_substituted_s.n9"] = tracing.duration(_span(rec, "genfun.f_substituted"))
    m["genfun.symmetric_from_moments_s.n9"] = tracing.duration(_span(rec, "genfun.symmetric_from_moments"))
    m["genfun.r_terms.cap8"] = solve["size"]

    sample = {}
    for t in ("t1", "t2"):
        op = _one(traced, f"mc-{t}")
        span = _span(op, "montecarlo.mc_full_volume")
        sample[t] = tracing.self_time(op.spans, span)
        m[f"montecarlo.sample_s.{t}"] = sample[t]
        if t == "t1":
            m["montecarlo.reference_s"] = sum(
                tracing.duration(s) for s in tracing.children(op.spans, span)
                if s["name"].startswith(("volumes.", "algebra.")))
    t1 = _one(traced, "mc-t1")
    units = suite.sampled_units(t1.proc.stdout)
    m["montecarlo.sampled_units"] = units
    m["montecarlo.draws_per_s.t2"] = units * sizes.mc_samples / sample["t2"]
    m["montecarlo.scaling_eff"] = sample["t1"] / (2 * sample["t2"])
    m.update(mc_figures(traced))

    imports = {k: [tracing.duration(s) for op in traced for s in op.spans if s["name"] == f"cli.import.{k}"]
               for k in ("numpy", "wptrees")}
    m["cli.import_s.numpy"] = statistics.median(imports["numpy"])
    m["cli.import_s.wptrees"] = statistics.median(imports["wptrees"])
    return m


def traced_run(seed: int, sizes: suite.Sizes, deadline: float, runner: Runner) -> tuple[dict, dict]:
    """The same for every workload, so that each per-layer metric means one
    thing whichever workload a traced run is started for."""
    measure_setup(deadline, 1)  # compile once so neither side pays for it
    # The commands of OVERHEAD_WORKLOAD run untraced and then traced, back
    # to back, so that the machine's drift cancels out of the overhead as
    # far as it can; the other workloads run traced only.
    plain: list[Op] = []
    by_workload: dict[str, list[Op]] = {}
    for workload in suite.WORKLOADS:
        seen_plain: dict = {}
        seen_traced: dict = {}
        for cmd in suite.workload_commands(workload, seed, sizes):
            if workload == OVERHEAD_WORKLOAD:
                plain.append(runner.run(cmd, seen_plain))
            by_workload.setdefault(workload, []).append(runner.run(cmd, seen_traced, traced=True))
    untraced_wall = sum(op.proc.wall for op in plain)
    traced_wall = sum(op.proc.wall for op in by_workload[OVERHEAD_WORKLOAD])
    traced = [op for ops in by_workload.values() for op in ops]
    traced += runner.run_pass(suite.layer_commands(sizes), traced=True)
    metrics = layer_metrics(traced, sizes)
    metrics["cli.stdout_bytes"] = sum(len(op.proc.stdout) for op in by_workload["moment-series"])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    proc = spawn([sys.executable, str(BENCH_DIR / "probe.py"),
                  str(sizes.tree_n), str(sizes.r_cap), str(sizes.series_n)], deadline)
    probe_problems = [] if proc.code == 0 else [f"probe exit {proc.code}: {proc.stderr[-400:]!r}"]
    probe = json.loads(proc.stdout) if proc.code == 0 else {}
    if probe and not probe["ok"]:
        probe_problems.append("probe operands do not reproduce the golden outputs")
    runner.ops.append(Op("probe", ["probe.py"], proc, probe_problems))
    if probe:
        metrics.update(probe_metrics(probe))
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "probe": probe,
              "spans": {op.label: op.spans for op in traced}}
    return metrics, detail


# -- environment, report, results ----------------------------------------------------

def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no .git
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"seed": seed, "commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def report_lines(workload: str, metrics: dict, units: dict, detail: dict) -> list[str]:
    lines = []
    timings = detail.get("timings", {})
    for name, value in metrics.items():
        unit, better = units[name]
        line = f"{workload:<14} {name:<36} {value:>16.6g} {unit:<7} ({better} is better)"
        t = timings.get(name)
        if t:
            tail_text = (f"p{t['tail']['p']:g}={t['tail']['value']:.4g}" if t["tail"]
                         else "no percentile with 10 samples beyond")
            line += f"  median of n={t['n']}, {tail_text}"
            raw = timings.get(f"unscaled.{name}")
            if raw:
                line += f", unscaled median {raw['median']:.4g}"
        lines.append(line)
    return lines


def write_results(record: dict) -> Path | None:
    name = (f"{time.strftime('%Y%m%dT%H%M%S')}-{record['workload']}"
            f"-s{record['env']['seed']}-t{record['trace']}.json")
    try:
        path = OUT_DIR / name
        path.write_text(json.dumps(record, indent=1, default=str))
        return path
    except OSError as exc:
        print(f"warning: results not written: {exc}", file=sys.stderr)
        return None


def op_record(op: Op) -> dict:
    return {"label": op.label, "argv": op.argv, "exit": op.proc.code, "wall_s": op.proc.wall,
            "rss_mb": op.proc.rss_mb, "stdout_bytes": len(op.proc.stdout), "problems": op.problems}


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: suite.Sizes,
          deadline: float) -> dict:
    runner = Runner(deadline, f"{workload}/{seed}/{os.getpid()}")
    error = None
    metrics: dict = {}
    detail: dict = {}
    try:
        if trace:
            metrics, detail = traced_run(seed, sizes, deadline, runner)
        else:
            metrics, detail = end_to_end(workload, seed, seconds, sizes, deadline, runner)
    except (KeyError, ValueError, TypeError, TimeoutError, RuntimeError, ZeroDivisionError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    failed = sum(not op.ok for op in runner.ops) + (error is not None)
    attempted = len(runner.ops) + (error is not None)
    units = PER_LAYER if trace else END_TO_END
    return {"workload": workload, "trace": int(trace), "smoke": sizes is suite.SMOKE,
            "env": environment(seed), "error": error,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "units": {k: units[k] for k in metrics if k in units},
            "layer_moves": LAYER_MOVES, "detail": detail,
            "ops": [op_record(op) for op in runner.ops]}


def result_line(record: dict, trace: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    return {"correct": record["failed"] == 0 and set(record["metrics"]) >= set(names),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": record["metrics"][k], "unit": names[k][0]}
                        for k in names if k in record["metrics"]}}


def print_record(record: dict) -> None:
    env = record["env"]
    print(f"# wptrees benchmark: workload={record['workload']} seed={env['seed']} "
          f"trace={record['trace']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit']} src={env['source_sha256'][:12]}")
    for op in record["ops"]:
        status = "ok" if not op["problems"] else "FAIL " + "; ".join(op["problems"])
        print(f"#   {op['wall_s']:8.3f} s {op['rss_mb']:7.1f} MB  wptrees {' '.join(op['argv'])}  [{status}]")
    if record["error"]:
        print(f"# error: {record['error']}")
    units = {**END_TO_END, **REPORTED, **PER_LAYER}
    shown = dict(record["metrics"])
    shown.update(record["detail"].get("reported", {}))
    for line in report_lines(record["workload"], shown, units, record["detail"]):
        print(line)
    if "speeds" in record["detail"]:
        d = record["detail"]
        print(f"# each pass scaled by speed = {GAUGE_NOMINAL_S} s / its median gauge wall "
              f"(commands by speed^{COMMAND_ELASTICITY}, setup_s by speed): "
              + ", ".join(f"{v:.4g}" for v in d["speeds"])
              + f" (gauge median {d['gauge_s']['median']:.4g} s, n={d['gauge_s']['n']})")
    print(f"{record['workload']:<14} {'ops':<36} {record['attempted']:>16d} count   "
          f"({record['failed']} failed)")


# -- golden capture ----------------------------------------------------------------

def capture_golden(deadline: float) -> int:
    suite.GOLDEN_DIR.mkdir(exist_ok=True)
    for sizes in (suite.FULL, suite.SMOKE):
        outputs: dict[str, bytes] = {}
        for cmd in suite.capture_commands(sizes):
            proc = spawn(cli_args(cmd.argv), deadline)
            if proc.code != 0:
                print(f"FAIL {cmd.argv}: exit {proc.code}", file=sys.stderr)
                return 1
            prior = outputs.setdefault(cmd.golden_name, proc.stdout)
            if prior != proc.stdout:
                print(f"FAIL {cmd.argv}: differs from another route of {cmd.golden_name}",
                      file=sys.stderr)
                return 1
            print(f"captured {cmd.golden_name:<28} {len(proc.stdout):>8} bytes  {' '.join(cmd.argv)}")
        for name, data in outputs.items():
            if name.startswith("vol-n"):
                n = int(name[5:-4])
                problems = suite.gate_zograf(data, n)
                if problems:
                    print(f"FAIL {name}: {problems}", file=sys.stderr)
                    return 1
            (suite.GOLDEN_DIR / name).write_bytes(data)
    return 0


# -- entry point ------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n=5, cap 4, a few thousand samples) for self-tests")
    parser.add_argument("--all", action="store_true", help="every workload, end-to-end report")
    parser.add_argument("--capture-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "wptrees" / "cli.py").is_file():
        print(f"error: no wptrees sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.capture_golden:
        return capture_golden(time.monotonic() + 600)
    sizes = suite.SMOKE if args.smoke else suite.FULL
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.all:
        records = [bench(w, args.seed, args.seconds, False, sizes, time.monotonic() + RUN_BUDGET_S)
                   for w in suite.WORKLOADS]
        for record in records:
            print_record(record)
            write_results(record)
        return 0 if all(r["failed"] == 0 for r in records) else 1
    if args.workload is None:
        parser.error("--workload is required")
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace), sizes, deadline)
    path = write_results(record)
    print_record(record)
    if path is not None:
        print(f"# results: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
