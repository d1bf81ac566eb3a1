"""Workloads, seeded inputs and output gates of the wptrees benchmark.

A workload is a list of CLI commands.  Each command is an argv for the
``wptrees`` entry point plus a gate: a function of the command's stdout (and
exit code) that returns a list of problems, empty when the output is right.
Exact commands whose argv does not depend on the seed are compared byte
for byte with golden outputs captured from the seed commit (``golden/``);
seeded commands, and the fixed-seed acceptance run of the sampler, are
checked against the benchmark's own exact evaluation of golden polynomials.
Independent of both, the constant term of V_{0,n} is checked against
Zograf's closed recursion.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("tree-sums", "moment-series", "mc-verify")
MC_SIGMA = 5  # |z| < 5: a correct sampler fails this by chance ~6e-7 of runs


# -- sizes ------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Problem sizes: the measured configuration and the smoke test one."""

    tree_n: int       # tree-sums: V_{0,n}, H_n and family enumeration
    series_n: int     # moment-series: recursion route for V_{0,n}
    r_cap: int        # moment-series: gf --target r --order
    h_cap: int        # moment-series: gf --target h --order
    mc_n: int         # mc-verify: seeded V_{0,n} run at 1 and 2 threads
    mc_samples: int
    accept_samples: int  # the seed-42 acceptance configuration (n = 5)


FULL = Sizes(tree_n=7, series_n=9, r_cap=8, h_cap=7, mc_n=6,
             mc_samples=200_000, accept_samples=1_000_000)
SMOKE = Sizes(tree_n=5, series_n=5, r_cap=4, h_cap=3, mc_n=5,
              mc_samples=4_000, accept_samples=4_000)


# -- seeded inputs ----------------------------------------------------------

def seeded_lengths(rng: random.Random, n: int) -> list[Fraction]:
    """n positive exact rationals with L1 < L2 (the half-tight side condition
    the Monte Carlo sampler needs; harmless for the volume routes)."""
    while True:
        lengths = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)]
        if lengths[0] < lengths[1]:
            return lengths


def lengths_arg(lengths: list[Fraction]) -> str:
    return ",".join(str(v) for v in lengths)


# -- text polynomials -------------------------------------------------------

_COEFF = re.compile(r"\d+(/\d+)?")
_ATOM = re.compile(r"(pi2|L\d+|m\d+|r|t\d+|gam\d+|invgam1)(\^(\d+))?")


def parse_poly(text: str) -> dict[tuple, Fraction]:
    """Parse the CLI's canonical text form into {monomial: coefficient}.

    A monomial is a sorted tuple of (atom name, exponent) pairs; squared
    lengths keep the CLI's convention, so ``L3^4`` is ("L3", 2).
    """
    text = text.strip()
    out: dict[tuple, Fraction] = {}
    if text == "0":
        return out
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for s, body in zip(signs, pieces[0::2]):
        factors = body.split("*")
        coeff = Fraction(1)
        if _COEFF.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
        mono = []
        for f in factors:
            m = _ATOM.fullmatch(f)
            if m is None:
                raise ValueError(f"cannot parse factor {f!r}")
            e = int(m.group(3) or 1)
            if m.group(1).startswith("L"):
                if e % 2:
                    raise ValueError(f"odd length power in {f!r}")
                e //= 2
            mono.append((m.group(1), e))
        key = tuple(sorted(mono))
        if key in out:
            raise ValueError(f"repeated monomial {body!r}")
        out[key] = s * coeff
    return out


def eval_lengths(poly: dict[tuple, Fraction], squares: dict[str, Fraction]) -> dict[int, Fraction]:
    """Substitute L_i^2 -> squares["Li"]; returns {pi2 power: coefficient}."""
    out: dict[int, Fraction] = {}
    for mono, c in poly.items():
        k = 0
        for name, e in mono:
            if name == "pi2":
                k = e
            else:
                c *= squares[name] ** e
        out[k] = out.get(k, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


# -- Zograf's recursion for the constant term -------------------------------

def zograf_constant(n: int) -> Fraction:
    """Coefficient of pi^(2(n-3)) in V_{0,n}(0) (P. Zograf, Contemp. Math. 150,
    1993): v_3 = 1,
    v_n = 1/2 sum_{i=1}^{n-3} i(n-i-2)/(n-1) C(n-4,i-1) C(n,i+1) v_{i+2} v_{n-i},
    V_{0,n}(0) = 2^(n-3)/(n-3)! v_n pi^(2(n-3))."""
    v = {3: Fraction(1)}
    for m in range(4, n + 1):
        v[m] = Fraction(1, 2) * sum(
            Fraction(i * (m - i - 2), m - 1) * math.comb(m - 4, i - 1)
            * math.comb(m, i + 1) * v[i + 2] * v[m - i]
            for i in range(1, m - 2))
    return Fraction(2 ** (n - 3), math.factorial(n - 3)) * v[n]


# -- gates ------------------------------------------------------------------

def golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def gate_golden(out: bytes, name: str) -> list[str]:
    want = golden(name)
    if out == want:
        return []
    return [f"stdout differs from golden/{name} ({len(out)} vs {len(want)} bytes)"]


def gate_zograf(out: bytes, n: int) -> list[str]:
    try:
        poly = parse_poly(out.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"unparseable polynomial: {exc}"]
    got = poly.get((("pi2", n - 3),), Fraction(0))
    want = zograf_constant(n)
    if got != want:
        return [f"V_0,{n}(0) = {got}*pi2^{n - 3}, Zograf gives {want}"]
    return []


def gate_lengths_eval(out: bytes, n: int, lengths: list[Fraction], golden_name: str) -> list[str]:
    """The JSON of ``vol --lengths`` against the exact evaluation of the
    golden V_{0,n} at those lengths."""
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["not a JSON object"]
    want_terms = [
        {"coeff": str(c), "pi2": k, "L": [], "m": []}
        for k, c in sorted(eval_lengths(parse_poly(golden(golden_name).decode()),
                                        {f"L{i}": v * v for i, v in enumerate(lengths, 1)}).items())]
    problems = []
    for key, want in (("command", "vol"), ("n", n), ("method", "tree"),
                      ("lengths", [str(v) for v in lengths]), ("terms", want_terms)):
        if payload.get(key) != want:
            problems.append(f"{key}: got {payload.get(key)!r:.120}, want {want!r:.120}")
    return problems


def mc_report(out: bytes) -> dict:
    """The first stdout line of ``verify mc``: the JSON report."""
    return json.loads(out.split(b"\n", 1)[0])


def mc_reference(golden_name: str, lengths: list[Fraction]) -> float:
    """What ``verify mc`` must print as ``reference``: the golden polynomial
    evaluated exactly at the binary64 values of pi^2 and L_i^2, rounded once."""
    squares = {f"L{i}": Fraction(float(v * v)) for i, v in enumerate(lengths, 1)}
    by_pi2 = eval_lengths(parse_poly(golden(golden_name).decode()), squares)
    pi2 = Fraction(math.pi ** 2)
    return float(sum((c * pi2 ** k for k, c in by_pi2.items()), Fraction(0)))


def gate_mc(out: bytes, golden_name: str, lengths: list[Fraction], samples: int, seed: int) -> list[str]:
    try:
        rep = mc_report(out)
    except ValueError as exc:
        return [f"MC report is not JSON: {exc}"]
    if not isinstance(rep, dict):
        return ["MC report is not a JSON object"]
    problems = []
    want = mc_reference(golden_name, lengths)
    if rep.get("reference") != want:
        problems.append(f"reference {rep.get('reference')!r} != exact {want!r}")
    z = rep.get("z_score")
    if not isinstance(z, float) or not abs(z) < MC_SIGMA:
        problems.append(f"|z| = {z!r} is not < {MC_SIGMA}")
    if rep.get("samples") != samples or rep.get("seed") != seed:
        problems.append("samples/seed echo mismatch")
    if not rep.get("per_tree"):
        problems.append("empty per_tree")
    return problems


ACCEPT_LENGTHS = [Fraction(v) for v in (1, 2, 1, 1, 1)]


def gate_acceptance(out: bytes, samples: int) -> list[str]:
    """The seed-42 acceptance run (``--ablation``): its first report has the
    exact reference and |z| < 5, and both of its checks print PASS.  The
    sampled figures are not pinned, so a sampler that draws differently
    for the same (seed, samples) still passes."""
    problems = gate_mc(out, "vol-n5.txt", ACCEPT_LENGTHS, samples, 42)
    verdicts = [line.split()[:2] for line in out.splitlines() if not line.startswith(b"{")]
    if verdicts != [[b"PASS", b"mc-z-score"], [b"PASS", b"mc-ablation"]]:
        problems.append(f"verdict lines {verdicts!r}, want PASS mc-z-score and PASS mc-ablation")
    return problems


def sampled_units(out: bytes) -> int:
    """Per-tree rows of a ``verify mc`` report that were actually sampled."""
    return sum(1 for row in mc_report(out)["per_tree"] if not row["exact"])


# -- commands and workloads -------------------------------------------------

Gate = Callable[[bytes, dict], list]


@dataclass
class Command:
    """One CLI invocation; ``gate(stdout, outputs_so_far)`` lists problems.

    ``golden_name`` is set for commands gated byte for byte against golden
    output; ``run.py --capture-golden`` captures them.
    """

    label: str
    argv: list[str]
    gate: Gate
    golden_name: str | None = None


def _golden_cmd(label: str, argv: list[str], name: str, extra: Gate | None = None) -> Command:
    def gate(out: bytes, _seen: dict) -> list[str]:
        return gate_golden(out, name) + (extra(out, _seen) if extra else [])
    return Command(label, argv, gate, golden_name=name)


def workload_commands(workload: str, seed: int, sizes: Sizes = FULL) -> list[Command]:
    """The commands of one pass over ``workload`` with inputs from ``seed``."""
    rng = random.Random(f"wptrees-bench/{workload}/{seed}")
    s = sizes
    if workload == "tree-sums":
        n = s.tree_n
        vname = f"vol-n{n}.txt"
        lengths = seeded_lengths(rng, n)
        zog = lambda out, _seen: gate_zograf(out, n)  # noqa: E731
        return [
            _golden_cmd("vol-tree", ["vol", "--n", str(n)], vname, zog),
            _golden_cmd("vol-graph-sum", ["vol", "--n", str(n), "--method", "graph-sum"], vname),
            _golden_cmd("vol-decomposition", ["vol", "--n", str(n), "--method", "decomposition"], vname),
            _golden_cmd("htc", ["htc", "--n", str(n)], f"htc-n{n}.txt"),
            Command("vol-lengths",
                    ["vol", "--n", str(n), "--lengths", lengths_arg(lengths), "--format", "json"],
                    lambda out, _seen: gate_lengths_eval(out, n, lengths, vname)),
        ]
    if workload == "moment-series":
        n = s.series_n
        return [
            _golden_cmd("vol-recursion", ["vol", "--n", str(n), "--method", "recursion"],
                        f"vol-n{n}.txt", lambda out, _seen: gate_zograf(out, n)),
            _golden_cmd("gf-r", ["gf", "--target", "r", "--order", str(s.r_cap)], f"gf-r{s.r_cap}.txt"),
            _golden_cmd("gf-h-json", ["gf", "--target", "h", "--order", str(s.h_cap), "--format", "json"],
                        f"gf-h{s.h_cap}-json.txt"),
        ]
    if workload == "mc-verify":
        n = s.mc_n
        lengths = seeded_lengths(rng, n)
        mc_seed = rng.randrange(2 ** 31)
        common = ["verify", "mc", "--n", str(n), "--lengths", lengths_arg(lengths),
                  "--samples", str(s.mc_samples), "--seed", str(mc_seed), "--sigma", str(MC_SIGMA)]
        vname = f"vol-n{n}.txt"

        def gate_t1(out: bytes, _seen: dict) -> list[str]:
            return gate_mc(out, vname, lengths, s.mc_samples, mc_seed)

        def gate_t2(out: bytes, seen: dict) -> list[str]:
            if seen.get("mc-t1") is not None and out != seen["mc-t1"]:
                return ["stdout at --threads 2 differs from --threads 1"]
            return gate_t1(out, seen)

        accept = ["--threads", "2", "verify", "mc", "--n", "5", "--lengths", lengths_arg(ACCEPT_LENGTHS),
                  "--samples", str(s.accept_samples), "--seed", "42", "--ablation"]
        return [
            Command("mc-t1", ["--threads", "1"] + common, gate_t1),
            Command("mc-t2", ["--threads", "2"] + common, gate_t2),
            Command("mc-acceptance", accept, lambda out, _seen: gate_acceptance(out, s.accept_samples)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def layer_commands(sizes: Sizes = FULL) -> list[Command]:
    """Fresh-process enumerations of each tree family (traced run only):
    cached trees of one family would skew another family's timing."""
    n = sizes.tree_n
    return [_golden_cmd(f"trees-{fam}", ["trees", "--family", fam, "--n", str(n), "--count"],
                        f"trees-{fam}-n{n}.txt")
            for fam in ("htc", "two-three", "full", "graph")]


def capture_commands(sizes: Sizes) -> list[Command]:
    """Every golden-gated command, plus the recursion route at the tree size
    and the V_{0,n} the Monte Carlo references are checked against."""
    cmds = [c for w in WORKLOADS for c in workload_commands(w, 0, sizes) if c.golden_name]
    cmds += layer_commands(sizes)
    n = sizes.tree_n
    cmds.append(Command("vol-recursion-tree-n", ["vol", "--n", str(n), "--method", "recursion"],
                        lambda out, _s: [], golden_name=f"vol-n{n}.txt"))
    for k in sorted({sizes.mc_n, len(ACCEPT_LENGTHS)} - {n, sizes.series_n}):
        cmds.append(Command(f"vol-mc-n{k}", ["vol", "--n", str(k)],
                            lambda out, _s: [], golden_name=f"vol-n{k}.txt"))
    return cmds
