"""Steadiness check: repeated runs of the benchmark, compared with its bounds.

    python3 perfbench/steady.py runs --out A.jsonl [--workloads w1,w2] [--seeds 1-10]
    python3 perfbench/steady.py compare A.jsonl [B.jsonl]

``runs`` calls the benchmark's command once per workload and seed, one at
a time, as ``BENCHMARK.json`` gives it (``--seconds run_seconds --trace 0``),
and appends each result line to a JSON-lines file.  ``compare`` reads one or
two such files of the same code.  For every workload and end-to-end metric
of ``BENCHMARK.json`` it prints the spread of each set (quartile distance
over median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
and, given two sets, how much worse the second median is than the first.
It fails when a spread exceeds the metric's bound, or when the second
median is worse by more than the bound; spreads above a third of the bound
are flagged as not steady enough.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def runs(args) -> int:
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    failures = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    failures += 1
                    print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}"
                          f"\n{proc.stderr[-2000:]}", file=sys.stderr)
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                shown = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
                print(f"{workload} seed {seed}: {shown}", flush=True)
    return 1 if failures else 0


def load_set(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the correct runs of a file."""
    values: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if not row["result"] or not row["result"]["correct"]:
            continue
        for name, metric in row["result"]["metrics"].items():
            values.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(args) -> int:
    spec = load_spec()
    sets = [load_set(p) for p in args.files]
    ok = True
    print(f"{'workload':<14} {'metric':<14} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8} {'n' + str(i + 1):>3}" for i in range(len(sets)))
        + (f" {'worse_by':>8}" if len(sets) == 2 else "") + "  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            cols, notes = [], []
            medians = []
            for i, s in enumerate(sets):
                vals = s.get(workload, {}).get(name, [])
                if len(vals) < 2:
                    cols.append(f"{'-':>10} {'-':>8} {len(vals):>3}")
                    notes.append(f"set {i + 1}: too few runs")
                    ok = False
                    medians.append(None)
                    continue
                med, spr = statistics.median(vals), spread(vals)
                medians.append(med)
                cols.append(f"{med:>10.5g} {spr:>8.4f} {len(vals):>3}")
                if spr > bound:
                    notes.append(f"set {i + 1}: spread over bound")
                    ok = False
                elif spr > bound / 3:
                    notes.append(f"set {i + 1}: spread over bound/3")
            line = f"{workload:<14} {name:<14} {bound:>6.3f} " + " ".join(cols)
            if len(sets) == 2 and None not in medians:
                w = worse_by(medians[0], medians[1], better)
                line += f" {w:>8.4f}"
                if w > bound:
                    notes.append("second median worse than bound")
                    ok = False
            print(line + "  " + ("; ".join(notes) or "ok"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_runs = sub.add_parser("runs")
    p_runs.add_argument("--out", required=True)
    p_runs.add_argument("--workloads")
    p_runs.add_argument("--seeds", default="1-10")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "compare" and len(args.files) > 2:
        parser.error("compare takes one or two files")
    return runs(args) if args.cmd == "runs" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
