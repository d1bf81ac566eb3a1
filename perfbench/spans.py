"""In-memory span tracing of one ``wptrees`` CLI command.

Run as a script, it stands in for the ``wptrees`` entry point:

    python3 perfbench/spans.py SPANS_OUT TRACE_ID -- <wptrees argv>

It times the imports, wraps the public functions listed in ``TRACED`` so
that every call records a span (name, start, end, parent, trace id, result
size), runs ``wptrees.cli.main`` with the argv, writes the spans to
SPANS_OUT as JSON when the command ends and exits with the command's code.
The wrappers sit at module boundaries only; per-element helpers such as
``canonical_key``, ``weight_t`` and the atom constructors are left alone so
that tracing does not multiply the cost of the hot loops.

Imported as a module, it offers the span arithmetic the benchmark needs.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time

# Public functions (module -> names) that get a span.  Names a later version
# of the package no longer has are skipped.
TRACED = {
    "trees": ["enumerate_family", "trees_on", "brute_force_enumerate"],
    "volumes": ["htc_volume", "v0n_reduced", "v0n_graph_sum", "full_decomposition_v0n",
                "known_v0n", "is_symmetric", "is_homogeneous"],
    "algebra": ["Polynomial.text", "Polynomial.latex", "Polynomial.substitute",
                "Polynomial.eval_float", "poly_to_json_terms"],
    "genfun": ["z_series", "z_residual", "solve_r", "htc_genfun", "f_recursion",
               "f_from_trees", "f_substituted", "mu_average", "symmetric_from_moments"],
    "montecarlo": ["mc_full_volume", "mc_htc_volume"],
}
_SCALARS = (int, str, float, bool)


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, args=()) -> dict:
        stack = self._stack()
        span = {"id": len(self.spans), "parent": stack[-1] if stack else None,
                "name": name, "trace": self.trace_id,
                "args": [a if isinstance(a, _SCALARS) else type(a).__name__ for a in args],
                "start": time.perf_counter_ns(), "end": None, "size": None}
        self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict, result=None) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack().pop()
        body = getattr(result, "body", result)  # a GradedSeries counts its body
        try:
            span["size"] = len(body)
        except TypeError:
            pass

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span, result)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace": self.trace_id, "spans": self.spans}, fh)


def install(rec: Recorder) -> None:
    """Replace each traced function in every wptrees module that holds it."""
    import wptrees
    import wptrees.cli  # noqa: F401  (so that its imported names get patched)
    modules = [m for name, m in sys.modules.items()
               if name == "wptrees" or name.startswith("wptrees.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"wptrees.{layer}"]
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = rec.wrap(f"{layer}.{qual}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    out_path, trace_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_OUT TRACE_ID -- <wptrees argv>")
    rec = Recorder(trace_id)
    span = rec.open("cli.import.numpy")
    import numpy  # noqa: F401
    rec.close(span)
    span = rec.open("cli.import.wptrees")
    import wptrees.cli
    rec.close(span)
    install(rec)
    span = rec.open("cli.main")
    try:
        code = wptrees.cli.main(cli_argv)
    finally:
        rec.close(span)
        sys.stdout.flush()
        rec.dump(out_path)
    return code


# -- span arithmetic (parent side) -------------------------------------------

def duration(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_time(spans: list[dict], span: dict) -> float:
    """Duration minus the time of the span's direct children."""
    kids = sum(duration(s) for s in spans if s["parent"] == span["id"])
    return duration(span) - kids


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name or s["end"] is None:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def children(spans: list[dict], span: dict) -> list[dict]:
    return [s for s in spans if s["parent"] == span["id"]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
