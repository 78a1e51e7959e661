"""Spans around calls into graphspec's public functions, for the traced run.

``Tracer.install`` replaces each traced function in every module namespace
that binds it (``graphspec.secular.condition_rows``,
``graphspec.theorems.spectrum_values``, ...) and ``numpy.linalg.svd``
itself, which only the secular solver calls.  Private functions are not
wrapped; their time stays in the self time of the nearest traced caller.

One span per wrapped call: name, start, end, parent span and op id, kept
in flat arrays and written out with ``save``.  ``layer_metrics`` turns a
saved trace into the per-layer metrics.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# (span name, module that defines the function, attribute name)
TRACED = (
    ("cli.main", "graphspec.cli", "main"),
    ("theorems.verify", "graphspec.theorems", "verify"),
    ("theorems.sign_search", "graphspec.theorems", "check_cycle_sign_condition"),
    ("secular.spectrum_values", "graphspec.secular", "spectrum_values"),
    ("secular.find_spectrum", "graphspec.secular", "find_spectrum"),
    ("secular.zero_modes", "graphspec.secular", "solve_zero_modes"),
    ("secular.assemble", "graphspec.secular", "assemble"),
    ("conditions.rows", "graphspec.conditions", "condition_rows"),
    ("graph.analyze", "graphspec.graph", "analyze"),
    ("graph.parse_qgf", "graphspec.graph", "parse_qgf"),
    ("secular.svd", "numpy.linalg", "svd"),
)
NAMES = ("bench.op",) + tuple(t[0] for t in TRACED)
NAME_ID = {n: i for i, n in enumerate(NAMES)}
WEYL_MISMATCH = -1.0  # attr of a find_spectrum span that raised WeylMismatch
RAISED = -2.0  # attr of a span that raised anything else


def svd_cost(shape, compute_uv: bool) -> tuple[int, float, float]:
    """(matrices, flops, bytes) of one LAPACK SVD call, from shapes alone.

    Golub & Van Loan's counts for an m x n matrix with m >= n:
    4mn^2 - 4n^3/3 for singular values only, 4m^2n + 8mn^2 + 9n^3 with
    both singular vector sets.  Bytes are the input plus the outputs.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    if compute_uv:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
        words = m * n + n + m * m + n * n
    else:
        flops = 4 * m * n * n - 4 * n**3 / 3
        words = m * n + n
    return batch, batch * flops, batch * 8.0 * words


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")  # eigenvalues found or returned, SVD batch, or a raise marker
        self.key = array("l")  # interned (graph, spec) of a spectrum request
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.svd_flops = 0.0
        self.svd_bytes = 0.0
        self._keys: dict = {}

    def enter(self, name_id: int, key: int = -1) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.attr.append(math.nan)
        self.key.append(key)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, attr: float = math.nan) -> None:
        self.end[idx] = time.perf_counter()
        self.attr[idx] = attr
        self.stack.pop()

    def request_key(self, g, spec) -> int:
        k = (
            tuple((e.tail, e.head, e.length) for e in g.edges),
            spec.kind.value,
            tuple(sorted(spec.boundary)),
        )
        return self._keys.setdefault(k, len(self._keys))

    def _wrap(self, span: str, fn):
        nid = NAME_ID[span]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = -1
            if span in ("secular.spectrum_values", "secular.find_spectrum"):
                key = tracer.request_key(args[0], args[1])
            elif span == "secular.svd":
                uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                batch, flops, nbytes = svd_cost(np.shape(args[0]), uv)
                tracer.svd_flops += flops
                tracer.svd_bytes += nbytes
            idx = tracer.enter(nid, key)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(idx, WEYL_MISMATCH if type(exc).__name__ == "WeylMismatch" else RAISED)
                raise
            if span == "secular.find_spectrum":
                attr = out.total_count()
            elif span == "secular.spectrum_values":
                attr = len(out)
            elif span == "secular.svd":
                attr = batch
            else:
                attr = math.nan
            tracer.exit(idx, attr)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a graphspec module binds it."""
        import graphspec.cli  # noqa: F401  (cli binds find_spectrum and others at import)

        modules = [m for n, m in sys.modules.items() if n == "graphspec" or n.startswith("graphspec.")]
        for span, mod_name, attr in TRACED:
            owner = sys.modules[mod_name]
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr=np.frombuffer(self.attr, dtype=np.float64),
            key=np.frombuffer(self.key, dtype=np.int64),
            svd_flops=self.svd_flops,
            svd_bytes=self.svd_bytes,
        )


# self times that partition the traced ops: every traced layer plus the glue
SELF_TIME_METRICS = (
    "conditions.rows_s",
    "secular.assemble_self_s",
    "secular.svd_s",
    "secular.find_spectrum_self_s",
    "secular.zero_modes_s",
    "secular.values_self_s",
    "graph.analyze_s",
    "graph.parse_qgf_s",
    "cli.main_self_s",
    "theorems.verify_self_s",
    "theorems.sign_search_s",
    "bench.glue_s",
)


def self_times(trace) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus direct children) of every span."""
    dur = trace["end"] - trace["start"]
    covered = np.zeros_like(dur)
    parent = trace["parent"]
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered


def layer_metrics(trace) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see bench/README.md)."""
    name, parent, attr, key = trace["name"], trace["parent"], trace["attr"], trace["key"]
    dur, own = self_times(trace)

    def sel(span):
        return name == NAME_ID[span]

    def calls(span):
        return int(np.count_nonzero(sel(span)))

    def self_s(span):
        return float(own[sel(span)].sum())

    fs = sel("secular.find_spectrum")
    sv = sel("secular.spectrum_values")
    svd = sel("secular.svd")
    found = attr[fs & (attr >= 0)].sum()
    k_evals = float(attr[svd & (attr >= 0)].sum())
    under_values = fs & (parent >= 0) & (name[np.maximum(parent, 0)] == NAME_ID["secular.spectrum_values"])
    direct_found = attr[fs & ~under_values & (attr >= 0)].sum()
    returned = attr[sv & (attr >= 0)].sum() + direct_found

    # a spectrum request is a spectrum_values call, or a find_spectrum call
    # made outside spectrum_values; only those under theorems.verify count
    verify_id = NAME_ID["theorems.verify"]
    requests = np.flatnonzero((sv | (fs & ~under_values)))
    seen: set[int] = set()
    n_req = repeats = 0
    for i in requests:
        p = parent[i]
        while p >= 0 and name[p] != verify_id:
            p = parent[p]
        if p < 0:
            continue
        n_req += 1
        repeats += int(key[i]) in seen
        seen.add(int(key[i]))

    wall = float(dur[sel("bench.op")].sum())
    return {
        "conditions.rows_calls": calls("conditions.rows"),
        "conditions.rows_s": self_s("conditions.rows"),
        "conditions.rows_per_k_eval": calls("conditions.rows") / k_evals if k_evals else 0.0,
        "secular.assemble_calls": calls("secular.assemble"),
        "secular.assemble_self_s": self_s("secular.assemble"),
        "secular.svd_calls": calls("secular.svd"),
        "secular.svd_s": self_s("secular.svd"),
        "secular.k_evals": k_evals,
        "secular.k_evals_per_eig": k_evals / found if found else 0.0,
        "secular.svd_gflop_computed": float(trace["svd_flops"]) / 1e9,
        "secular.svd_mb_computed": float(trace["svd_bytes"]) / 1e6,
        "secular.find_spectrum_calls": calls("secular.find_spectrum"),
        "secular.find_spectrum_self_s": self_s("secular.find_spectrum"),
        "secular.zero_modes_s": self_s("secular.zero_modes"),
        "secular.values_calls": calls("secular.spectrum_values"),
        "secular.values_self_s": self_s("secular.spectrum_values"),
        "secular.find_per_values": (
            int(np.count_nonzero(under_values)) / calls("secular.spectrum_values")
            if calls("secular.spectrum_values") else 0.0
        ),
        "secular.useful_eig_frac": float(returned / found) if found else 0.0,
        "secular.weyl_mismatch": int(np.count_nonzero(fs & (attr == WEYL_MISMATCH))),
        "graph.analyze_calls": calls("graph.analyze"),
        "graph.analyze_s": self_s("graph.analyze"),
        "graph.parse_qgf_s": self_s("graph.parse_qgf"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": self_s("cli.main"),
        "theorems.verify_calls": calls("theorems.verify"),
        "theorems.verify_self_s": self_s("theorems.verify"),
        "theorems.sign_search_s": self_s("theorems.sign_search"),
        "theorems.spectrum_requests": n_req,
        "theorems.repeat_request_frac": repeats / n_req if n_req else 0.0,
        "bench.glue_s": self_s("bench.op"),
        "trace.wall_s": wall,
        "trace.spans": int(len(name)),
    }
