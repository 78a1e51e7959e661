"""Runs one workload's ops in a fresh process: warm-up pass, then the timed pass.

Usage: python3 bench/worker.py <ops.json> <result.json> [--trace]

The harness (bench/run.py) writes the ops and the QGF graphs, starts this
process, and checks the results it writes.  Keeping the ops in their own
process keeps the oracles' time and memory out of the measurement and
gives every run a cold program: no state survives from a previous pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from calib import kernel_s  # noqa: E402  (binds numpy.linalg.svd before tracing wraps it)


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water resident memory of this process since its exec.

    ``ru_maxrss`` is not used: Linux carries it over from the parent
    across fork and exec, so it would report the harness's oracle memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(op: dict, graphs: dict, gs) -> dict:
    """Execute one op as a user would call it; return what the check needs."""
    kind = op["kind"]
    if kind == "cli":
        argv = ["spectrum", op["path"], "--conditions", op["conditions"], "--lmax", op["lmax"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gs.cli.main(argv)
        return {"rc": rc, "stdout": buf.getvalue()}
    g = graphs[op["graph"]]
    if kind == "values":
        spec = {"st": gs.STANDARD, "ast": gs.ANTI_STANDARD}[op["spec"]]
        return {"values": [float(x) for x in gs.spectrum_values(g, spec, op["count"])]}
    if kind == "values_shift":
        beta = gs.analyze(g).betti
        return {"values": [float(x) for x in gs.spectrum_values(g, gs.ANTI_STANDARD, op["count"] + beta)]}
    if kind == "verify":
        cut = None
        if op.get("cut"):
            v, left, right = op["cut"]
            cut = (v, ([tuple(x) for x in left], [tuple(x) for x in right]))
        report = gs.verify(op["theorem"], g, count=op["count"], boundary=op.get("boundary"), cut=cut)
        return {
            "verdict": report.verdict,
            "observed": report.details.get("observed_violations"),
            "pattern": report.details.get("pattern_matches_prediction"),
        }
    raise ValueError(f"unknown op kind {kind!r}")


def run_pass(ops, graphs, gs, tracer=None) -> tuple[list, list, list]:
    """Run ``ops`` one after another, the calibration kernel before the first and after each.

    Returns the op latencies, the kernel times and the op outputs.  Spans
    cover the ops only, never the kernel.
    """
    results, latencies, kernels = [], [], [kernel_s()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
            op_span = tracer.enter(0)
        t0 = time.perf_counter()
        try:
            out = run_op(op, graphs, gs)
        except Exception as exc:  # a failed op is counted, never retried
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.exit(op_span)
            tracer.active = False
        results.append(out)
        kernels.append(kernel_s())
    return latencies, kernels, results


def main(argv: list[str]) -> int:
    ops_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    sys.path.insert(0, SRC)
    import graphspec
    import graphspec.cli

    if not os.path.abspath(graphspec.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"graphspec imported from {graphspec.__file__}, not from {SRC}")
    with open(ops_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    graphs = {stem: graphspec.load_qgf(path) for stem, path in spec["graphs"].items()}

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run_pass(spec["warmup"], graphs, graphspec)
    latencies, kernels, results = run_pass(spec["timed"], graphs, graphspec, tracer)
    out = {
        "latencies_s": latencies,
        "kernels_s": kernels,
        "results": results,
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        trace_path = os.path.splitext(out_path)[0] + ".npz"
        tracer.save(trace_path)
        out["trace"] = trace_path
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
