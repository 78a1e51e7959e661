"""graphspec benchmark: three closed-loop workloads, one caller each.

Usage:
    python3 bench/run.py --workload shift_small|wide_window|verify_mix|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run:

1. sets up (median of ``SETUP_REPS``): ``import graphspec`` in a fresh
   process, generating the seeded graphs and writing them as QGF files;
2. computes the references of the independent check (not timed);
3. starts a worker process that runs a warm-up pass and then the timed
   pass (bench/worker.py), one op after another;
4. with ``--trace 1``, starts a second worker that runs the same passes
   with spans around graphspec's public functions;
5. checks every timed op's output and prints the metrics, the last line
   as one JSON object (see bench/README.md).

Timings are reported at reference machine speed: each is scaled by the
calibration kernel timed around it (bench/calib.py).  The raw timings are
printed too.
"""
from __future__ import annotations

import os

# one BLAS thread, for this process and (through the environment) its workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker)."""


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def set_up(workload: str, seed: int, seconds: int, workdir: str):
    """One set-up: fresh-process import, graph generation, QGF files."""
    from workloads import build, qgf_text

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import graphspec"], env=child_env(), cwd=ROOT, check=True)
    t1 = time.perf_counter()
    w = build(workload, seed, seconds)
    t2 = time.perf_counter()
    paths = {}
    for stem, g in w.graphs.items():
        paths[stem] = os.path.join(workdir, f"{stem}.qgf")
        with open(paths[stem], "w", encoding="utf-8") as fh:
            fh.write(qgf_text(g))
    t3 = time.perf_counter()
    return w, paths, t3 - t0, t2 - t1


def run_worker(ops_path: str, out_path: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ops_path, out_path]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_all(results: list, refs: list) -> tuple[list[int], int]:
    """Indices of failed ops and the eigenvalues they missed."""
    from checks import check_op

    failed, missed = [], 0
    for i, (res, ref) in enumerate(zip(results, refs)):
        try:
            ok, miss = check_op(res, ref)
        except (ValueError, KeyError, TypeError):  # malformed output fails the op
            ok, miss = False, 0
        missed += miss
        if not ok:
            failed.append(i)
    return failed, missed


def describe(op: dict) -> str:
    if op["kind"] == "verify":
        return f"verify {op['theorem']} on {op['graph']}"
    if op["kind"] == "cli":
        return f"cli spectrum {op['graph']} --conditions {op['conditions']} --lmax {op['lmax']}"
    return f"{op['kind']} {op.get('spec', 'ast')} on {op['graph']}"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from calib import REF_S, kernel_s, scaled
    from checks import OracleClock, detector_self_test, references
    from tracing import SELF_TIME_METRICS, layer_metrics

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setups, gens, kernels = [], [], [kernel_s()]
        for _ in range(SETUP_REPS):
            w, paths, setup_s, gen_s = set_up(workload, seed, seconds, workdir)
            setups.append(setup_s)
            gens.append(gen_s)
            kernels.append(kernel_s())
        setup_ref = scaled(setups, kernels)

        clock = OracleClock()
        refs = references(w, clock)
        for op in w.warmup + w.timed:
            op["path"] = paths[op["graph"]]
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump({"graphs": paths, "warmup": w.warmup, "timed": w.timed}, fh)

        plain = run_worker(ops_path, os.path.join(workdir, "plain.json"), traced=False)
        traced = run_worker(ops_path, os.path.join(workdir, "traced.json"), traced=True) if trace else None
        failed, missed = check_all(plain["results"], refs)
        if trace:
            _, missed = check_all(traced["results"], refs)
        self_test = detector_self_test()

        raw = plain["latencies_s"]
        lat = scaled(raw, plain["kernels_s"])
        wall_s = sum(lat)
        setup_s = statistics.median(setup_ref)
        pct, tail_s = tail(lat)
        n = len(lat)
        print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
        print(f"nproc {os.cpu_count()}  blas_threads {plain['blas_threads']}  "
              f"ops {n} timed + {len(w.warmup)} warm-up  graphs {len(w.graphs)}")
        print(f"timings at reference speed (raw timing x {REF_S} s / calibration kernel time); "
              f"kernel median {statistics.median(plain['kernels_s']):.4f} s in the worker")
        print(f"wall_s       {wall_s:.4f} s  (raw {sum(raw):.4f} s)")
        print(f"op_p50_ms    {1e3 * statistics.median(lat):.3f} ms  (raw {1e3 * statistics.median(raw):.3f} ms)")
        print(f"op_tail_ms   {1e3 * tail_s:.3f} ms  (p{pct:.1f} of {n} ops, {n - round(pct * n / 100)} beyond)")
        print(f"failed_frac  {len(failed) / n:.4f}  ({len(failed)} of {n} ops failed the check)")
        print(f"setup_s      {setup_s:.4f} s  (median of {SETUP_REPS}; raw {statistics.median(setups):.4f} s)")
        print(f"peak_rss_mb  {plain['peak_rss_mb']:.2f} MB")
        print("op latencies ms at reference speed: " + " ".join(f"{1e3 * x:.0f}" for x in lat))
        for i in failed:
            err = plain["results"][i].get("error", "output differs from the reference")
            print(f"  failed op {i}: {describe(w.timed[i])}: {err}")
        print(f"detector self-test {'passed' if self_test else 'FAILED'}")

        if trace:
            with np.load(traced["trace"]) as npz:
                layers = layer_metrics(npz)
            layers["secular.missed_eigs"] = missed
            layers["discrete.transfer_s"] = clock.seconds["transfer"]
            layers["discrete.fd_s"] = clock.seconds["fd"]
            layers["generate.graphs_s"] = statistics.median(gens)
            traced_wall = sum(scaled(traced["latencies_s"], traced["kernels_s"]))
            layers["trace.overhead_frac"] = traced_wall / wall_s - 1.0
            self_sum = sum(layers[k] for k in SELF_TIME_METRICS)
            print(f"traced ops {layers['trace.wall_s']:.4f} s raw; sum of self times "
                  f"(layers + bench glue) {self_sum:.4f} s")
            for k in sorted(layers):
                print(f"  {k:32s} {layers[k]:.6g}")
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in _spec()["per_layer"]}
        else:
            values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": plain["peak_rss_mb"]}
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _spec()["end_to_end"]}
        return {"correct": self_test, "attempted": n, "failed": len(failed), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphspec", "__init__.py")):
        print(f"error: no graphspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphspec

    if not os.path.abspath(graphspec.__file__).startswith(SRC + os.sep):
        print(f"error: graphspec imported from {graphspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
