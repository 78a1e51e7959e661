"""Independent checks of the program's outputs and the references they use.

References come from the ``graphspec.discrete`` oracles, which share no
numerics with the secular solver, and from graph properties computed in
``workloads.props``.  They are computed before the worker starts, outside
every timed region.

- st, dir, stD spectra: the P1 finite element oracle.
- ast spectra: the shift identity on bipartite graphs, against the checked
  st reference: ``beta`` zeros, then the positive st eigenvalues.
- verify ops: the expected verdict from graph properties; EQUI_FRIED also
  compares its violation indices with the equilateral transfer oracle.

Any exception counts as a failure.  No input is dropped or redrawn.
"""
from __future__ import annotations

import math
import time

from graphspec import (
    ALL_DIRICHLET,
    STANDARD,
    finite_difference_spectrum,
    standard_dirichlet,
    von_below_metric_spectrum,
)

from workloads import VERIFY_COUNT, WIDE_WINDOW_COUNT, props, window_edge

# The oracle's relative error is about 1e-6 at the mesh chosen in
# ``fd_values``; the two roots of the known defect are 6e-4 apart.
REL_TOL = 1e-5
# theorems.py accepts lhs <= rhs * (1 + INEQ_RTOL) + INEQ_ATOL
INEQ_RTOL = 1e-9
INEQ_ATOL = 1e-12


class OracleClock:
    """Accumulated oracle time per oracle, reported as ``discrete.*_s``."""

    def __init__(self) -> None:
        self.seconds = {"fd": 0.0, "transfer": 0.0}

    def fd(self, g, spec, count: int) -> list[float]:
        t0 = time.perf_counter()
        try:
            return fd_values(g, spec, count)
        finally:
            self.seconds["fd"] += time.perf_counter() - t0

    def transfer(self, g, lam_max: float) -> list[float]:
        t0 = time.perf_counter()
        try:
            return von_below_metric_spectrum(g, 1.0, lam_max).values()
        finally:
            self.seconds["transfer"] += time.perf_counter() - t0


def fd_values(g, spec, count: int) -> list[float]:
    # P1 eigenvalues exceed the exact ones by about (k h)^2 / 12 relative;
    # on the benchmark's graphs this mesh keeps it near 1e-6, a tenth of REL_TOL
    rho = max(12.0 / min(g.lengths), 1000.0 * math.pi * (count + 1) / g.total_length)
    return [float(x) for x in finite_difference_spectrum(g, spec, rho, count)]


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def compare_values(got, want, tol: float = REL_TOL) -> tuple[bool, int]:
    """(matches, number of reference eigenvalues with no partner in ``got``)."""
    got = sorted(got)
    matched = i = j = 0
    while i < len(got) and j < len(want):
        if close(got[i], want[j], tol):
            matched += 1
            i += 1
            j += 1
        elif got[i] < want[j]:
            i += 1
        else:
            j += 1
    ok = len(got) == len(want) and all(close(x, y, tol) for x, y in zip(got, want))
    return ok, len(want) - matched


def parse_cli_spectrum(stdout: str) -> list[float]:
    """Eigenvalues with multiplicity from ``graphspec spectrum`` output."""
    lines = stdout.splitlines()
    if not lines or lines[0].split("\t") != ["index", "k", "lambda", "multiplicity"]:
        raise ValueError("unexpected spectrum header")
    out: list[float] = []
    for line in lines[1:]:
        _, _, lam, mult = line.split("\t")
        out.extend([float(lam)] * int(mult))
    return out


def _spec(token: str, g):
    if token == "st":
        return STANDARD
    if token == "dir":
        return ALL_DIRICHLET
    if token == "stD":
        return standard_dirichlet(props(g).boundary)
    raise ValueError(f"no finite element reference for {token!r}")


def dirichlet_values(g, count: int) -> list[float]:
    """Decoupled Dirichlet eigenvalues (m pi / L_e)^2, smallest ``count``."""
    vals = []
    for e in g.edges:
        vals.extend((m * math.pi / e.length) ** 2 for m in range(1, count + 1))
    return sorted(vals)[:count]


def references(workload, clock: OracleClock) -> list[dict]:
    """Per timed op, the reference its output is checked against.

    Fills in the window edge (``lmax``) of wide_window ops, which is placed
    in a clear gap of the reference spectrum.
    """
    refs = []
    st_cache: dict[str, list[float]] = {}
    for op, exp in zip(workload.timed, workload.expect):
        g = workload.graphs[exp["graph"]]
        check = exp["check"]
        if check in ("st_values", "ast_shift_values"):
            if exp["graph"] not in st_cache:
                st_cache[exp["graph"]] = clock.fd(g, STANDARD, 13)
            st = st_cache[exp["graph"]]
            if check == "st_values":
                refs.append({"values": st[: exp["count"]]})
            else:
                beta = props(g).betti
                refs.append({"values": [0.0] * beta + st[1 : exp["count"] + 1]})
        elif check == "window":
            cond = exp["conditions"]
            spec = _spec("st" if cond == "ast" else cond, g)
            base = clock.fd(g, spec, WIDE_WINDOW_COUNT + 2)
            try:
                lam_max, n = window_edge(base, WIDE_WINDOW_COUNT)
            except ValueError:
                base = clock.fd(g, spec, WIDE_WINDOW_COUNT + 10)
                lam_max, n = window_edge(base, WIDE_WINDOW_COUNT)
            op["lmax"] = repr(lam_max)
            want = base[:n]
            if cond == "ast":
                want = [0.0] * props(g).betti + want[1:]
            refs.append({"values": want})
        elif check == "verdict":
            ref = {"verdict": exp["verdict"]}
            if exp.get("transfer"):
                lam_max = (math.pi * (VERIFY_COUNT + 2)) ** 2
                st = clock.transfer(g, lam_max)
                dv = dirichlet_values(g, VERIFY_COUNT)
                ref["observed"] = [
                    n for n in range(1, VERIFY_COUNT + 1)
                    if st[n] - (dv[n - 1] * (1 + INEQ_RTOL) + INEQ_ATOL) > 0
                ]
            refs.append(ref)
        else:
            raise ValueError(f"unknown check {check!r}")
    return refs


def check_op(result: dict, ref: dict) -> tuple[bool, int]:
    """(output is correct, eigenvalues missed) for one op's worker result."""
    if "error" in result:
        return False, 0
    if "verdict" in ref:
        ok = result.get("verdict") == ref["verdict"]
        if "observed" in ref:
            ok = ok and result.get("observed") == ref["observed"] and result.get("pattern") is True
        return ok, 0
    if "stdout" in result:
        if result.get("rc") != 0:
            return False, 0
        got = parse_cli_spectrum(result["stdout"])
    else:
        got = result["values"]
    return compare_values(got, ref["values"])


def detector_self_test() -> bool:
    """The detector fails a deleted eigenvalue and a flipped verdict, passes exact copies."""
    want = [0.0, 0.7591624, 2.8107500, 2.8124679, 3.4628924]
    deleted = want[:2] + want[3:]
    shifted = deleted + [4.2777610]
    verdict = {"verdict": "holds"}
    return (
        check_op({"values": list(want)}, {"values": want}) == (True, 0)
        and check_op({"values": deleted}, {"values": want}) == (False, 1)
        and check_op({"values": shifted}, {"values": want}) == (False, 1)
        and check_op({"verdict": "holds"}, verdict)[0]
        and not check_op({"verdict": "violated"}, verdict)[0]
        and not check_op({"error": "RuntimeError"}, verdict)[0]
    )
