"""Command-line front end with deterministic tabular output.

Exit codes: 0 success / verification holds, 1 argument or input errors,
2 verification violated, 3 verification inapplicable, 4 non-integer
eigenvalue count in the solver (an internal inconsistency).
"""
from __future__ import annotations

import argparse
import itertools
import sys

from .conditions import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionError,
    ConditionSpec,
    anti_standard_neumann,
    standard_dirichlet,
)
from .graph import GraphError, MetricGraph, analyze, builtin, load_qgf
from .secular import SecularSystem, SolverOptions, WeylMismatch, dirichlet_spectrum, find_spectrum
from .theorems import THEOREM_IDS, verify

__all__ = ["main"]

_BUILTIN_NAMES = ("path", "star", "cycle", "lasso", "dumbbell", "complete_bipartite")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, single-line diagnostic
        raise _CliError(message)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _parse_builtin(spec: str) -> MetricGraph:
    name, _, rest = spec.partition(":")
    if name not in _BUILTIN_NAMES:
        raise _CliError(f"unknown builtin {name!r}")
    try:
        params = [float(p) for p in rest.split(",")] if rest else []
    except ValueError:
        raise _CliError(f"bad builtin parameters {rest!r}") from None
    try:
        return builtin(name, *params)
    except GraphError as exc:
        raise _CliError(str(exc)) from None


def _load_graph(args) -> MetricGraph:
    if getattr(args, "builtin", None):
        if getattr(args, "graph", None):
            raise _CliError("give either a graph file or --builtin, not both")
        return _parse_builtin(args.builtin)
    if not getattr(args, "graph", None):
        raise _CliError("no graph source: give a QGF file or --builtin name:params")
    try:
        return load_qgf(args.graph)
    except OSError as exc:
        raise _CliError(f"cannot read {args.graph}: {exc.strerror}") from None
    except GraphError as exc:
        raise _CliError(str(exc)) from None


def _conditions(args, g: MetricGraph) -> ConditionSpec:
    token = args.conditions
    boundary = []
    if getattr(args, "boundary", None):
        boundary = [v for v in args.boundary.split(",") if v]
    if token == "st":
        return STANDARD
    if token == "ast":
        return ANTI_STANDARD
    if token == "dir":
        return ALL_DIRICHLET
    if token == "stD":
        if not boundary:
            boundary = sorted(analyze(g).boundary)
        return standard_dirichlet(boundary)
    if token == "astN":
        if not boundary:
            boundary = sorted(analyze(g).boundary)
        return anti_standard_neumann(boundary)
    raise _CliError(f"unknown conditions {token!r}")


def _parse_cut(text: str, g: MetricGraph):
    # grammar: vertex:ep,ep|ep  with ep = edgename.0 (tail) or edgename.1 (head)
    head, _, rest = text.partition(":")
    if not rest or "|" not in rest:
        raise _CliError(f"bad cut spec {text!r}: expected v:ep,..|ep,..")
    left, _, right = rest.partition("|")

    def endpoints(part: str):
        out = []
        for tok in part.split(","):
            if not tok:
                continue
            name, _, end = tok.rpartition(".")
            if end not in ("0", "1") or not name:
                raise _CliError(f"bad endpoint token {tok!r} in cut spec")
            out.append((name, int(end)))
        if not out:
            raise _CliError(f"empty side in cut spec {text!r}")
        return out

    return head, (endpoints(left), endpoints(right))


def _emit_spectrum(spectrum, expand: bool, out) -> None:
    out.write("index\tk\tlambda\tmultiplicity\n")
    idx = 1
    for rec in spectrum.records:
        if expand:
            for _ in range(rec.multiplicity):
                out.write(f"{idx}\t{_fmt(rec.k)}\t{_fmt(rec.lam)}\t{rec.multiplicity}\n")
                idx += 1
        else:
            out.write(f"{idx}\t{_fmt(rec.k)}\t{_fmt(rec.lam)}\t{rec.multiplicity}\n")
            idx += rec.multiplicity


def _cmd_analyze(args, out) -> int:
    g = _load_graph(args)
    a = analyze(g)
    out.write(f"connected: {str(a.connected).lower()}\n")
    out.write(f"bipartite: {str(a.bipartite).lower()}\n")
    out.write(f"betti: {a.betti}\n")
    out.write(f"boundary_size: {len(a.boundary)}\n")
    out.write(f"total_length: {_fmt(g.total_length)}\n")
    out.write(f"doubly_connected_length: {_fmt(a.doubly_connected_length)}\n")
    return 0


def _cmd_spectrum(args, out) -> int:
    g = _load_graph(args)
    spec = _conditions(args, g)
    try:
        spectrum = find_spectrum(g, spec, args.lmax)
    except ConditionError as exc:
        raise _CliError(str(exc)) from None
    _emit_spectrum(spectrum, args.expand, out)
    return 0


def _cmd_dirichlet(args, out) -> int:
    g = _load_graph(args)
    _emit_spectrum(dirichlet_spectrum(g, args.lmax), args.expand, out)
    return 0


def _cmd_secular(args, out) -> int:
    g = _load_graph(args)
    spec = _conditions(args, g)
    step = args.step if args.step else 3.141592653589793 / (20.0 * g.total_length)
    system = SecularSystem(g, spec)
    out.write("k,sigma_min\n")
    # kmax / step has no bound, so the grid is streamed one chunk at a time
    grid = _accumulated_grid(step, args.kmax)
    while batch := list(itertools.islice(grid, system.chunk)):
        for k, sigma in zip(batch, system.sigma_min(batch).tolist()):
            out.write(f"{_fmt(k)},{_fmt(sigma)}\n")
    return 0


def _accumulated_grid(step: float, kmax: float):
    """The k column: step, step + step, ... up to kmax, summed one step at a time."""
    k = step
    while k <= kmax * (1 + 1e-12):
        yield k
        k += step


def _cmd_verify(args, out) -> int:
    g = _load_graph(args)
    if args.theorem not in THEOREM_IDS:
        raise _CliError(f"unknown theorem id {args.theorem!r}")
    boundary = None
    if args.boundary:
        boundary = [v for v in args.boundary.split(",") if v]
    cut = _parse_cut(args.cut, g) if args.cut else None
    report = verify(args.theorem, g, count=args.count, boundary=boundary, cut=cut)
    out.write(str(report) + "\n")
    return {"holds": 0, "violated": 2, "inapplicable": 3}[report.verdict]


def _cmd_builtin_list(args, out) -> int:
    out.write("path:l1,l2,...\n")
    out.write("star:m,length\n")
    out.write("cycle:l1,l2,...\n")
    out.write("lasso:loop_length,tail_length\n")
    out.write("dumbbell:total_length,loop_length\n")
    out.write("complete_bipartite:m,n,length\n")
    return 0


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="QGF graph file")
    p.add_argument("--builtin", help="builtin graph spec name:p1,p2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural analysis of a graph")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="Laplacian spectrum under chosen vertex conditions")
    _add_graph_source(p)
    p.add_argument("--conditions", default="st", help="st|ast|dir|stD|astN")
    p.add_argument("--boundary", help="comma-separated vertex names for the mixed kinds")
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--expand", action="store_true", help="one row per eigenvalue")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dirichlet", help="decoupled Dirichlet spectrum (closed form)")
    _add_graph_source(p)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--expand", action="store_true")
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("secular", help="CSV scan of the smallest singular value")
    _add_graph_source(p)
    p.add_argument("--conditions", default="st")
    p.add_argument("--boundary")
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--step", type=float)
    p.set_defaults(func=_cmd_secular)

    p = sub.add_parser("verify", help="run a named theorem verification")
    p.add_argument("theorem", help="|".join(THEOREM_IDS))
    _add_graph_source(p)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--boundary")
    p.add_argument("--cut", help="vertex:ep,..|ep,.. with ep = edge.0 or edge.1")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("builtin-list", help="list builtin graph constructors")
    p.set_defaults(func=_cmd_builtin_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, sys.stdout)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (GraphError, ConditionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except WeylMismatch as exc:
        sys.stderr.write(f"weyl mismatch: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
