"""Command-line front end with deterministic tabular output.

Exit codes: 0 success / verification holds, 1 argument or input errors,
2 verification violated, 3 verification inapplicable.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from .conditions import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionSpec,
    anti_standard_neumann,
    standard_dirichlet,
)
from .graph import _BUILTINS, MetricGraph, analyze, builtin, load_qgf
from .secular import _MAX_WEYL_COUNT, _system, find_spectrum
from .theorems import THEOREM_IDS, verify

__all__ = ["main"]


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, single-line diagnostic
        raise _CliError(message)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _load_graph(args) -> MetricGraph:
    if getattr(args, "builtin", None):
        if getattr(args, "graph", None):
            raise _CliError("give either a graph file or --builtin, not both")
        name, _, rest = args.builtin.partition(":")
        try:
            params = [float(p) for p in rest.split(",")] if rest else []
        except ValueError:
            raise _CliError(f"bad builtin parameters {rest!r}") from None
        return builtin(name, *params)
    if not getattr(args, "graph", None):
        raise _CliError("no graph source: give a QGF file or --builtin name:params")
    try:
        return load_qgf(args.graph)
    except OSError as exc:
        raise _CliError(f"cannot read {args.graph}: {exc.strerror}") from None


def _boundary(args) -> list[str] | None:
    """Vertex names of the comma-separated ``--boundary`` list, or None if it is not given."""
    return [v for v in args.boundary.split(",") if v] if args.boundary else None


# each --conditions token: its spec, or the maker of its spec from a boundary set B
_CONDITIONS = {"st": STANDARD, "ast": ANTI_STANDARD, "dir": ALL_DIRICHLET, "stD": standard_dirichlet, "astN": anti_standard_neumann}


def _conditions(args, g: MetricGraph) -> ConditionSpec:
    spec = _CONDITIONS[args.conditions]
    if isinstance(spec, ConditionSpec):
        if args.boundary:
            raise _CliError("--boundary applies to stD and astN")
        return spec
    # B defaults to the whole natural boundary
    return spec(_boundary(args) or sorted(analyze(g).boundary))


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
        # expanded, one row per eigenvalue; else one per record, at its first index
        for _ in range(rec.multiplicity if expand else 1):
            out.write(f"{idx}\t{_fmt(rec.k)}\t{_fmt(rec.lam)}\t{rec.multiplicity}\n")
            idx += 1 if expand else rec.multiplicity


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
    spectrum = find_spectrum(g, _conditions(args, g), args.lmax)
    _emit_spectrum(spectrum, args.expand, out)
    return 0


def _cmd_secular(args, out) -> int:
    g = _load_graph(args)
    spec = _conditions(args, g)
    step = math.pi / (20.0 * g.total_length) if args.step is None else args.step
    if not 0 < step <= args.kmax < math.inf:
        raise _CliError(f"need 0 < --step <= --kmax < inf (k > 0, one row), got --step {step:g}, --kmax {args.kmax:g}")
    # the default step's rows on the widest window that spectrum solves
    max_rows = 20 * _MAX_WEYL_COUNT
    if args.kmax / step > max_rows:
        raise _CliError(f"--kmax {args.kmax:g} / --step {step:g} is more than {max_rows} rows")
    system = _system(g, spec)
    # up to max_rows rows, streamed one chunk at a time; the header goes with the
    # first, so that a system whose matrices are refused writes nothing
    grid, header = _accumulated_grid(step, args.kmax), "k,sigma_min\n"
    while batch := list(itertools.islice(grid, system.chunk)):
        out.write(header + "".join(f"{_fmt(k)},{_fmt(s)}\n" for k, s in zip(batch, system.singular_values(batch)[:, -1].tolist())))
        header = ""
    return 0


def _accumulated_grid(step: float, kmax: float):
    """The k column: step, step + step, ... up to kmax, summed one step at a time."""
    k = step
    while k <= kmax * (1 + 1e-12):
        yield k
        k += step


def _cmd_verify(args, out) -> int:
    g = _load_graph(args)
    boundary = _boundary(args)
    cut = _parse_cut(args.cut, g) if args.cut else None
    report = verify(args.theorem, g, count=args.count, boundary=boundary, cut=cut)
    out.write(str(report) + "\n")
    return {"holds": 0, "violated": 2, "inapplicable": 3}[report.verdict]


def _cmd_builtin_list(args, out) -> int:
    for name, (shape, _, _) in _BUILTINS.items():
        out.write(f"{name}:{shape}\n")
    return 0


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="QGF graph file")
    p.add_argument("--builtin", help="builtin graph spec name:p1,p2,...")


def _add_conditions(p: argparse.ArgumentParser) -> None:
    p.add_argument("--conditions", default="st", choices=_CONDITIONS)
    p.add_argument("--boundary", help="comma-separated vertex names of B for stD and astN")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on the first; parsing keeps no state in it."""
    parser = _Parser(prog="graphspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural analysis of a graph")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="Laplacian spectrum under chosen vertex conditions")
    _add_graph_source(p)
    _add_conditions(p)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--expand", action="store_true", help="one row per eigenvalue")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dirichlet", help="decoupled Dirichlet spectrum (closed form)")
    _add_graph_source(p)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--expand", action="store_true")
    p.set_defaults(func=_cmd_spectrum, conditions="dir", boundary=None)

    p = sub.add_parser("secular", help="CSV scan of the smallest singular value")
    _add_graph_source(p)
    _add_conditions(p)
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
    except ValueError as exc:  # _CliError, GraphError and ConditionError among them
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
