"""Pinned reports of every theorem check on a fixed set of graphs.

``theorem_pin.json`` holds, per case, the verdict, checked range,
violations, max residual and details of the report (or the exception it
raised).  Integers, booleans, strings and lists compare exactly; floats
compare to rel 1e-9, with abs 1e-12 so that residuals at rounding level
do not flap.  Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_theorem_pin.py
"""
import functools
import json
import math
import pathlib

import pytest

from graphspec import THEOREM_IDS, build_graph, builtin, rational_cycle_counterexample, verify

PIN_FILE = pathlib.Path(__file__).with_name("theorem_pin.json")

GRAPHS = {
    "path1": lambda: builtin("path", 2.0),
    "path3": lambda: builtin("path", 1.0, 2.0, 1.5),
    "star3": lambda: builtin("star", 3, 1),
    "star4": lambda: builtin("star", 4, 1),
    "spider": lambda: build_graph(
        [("a", "c", "x", 1.0), ("b", "c", "y", 0.6), ("d", "y", "z", 0.9), ("f", "y", "w", 1.3)]
    ),
    "cycle4": lambda: builtin("cycle", 1, 1, 1, 1),
    "cycle1212": lambda: builtin("cycle", 1, 2, 1, 2),
    "triangle": lambda: builtin("cycle", 1, 1, 1),
    "cycle13": lambda: builtin("cycle", 1, 3),
    "cycle5322": lambda: builtin("cycle", 5, 3, 2, 2),
    "lasso": lambda: builtin("lasso", 2, 1),
    "dumbbell": lambda: builtin("dumbbell", 5, 1),
    "triangle_tail": lambda: build_graph(
        [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "a", 1.0), ("tail", "a", "t", 1.0)]
    ),
    "k23": lambda: builtin("complete_bipartite", 2, 3, 1),
    "theta": lambda: build_graph([("e1", "a", "b", 1.0), ("e2", "a", "b", 1.3), ("e3", "a", "b", 0.7)]),
    # two 2-cycles joined by a bridge, with a pendant edge: bipartite, beta = 2
    "two_cycles": lambda: build_graph(
        [
            ("a1", "x", "y", 1.0),
            ("a2", "x", "y", 1.4),
            ("h", "y", "z", 0.8),
            ("b1", "z", "w", 0.9),
            ("b2", "z", "w", 1.2),
            ("t", "w", "u", 0.7),
        ]
    ),
    "two_paths": lambda: build_graph([("e1", "a", "b", 1.0), ("e2", "c", "d", 1.7)]),
}

CUTS = {
    "cycle4": ("v0", ([("e1", 0)], [("e4", 1)])),
    "cycle1212": ("v1", ([("e1", 1)], [("e2", 0)])),
    "triangle": ("v0", ([("e1", 0)], [("e3", 1)])),
    "star3": ("c", ([("e1", 0)], [("e2", 0), ("e3", 0)])),  # a tree: beta = 0
    "lasso": ("j", ([("tail", 1)], [("loop_a", 0), ("loop_b", 1)])),  # disconnects
    "k23": ("a1", ([("e1_1", 0)], [("e1_2", 0), ("e1_3", 0)])),
    "two_cycles": ("z", ([("h", 1)], [("b1", 0), ("b2", 0)])),
}


def _cases():
    cases = {}
    for tid in THEOREM_IDS:
        for name in GRAPHS:
            cases[f"{tid}-{name}"] = (tid, name, {"count": 5})
    for name in ("star3", "cycle4", "lasso", "triangle"):
        for tid in ("SHIFT", "TREE_SHIFT", "TREE_FRIED", "AST_LE_DIR", "EQUI_FRIED", "GLUING"):
            cases[f"{tid}-{name}-count12"] = (tid, name, {})
    cases["EQUI_FRIED-triangle-count10"] = ("EQUI_FRIED", "triangle", {"count": 10})
    cases["GLUING-cycle4-count0"] = ("GLUING", "cycle4", {"count": 0})
    cases["GLUING-cycle5322-count10"] = ("GLUING", "cycle5322", {"count": 10})
    for name in ("cycle4", "star3", "lasso"):
        cases[f"ISO_IFF-{name}-lam30"] = ("ISO_IFF", name, {"lam_max": 30.0})
    boundaries = {
        "none": None,
        "empty": [],
        "v1": ["v1"],
        "v1v2": ["v1", "v2"],
        "all": ["v1", "v2", "v3", "v4"],
        "c": ["c"],
    }
    for tid in ("KER", "MIXED_SHIFT", "MIXED_TREE"):
        for name in ("star3", "star4", "lasso", "path3", "cycle4"):
            for bname, b in boundaries.items():
                cases[f"{tid}-{name}-B{bname}"] = (tid, name, {"count": 5, "boundary": b})
    for tid in ("CUT_MONO", "CHOP_SHIFT"):
        for name in CUTS:
            cases[f"{tid}-{name}-cut"] = (tid, name, {"count": 5, "cut": CUTS[name]})
        cases[f"{tid}-cycle4-cut-count12"] = (tid, "cycle4", {"cut": CUTS["cycle4"]})
    return cases


CASES = _cases()
RATIONAL = {
    "triangle": lambda: builtin("cycle", 1, 1, 1),
    "half5": lambda: builtin("cycle", 0.5, 0.5, 0.5, 0.5, 0.5),
    "cycle13": lambda: builtin("cycle", 1, 3),
    "lasso": lambda: builtin("lasso", 2, 1),
}


def _plain(x):
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


def _record(run) -> dict:
    try:
        r = run()
    except Exception as exc:  # pinned too: a case must raise the same error
        return {"error": f"{type(exc).__name__}: {exc}"}
    return _plain(
        {
            "verdict": r.verdict,
            "checked_range": r.checked_range,
            "violations": r.violations,
            "max_residual": r.max_residual,
            "details": r.details,
        }
    )


def _run_case(case_id: str) -> dict:
    tid, name, kwargs = CASES[case_id]
    return _record(lambda: verify(tid, GRAPHS[name](), **kwargs))


def _same(got, want, path="") -> list[str]:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        ok = got == want or math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _same(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (a, b) in enumerate(zip(got, want)) for m in _same(a, b, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@functools.cache
def _pins() -> dict:
    return json.loads(PIN_FILE.read_text())


def test_pin_covers_every_case():
    pins = _pins()
    assert sorted(pins["verify"]) == sorted(CASES)
    assert sorted(pins["rational_cycle"]) == sorted(RATIONAL)
    assert {tid for tid, _, _ in CASES.values()} == set(THEOREM_IDS)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_verify_report_is_pinned(case_id):
    assert _same(_run_case(case_id), _pins()["verify"][case_id]) == []


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_cycle_report_is_pinned(name):
    got = _record(lambda: rational_cycle_counterexample(RATIONAL[name]()))
    assert _same(got, _pins()["rational_cycle"][name]) == []


if __name__ == "__main__":
    pins = {
        "verify": {cid: _run_case(cid) for cid in sorted(CASES)},
        "rational_cycle": {n: _record(lambda: rational_cycle_counterexample(f())) for n, f in RATIONAL.items()},
    }
    PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins['verify'])} verify and {len(pins['rational_cycle'])} rational-cycle reports")
