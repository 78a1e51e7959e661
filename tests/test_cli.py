import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graphspec import load_qgf
from graphspec.cli import main
from test_theorem_pin import GRAPHS as PINNED_GRAPHS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ goldens


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("analyze_lasso.txt", ["analyze", str(ROOT / "graphs" / "lasso.qgf")]),
        (
            "spectrum_star3_st.txt",
            ["spectrum", str(ROOT / "graphs" / "star3.qgf"), "--conditions", "st", "--lmax", "41"],
        ),
        (
            "spectrum_star3_dir.txt",
            [
                "spectrum",
                str(ROOT / "graphs" / "star3.qgf"),
                "--conditions",
                "dir",
                "--lmax",
                "41",
                "--expand",
            ],
        ),
        ("dirichlet_star3.txt", ["dirichlet", str(ROOT / "graphs" / "star3.qgf"), "--lmax", "41"]),
        # ISO_IFF reads its windows from the spectra kept with the graph
        ("verify_iso_iff_cycle1212.txt", ["verify", "ISO_IFF", "--builtin", "cycle:1,2,1,2"]),
        # the scan evaluates the system kept with the graph
        ("secular_star3_st.txt", ["secular", "--builtin", "star:3,1", "--kmax", "2", "--step", "0.5"]),
        # 24 edges: the count eliminates the edges far from a pole
        ("spectrum_bip24_st.txt", ["spectrum", str(ROOT / "graphs" / "bip24.qgf"), "--conditions", "st", "--lmax", "9"]),
        ("spectrum_bip24_ast.txt", ["spectrum", str(ROOT / "graphs" / "bip24.qgf"), "--conditions", "ast", "--lmax", "9"]),
        # degree-3 ones-complements, and clusters of multiplicity 3
        ("spectrum_k23_ast.txt", ["spectrum", "--builtin", "complete_bipartite:2,3,1", "--conditions", "ast", "--lmax", "60"]),
        # sigma_min of M(k) on the ones-complement rows of a degree-4 vertex
        ("secular_star4_ast.txt", ["secular", "--builtin", "star:4,1", "--conditions", "ast", "--kmax", "3", "--step", "0.25"]),
        # clusters of multiplicity 4 and 5, refined on X-, one row per vertex under ast
        ("spectrum_k33_ast.txt", ["spectrum", "--builtin", "complete_bipartite:3,3,1", "--conditions", "ast", "--lmax", "80"]),
        # a tree under st works on X- too: clusters of multiplicity 4
        ("spectrum_star5_st.txt", ["spectrum", "--builtin", "star:5,1", "--conditions", "st", "--lmax", "80"]),
        # two roots 5e-4 apart, at k = 1.67653 and 1.67704
        ("spectrum_defect7_st.txt", ["spectrum", str(ROOT / "graphs" / "defect7.qgf"), "--conditions", "st", "--lmax", "30"]),
        ("spectrum_defect7_ast.txt", ["spectrum", str(ROOT / "graphs" / "defect7.qgf"), "--conditions", "ast", "--lmax", "30"]),
        # both refinements far from unit scale: simple roots and a triple one near k = 1e-3 under st, near k = 1e3 under ast
        ("spectrum_dumbbell_large_st.txt", ["spectrum", "--builtin", "dumbbell:5000,1000", "--lmax", "4.1e-5"]),
        ("spectrum_dumbbell_small_ast.txt", ["spectrum", "--builtin", "dumbbell:0.005,0.001", "--conditions", "ast", "--lmax", "4.1e7"]),
    ],
)
def test_golden_outputs(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_main_keeps_no_state_between_calls(capsys):
    # one parser serves every call in the process: neither the options of the
    # first call nor the error of the second reach the third
    star3 = str(ROOT / "graphs" / "star3.qgf")
    code, out, _ = run(capsys, "spectrum", star3, "--conditions", "dir", "--lmax", "41", "--expand")
    assert code == 0
    assert out == (GOLDEN / "spectrum_star3_dir.txt").read_text()
    code, out, err = run(capsys, "spectrum", star3, "--conditions", "st")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "spectrum", star3, "--lmax", "41")
    assert code == 0
    assert out == (GOLDEN / "spectrum_star3_st.txt").read_text()


def _closed_form_text(records, expand):
    """Spectrum output for exact (k, multiplicity) records, in the CLI's number format."""
    lines, idx = ["index\tk\tlambda\tmultiplicity"], 1
    for k, m in records:
        for _ in range(m if expand else 1):
            lines.append(f"{idx}\t{k:.11e}\t{k * k:.11e}\t{m}")
            idx += 1 if expand else m
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "golden,records,expand",
    [
        ("spectrum_star3_st.txt", [(0.0, 1), (PI / 2, 2), (PI, 1), (1.5 * PI, 2), (2 * PI, 1)], False),
        ("spectrum_star3_dir.txt", [(PI, 3), (2 * PI, 3)], True),
        ("dirichlet_star3.txt", [(PI, 3), (2 * PI, 3)], False),
    ],
)
def test_star3_goldens_are_the_closed_form(golden, records, expand):
    assert (GOLDEN / golden).read_text() == _closed_form_text(records, expand)


def test_golden_lasso_with_a_tiny_loop(capsys):
    # a loop of 1e-8 under st acts as that much more stem: (m pi / (1 + 1e-8))^2,
    # with the one zero mode counted on the edges' mode matrix, whatever the lengths
    lasso = str(ROOT / "graphs" / "lasso_tiny.qgf")
    code, out, _ = run(capsys, "spectrum", lasso, "--conditions", "st", "--lmax", "41")
    assert code == 0
    assert out == (GOLDEN / "spectrum_lasso_tiny_st.txt").read_text()
    assert out == _closed_form_text([(m * PI / (1 + 1e-8), 1) for m in range(3)], False)
    code, out, _ = run(capsys, "verify", "KER", lasso)
    assert code == 0 and out.startswith("KER: holds\n")


def test_golden_verify_violated(capsys):
    code, out, _ = run(capsys, "verify", "EQUI_FRIED", "--builtin", "cycle:1,1,1", "--count", "10")
    assert code == 2
    assert out == (GOLDEN / "verify_equi_fried_triangle.txt").read_text()


def test_golden_verify_inapplicable_from_qgf(capsys):
    # GLUING's Dirichlet side is read from the graph of a QGF file; the sign
    # condition fails, so the report is inapplicable and exits 3
    code, out, _ = run(capsys, "verify", "GLUING", str(ROOT / "graphs" / "cycle5322.qgf"), "--count", "10")
    assert code == 3
    assert out == (GOLDEN / "verify_gluing_cycle5322.txt").read_text()


def test_dc_bounds_lasso_only_on_connected_cycles(capsys):
    # the comparison lasso needs the non-bridge edges connected: one 2-cycle is,
    # two joined by a bridge are not; two_cycles.qgf is the pinned graph of that name
    assert load_qgf(str(ROOT / "graphs" / "two_cycles.qgf")) == PINNED_GRAPHS["two_cycles"]()
    code, out, _ = run(capsys, "verify", "DC_BOUNDS", "--builtin", "lasso:2,1")
    assert code == 0 and "\n  lasso_lambda2: " in out
    code, out, _ = run(capsys, "verify", "DC_BOUNDS", str(ROOT / "graphs" / "two_cycles.qgf"))
    assert code == 0 and out.startswith("DC_BOUNDS: holds\n") and "lasso_lambda2" not in out


# ---------------------------------------------------------------- subcommands


def test_analyze_builtin(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "star:3,1")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["connected"] == "true"
    assert lines["betti"] == "0"
    assert lines["boundary_size"] == "3"


def test_spectrum_tsv_shape(capsys):
    code, out, _ = run(capsys, "spectrum", "--builtin", "star:3,1", "--conditions", "st", "--lmax", "41")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index\tk\tlambda\tmultiplicity"
    rows = [line.split("\t") for line in lines[1:]]
    # cumulative index: next index = previous index + multiplicity
    for prev, cur in zip(rows, rows[1:]):
        assert int(cur[0]) == int(prev[0]) + int(prev[3])
    assert float(rows[1][2]) == pytest.approx((math.pi / 2) ** 2, rel=1e-10)


def test_spectrum_expand_one_row_per_eigenvalue(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--builtin", "star:3,1", "--conditions", "st", "--lmax", "41", "--expand"
    )
    rows = out.strip().splitlines()[1:]
    assert [int(r.split("\t")[0]) for r in rows] == list(range(1, len(rows) + 1))


def test_spectrum_mixed_boundary(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "--builtin",
        "star:3,1",
        "--conditions",
        "stD",
        "--boundary",
        "v1",
        "--lmax",
        "10",
    )
    assert code == 0
    first = float(out.strip().splitlines()[1].split("\t")[2])
    assert first > 0.1  # Dirichlet end removes the zero mode


def test_secular_csv(capsys):
    code, out, _ = run(
        capsys, "secular", "--builtin", "star:3,1", "--kmax", "2", "--step", "0.5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,sigma_min"
    assert len(lines) == 5
    for line in lines[1:]:
        k, s = (float(x) for x in line.split(","))
        assert 0 < k <= 2 and s >= 0


class _BoundedStream(io.StringIO):
    """Stdout that fails the test, instead of filling memory, if output never stops."""

    def write(self, s):
        if self.tell() > 100_000:
            raise AssertionError("output does not stop")
        return super().write(s)


def test_secular_negative_step_exit_one(monkeypatch):
    # every grid point k = n * step is negative or zero, where no secular
    # matrix exists; a zero step is not read as the default one; refused
    # before the header
    for step in ("-0.5", "0"):
        out, err = _BoundedStream(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        code = main(["secular", "--builtin", "star:3,1", "--kmax", "2", "--step", step])
        assert code == 1
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and "k > 0" in err.getvalue()


@pytest.mark.parametrize(
    "scan", [["--kmax", "1", "--step", "1e-17"], ["--kmax", "1", "--step", "1e-12"], ["--kmax", "1e9"]]
)
def test_secular_too_many_rows_refused(monkeypatch, scan):
    # a step below half an ulp of k never reaches kmax, and 1e-12 would
    # print 1e12 rows: both are refused before the header
    out, err = _BoundedStream(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["secular", "--builtin", "star:3,1", *scan])
    assert code == 1 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1 and "rows" in err.getvalue()


def test_verify_holds_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "TREE_SHIFT", "--builtin", "star:3,1", "--count", "6")
    assert code == 0
    assert out.startswith("TREE_SHIFT: holds")


def test_verify_inapplicable_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "TREE_SHIFT", "--builtin", "cycle:1,1,1")
    assert code == 3
    assert "inapplicable" in out


def test_mixed_shift_without_leaves_exit_three(capsys):
    # the default B of a graph with no leaf is empty: not bad input
    code, out, _ = run(capsys, "verify", "MIXED_SHIFT", "--builtin", "cycle:1,1,1,1")
    assert code == 3
    assert out.startswith("MIXED_SHIFT: inapplicable")


def test_verify_with_cut_spec(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "CHOP_SHIFT",
        "--builtin",
        "cycle:1,1,1,1",
        "--count",
        "6",
        "--cut",
        "v0:e1.0|e4.1",
    )
    assert code == 0
    assert out.startswith("CHOP_SHIFT: holds")


def test_builtin_list(capsys):
    code, out, _ = run(capsys, "builtin-list")
    assert code == 0
    assert out == (
        "path:l1,l2,...\nstar:m,length\ncycle:l1,l2,...\nlasso:loop_length,tail_length\n"
        "dumbbell:total_length,loop_length\ncomplete_bipartite:m,n,length\n"
    )


# ----------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["analyze"],
        ["analyze", "/nonexistent/file.qgf"],
        ["analyze", "--builtin", "nope:1"],
        ["analyze", "--builtin", "star:xx"],
        ["spectrum", "--builtin", "star:3,1", "--conditions", "bogus", "--lmax", "10"],
        ["verify", "NOPE", "--builtin", "star:3,1"],
        ["verify", "CHOP_SHIFT", "--builtin", "cycle:1,1,1,1", "--cut", "garbage"],
        ["spectrum", "--builtin", "star:3,1"],
        ["verify", "SHIFT", "--builtin", "cycle:1,1,1,1", "--count", "-3"],
        ["secular", "--builtin", "star:3,1", "--kmax", "inf"],
        ["secular", "--builtin", "star:3,1", "--kmax", "nan"],
        ["secular", "--builtin", "star:3,1", "--kmax", "2", "--step", "inf"],
        ["secular", "--builtin", "star:3,1", "--kmax", "2", "--step", "nan"],
        ["secular", "--builtin", "star:3,1", "--conditions", "stD", "--boundary", "c", "--kmax", "1"],
        ["secular", "--builtin", "star:3,1", "--kmax", "0"],
        ["secular", "--builtin", "star:3,1", "--kmax", "-1"],
        # below the default step: the scan would have no row
        ["secular", "--builtin", "star:3,1", "--kmax", "0.01"],
        # B = {c} is not a set of leaves, for every check that reads B
        ["verify", "MIXED_SHIFT", "--builtin", "star:3,1", "--boundary", "c"],
        ["verify", "MIXED_TREE", "--builtin", "star:3,1", "--boundary", "c"],
        ["verify", "GLUING", "--builtin", "cycle:1,1,1,1", "--count", "0"],
        # above the most eigenvalues a solved window may hold
        ["verify", "KER", "--builtin", "star:3,1", "--count", "10001"],
    ],
)
def test_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("spec", ["star:inf,1", "star:1e400,1", "star:nan,1", "complete_bipartite:inf,1,1"])
def test_builtin_non_finite_count_one_line_exit_one(capsys, spec):
    code, out, err = run(capsys, "analyze", "--builtin", spec)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "spec,needs",
    [("star:100001,1", "star needs m"), ("complete_bipartite:317,316,1", "complete_bipartite needs m * n")],
    ids=["star", "complete_bipartite"],
)
def test_builtin_over_the_edge_bound_one_line_exit_one(capsys, spec, needs):
    code, out, err = run(capsys, "analyze", "--builtin", spec)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {needs} <= 100000 edges"]


def test_spectrum_on_too_many_edges_one_line_exit_one(tmp_path, capsys):
    # a 513-edge path, which the solver would take seconds on
    path = tmp_path / "path513.qgf"
    path.write_text("".join(f"edge e{i} v{i} v{i + 1} 0.01\n" for i in range(513)))
    code, out, err = run(capsys, "spectrum", str(path), "--lmax", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the graph has 513 edges, more than 512"]


def _path2000(tmp_path):
    path = tmp_path / "path2000.qgf"
    path.write_text("".join(f"edge e{i} v{i} v{i + 1} 0.01\n" for i in range(2000)))
    return str(path)


def test_dirichlet_past_the_edge_bound_is_the_dir_spectrum(tmp_path, capsys):
    # no vertex value is free, so 2,000 edges are listed in closed form: one
    # record, k = pi / 0.01, of multiplicity 2000
    path = _path2000(tmp_path)
    code, out, err = run(capsys, "dirichlet", path, "--lmax", "1e5")
    assert code == 0 and err == ""
    k = PI / 0.01
    assert out.splitlines()[1:] == [f"1\t{k:.11e}\t{k * k:.11e}\t2000"]
    assert run(capsys, "spectrum", path, "--conditions", "dir", "--lmax", "1e5") == (0, out, "")


@pytest.mark.parametrize(
    "argv,code,lines",
    [
        # one vertex of degree 5,000 or 100,000, whose d x d rows are never built
        (["dirichlet", "--builtin", "star:5000,0.01", "--lmax", "1e5"], 0, [f"1\t{PI / 0.01:.11e}\t{(PI / 0.01) ** 2:.11e}\t5000"]),
        (["dirichlet", "--builtin", "star:100000,1", "--lmax", "0.09"], 0, []),
        (["dirichlet", "--builtin", "star:100000,1", "--lmax", "1"], 1, ["error: lam_max = 1 holds about 3.18e+04 eigenvalues, more than 10000"]),
        (["spectrum", "--builtin", "star:100000,1", "--lmax", "0.09"], 1, ["error: the graph has 100000 edges, more than 512"]),
    ],
    ids=["records", "empty_window", "window_refused", "st_refused"],
)
def test_large_star_in_linear_time(capsys, argv, code, lines):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert got == code
    if code == 0:
        assert err == "" and out.splitlines() == ["index\tk\tlambda\tmultiplicity", *lines]
    else:
        assert out == "" and err.splitlines() == lines


def test_secular_scan_past_the_edge_bound_writes_nothing(tmp_path, capsys):
    # the system compiles, decoupled, but its 4,000 x 4,000 matrices are refused before the header
    path = _path2000(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "secular", path, "--conditions", "dir", "--kmax", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the graph has 2000 edges, more than 512"]


@pytest.mark.parametrize("lmax", ["inf", "nan", "-1", "1e14"])
def test_spectrum_bad_lmax_one_line_exit_one(capsys, lmax):
    code, out, err = run(capsys, "spectrum", "--builtin", "star:3,1", f"--lmax={lmax}")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("lmax", ["inf", "nan", "-1", "1e14"])
def test_dirichlet_bad_lmax_one_line_exit_one(capsys, lmax):
    code, out, err = run(capsys, "dirichlet", "--builtin", "star:3,1", f"--lmax={lmax}")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1


def test_gluing_sign_search_cap_one_line_exit_one(capsys):
    ks = np.random.default_rng(25).integers(1, 999983, size=25)
    lengths = ",".join(repr(int(k) / 999983) for k in ks)
    code, out, err = run(capsys, "verify", "GLUING", "--builtin", f"cycle:{lengths}")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "signed sums" in err


def test_graph_and_builtin_conflict(capsys):
    code, _, err = run(
        capsys, "analyze", str(ROOT / "graphs" / "lasso.qgf"), "--builtin", "star:3,1"
    )
    assert code == 1 and "either" in err


def test_qgf_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.qgf"
    bad.write_text("edge only_two_fields\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err.strip()


# ----------------------------------------------------------------- cold start

COLD_PATH = """
import sys
import graphspec, graphspec.cli
from graphspec import builtin, verify
code = graphspec.cli.main(["spectrum", "--builtin", "star:3,1", "--conditions", "st", "--lmax", "41"])
report = verify("SHIFT", builtin("cycle", 1, 1, 1, 1), count=5)
print(code, report.verdict, "scipy" in sys.modules)
"""


def test_cold_path_does_not_import_scipy():
    # scipy serves only the finite-element oracle, so a fresh process that
    # imports the package, prints a spectrum and verifies a theorem never loads it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "0 holds False"
