import io
import math
import sys
from pathlib import Path

import pytest

from graphspec.cli import main

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
    ],
)
def test_golden_outputs(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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


def test_golden_verify_violated(capsys):
    code, out, _ = run(capsys, "verify", "EQUI_FRIED", "--builtin", "cycle:1,1,1", "--count", "10")
    assert code == 2
    assert out == (GOLDEN / "verify_equi_fried_triangle.txt").read_text()


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
    # every grid point k = n * step is negative, where no secular matrix exists
    out, err = _BoundedStream(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["secular", "--builtin", "star:3,1", "--kmax", "2", "--step", "-0.5"])
    assert code == 1
    assert out.getvalue() == "k,sigma_min\n"
    assert "k > 0" in err.getvalue()


def test_verify_holds_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "TREE_SHIFT", "--builtin", "star:3,1", "--count", "6")
    assert code == 0
    assert out.startswith("TREE_SHIFT: holds")


def test_verify_inapplicable_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "TREE_SHIFT", "--builtin", "cycle:1,1,1")
    assert code == 3
    assert "inapplicable" in out


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
    assert "star:m,length" in out and "dumbbell" in out


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
    ],
)
def test_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("lmax", ["inf", "nan", "-1", "1e14"])
def test_spectrum_bad_lmax_one_line_exit_one(capsys, lmax):
    code, out, err = run(capsys, "spectrum", "--builtin", "star:3,1", f"--lmax={lmax}")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1


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
