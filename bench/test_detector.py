"""Self-test of the benchmark's failure detector.

Run with ``python3 -m pytest bench/test_detector.py`` from the repository
root.  The tier-1 suite does not collect this file (pytest's testpaths is
``tests``).
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from graphspec import STANDARD, builtin, spectrum_values, verify  # noqa: E402

from checks import check_op, detector_self_test, fd_values  # noqa: E402
from run import tail  # noqa: E402


def test_correct_spectrum_passes_and_deleted_eigenvalue_fails():
    g = builtin("star", 3, 1)
    ref = {"values": fd_values(g, STANDARD, 7)}
    got = spectrum_values(g, STANDARD, 7)
    assert check_op({"values": got}, ref) == (True, 0)
    # delete one copy of the double eigenvalue (pi/2)^2
    assert check_op({"values": got[:1] + got[2:]}, ref) == (False, 1)
    # the list spectrum_values returns after a miss: the next eigenvalue moves in
    moved_in = got[:3] + got[4:] + [(2.5 * 3.141592653589793) ** 2]
    assert check_op({"values": moved_in}, ref) == (False, 1)


def test_correct_verdict_passes_and_flipped_verdict_fails():
    report = verify("EQUI_FRIED", builtin("cycle", 1, 1, 1), count=6)
    result = {
        "verdict": report.verdict,
        "observed": report.details["observed_violations"],
        "pattern": report.details["pattern_matches_prediction"],
    }
    ref = {"verdict": "violated", "observed": [3]}
    assert check_op(result, ref) == (True, 0)
    assert not check_op({**result, "verdict": "holds"}, ref)[0]
    assert not check_op({"verdict": "violated"}, {"verdict": "holds"})[0]


def test_exception_and_cli_error_fail():
    assert not check_op({"error": "WeylMismatch: ..."}, {"values": [0.0]})[0]
    assert not check_op({"rc": 4, "stdout": ""}, {"values": [0.0]})[0]


def test_builtin_self_test_passes():
    assert detector_self_test()


def test_tail_leaves_ten_ops_beyond():
    pct, value = tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
