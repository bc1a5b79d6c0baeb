"""The benchmark's checks can fail: a perturbed amplitude, a swapped
fiducial or a wrong sign in an operation's output is caught.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository
root (with ``src`` on PYTHONPATH or spincs installed).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spincs  # noqa: E402
import spincs.cli  # noqa: E402,F401
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    return {"pathint": workloads.build("pathint", spincs, np.random.default_rng(7), out)}


def first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def assert_caught(op, output):
    with pytest.raises(CheckFailed):
        op.check(output)


@pytest.mark.parametrize("kind", ["M1 ladder", "M2 ladder", "zero-H M1",
                                  "transition M1"])
def test_perturbed_amplitude_fails(rounds, kind):
    op = first(rounds["pathint"], kind)
    out = op.call()
    op.check(out)
    assert_caught(op, np.asarray(out) * (1 + 1e-6))


def test_m3_that_does_not_converge_fails(rounds):
    op = first(rounds["pathint"], "M3 ladder")
    amps = op.call()
    op.check(amps)
    assert_caught(op, amps[::-1])


def test_swapped_fiducial_fails():
    rng = np.random.default_rng(3)
    op = workloads.overlap_batch_op(spincs, rng, "overlap", 6, 4)
    op.check(op.call())
    other = workloads.overlap_batch_op(spincs, np.random.default_rng(4), "overlap", 6, 4)
    assert_caught(op, other.call())


def test_amplitude_map_with_swapped_fiducial_fails():
    rng = np.random.default_rng(5)
    c1, c2 = workloads.random_coeffs(rng, 12), workloads.random_coeffs(rng, 12)
    op = workloads.amplitude_map_op(spincs, c1, "map")
    op.check(op.call())
    assert_caught(op, workloads.amplitude_map_op(spincs, c2, "map").call())


def test_residual_above_roundoff_fails():
    op = workloads.residual_op(spincs, np.random.default_rng(1), 2)
    op.check(op.call())
    assert_caught(op, 1e-9)


def test_wrong_sign_fails(rounds):
    op = first(rounds["pathint"], "oracle static")
    u = op.call()
    op.check(u)
    assert_caught(op, -u)
    con = workloads.contraction_op(spincs, np.random.default_rng(2), "contraction",
                                   (100, 200), [0.5, 0.5j, 0.7])
    states = con.call()
    con.check(states)
    assert_caught(con, [-s for s in states])


def test_trajectory_off_the_orbit_fails(rounds):
    op = first(rounds["pathint"], "trajectory 4 steps")
    traj = op.call()
    op.check(traj)
    traj.path[-1, 2] += 1e-3
    assert_caught(op, traj)


def test_cli_report_with_wrong_amplitude_fails(rounds):
    op = first(rounds["pathint"], "cli propagate")
    code, text = op.call()
    op.check((code, text))
    series = Path(dict(line.split(": ", 1) for line in text.splitlines()[:-1])["series"])
    rows = series.read_text().splitlines()
    fields = rows[1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    series.write_text("\n".join([rows[0], ",".join(fields)] + rows[2:]) + "\n")
    assert_caught(op, (code, text))
