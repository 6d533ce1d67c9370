"""How a run's operations become its pass time, and what fixes a run's
operations."""

import pytest

import refspeed
import run
import workloads


def _op(slot, seconds, gauged=refspeed.REF_S, failed=False):
    return {"slot": slot, "seconds": seconds, "gauged": gauged,
            "failed": failed}


def test_pass_seconds_sums_the_medians_of_each_operation():
    ops = [_op(0, s) for s in (1.0, 3.0, 2.0)] + [
        _op(1, s) for s in (0.5, 0.7, 0.6)]
    assert run.pass_seconds(ops) == pytest.approx(2.0 + 0.6)


def test_pass_seconds_leaves_out_failed_operations():
    ops = [_op(0, 2.0), _op(0, 2.2), _op(0, 0.01, failed=True)]
    assert run.pass_seconds(ops) == pytest.approx(2.1)
    every_one_failed = [_op(0, 0.01, failed=True)]
    assert run.pass_seconds(every_one_failed) == pytest.approx(0.01)


def test_pass_seconds_at_the_reference_speed():
    slow_host = [_op(0, 3.0, gauged=1.5 * refspeed.REF_S)]
    assert run.pass_seconds(slow_host) == pytest.approx(2.0)
    assert run.pass_seconds(slow_host, raw=True) == pytest.approx(3.0)


def test_operations_depend_on_seed_and_seconds_only(tmp_path):
    n = workloads.n_passes("bundled", 25)
    assert n == workloads.n_passes("bundled", 25) >= workloads.MIN_PASSES
    sets = workloads.prepare("bundled", 42, n, str(tmp_path))
    assert len(sets) == n
    assert sets[0][0][:3] == ["verify", "--seed", "42"]
    seeds = {argv[2] for commands in sets for argv in commands}
    assert len(seeds) == n
    assert workloads.input_seed(42, 3) == workloads.input_seed(42, 3)
    assert workloads.input_seed(42, 3) != workloads.input_seed(43, 3)
