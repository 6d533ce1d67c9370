"""Corrupted CLI outputs must count as failed operations."""

import json

import numpy as np
import pytest

import checks
import worker
import workloads
from currentkit import cli


@pytest.fixture
def flatnorm_op(tmp_path):
    """A real flatnorm operation on a small +-1 chain, with its LP."""
    chain = tmp_path / "faces.json"
    workloads.random_faces(2, 3, np.random.default_rng(7)).save(chain)
    config = tmp_path / "scenarios.json"
    config.write_text(json.dumps({"scenarios": [
        {"name": "faces", "chain": {"file": str(chain)}, "resolution": 3}]}))
    argv = ["flatnorm", "--config", str(config), "--workers", "1"]
    out = tmp_path / "out"
    with worker.capture_lps() as captured:
        rc = cli.main(argv + ["--out", str(out)])
    return worker.Op("flatnorm", argv, str(out), rc=rc, lps=captured)


def _recheck(op):
    op.problems = []
    worker.check_ops([op], "flatgrid", seed=1)
    return op.failed


def test_intact_flatnorm_output_passes(flatnorm_op):
    op = flatnorm_op
    assert op.rc == 0 and len(op.lps) == 1
    assert not _recheck(op), op.problems


def test_perturbed_flat_norm_value_fails(flatnorm_op):
    op = flatnorm_op
    with open(op.csv_path) as fh:
        rows = fh.read().splitlines()
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[1] == "flat_norm":
            cells[2] = repr(float(cells[2]) * (1 + 1e-7))
            rows[i] = ",".join(cells)
    with open(op.csv_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert _recheck(op)
    assert any("HiGHS" in p for p in op.problems)


def test_broken_decomposition_fails(flatnorm_op):
    op = flatnorm_op
    op.lps = [op.lps[0]._replace(r=op.lps[0].r * 0.5)]
    assert _recheck(op)
    assert any("bnd S" in p for p in op.problems)


def test_value_above_mass_fails():
    text = ("scenario,quantity,value,oracle,abs_error,rel_error,level,"
            "runtime\nx,flat_norm,2,,,,,\nx,mass,1.5,,,,,\n")
    assert checks.check_flatnorm(text, [2.0])
    assert not checks.check_flatnorm(text.replace("1.5", "2"), [2.0])


def test_failed_verify_row_fails(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "verify.csv").write_text(
        "scenario,quantity,value,oracle,abs_error,rel_error,level,runtime\n"
        "s,adjointness_residual [FAIL],1,0,1,1,,\n")
    op = worker.Op("verify", ["verify"], str(out), rc=0)
    worker.check_ops([op], "bundled", seed=1)
    assert op.failed and op.problems


def test_nonzero_exit_fails(tmp_path):
    op = worker.Op("transport", ["transport"], str(tmp_path), rc=2)
    worker.check_ops([op], "bundled", seed=1)
    assert op.failed
    assert worker.Op("x", [], "", error="ValueError: boom", rc=None).failed


def test_transport_tolerances():
    head = "scenario,quantity,value,oracle,abs_error,rel_error,level,runtime\n"
    row = "{},fd_abs_error_eps=0.0001,1,1,{e},{e},0.0001,\n"
    eps = {"a": 1e-4}
    assert not checks.check_transport(head + row.format("a", e=1e-8), eps,
                                      set())
    assert checks.check_transport(head + row.format("a", e=1e-4), eps, set())
    assert not checks.check_transport(head + row.format("a", e=1e-4), eps,
                                      {"a"})
    assert checks.check_transport(head, eps, set())  # row missing


def test_reference_comparison():
    head = "scenario,quantity,value,oracle,abs_error,rel_error,level,runtime\n"
    ref = head + "s,residual,1e-16,0,,,,0.5\ns,lp_iterations,10,,,,,\n"
    same = head + "s,residual,3e-16,0,,,,0.7\ns,lp_iterations,12,,,,,\n"
    off = head + "s,residual,1e-6,0,,,,0.5\ns,lp_iterations,10,,,,,\n"
    renamed = head + "t,residual,1e-16,0,,,,0.5\ns,lp_iterations,10,,,,,\n"
    assert not checks.compare_reference(same, ref)
    assert checks.compare_reference(off, ref)
    assert checks.compare_reference(renamed, ref)
    assert checks.compare_reference(head, ref)
