"""Span recording, self time and the outside-in wrappers."""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import tracing
import workloads
from currentkit import chains, cli, motion


def test_self_time_subtracts_nested_children():
    # 0 root [0, 10] with children 1 [1, 4] and 3 [5, 6]; 1 has children
    # 2 [2, 3] and 4 [3, 3.5]; 5 [20, 21] is a second root with no children
    spans = tracing.Spans(
        ["x"], name_id=[0] * 6,
        start=[0, 1, 2, 5, 3, 20],
        end=[10, 4, 3, 6, 3.5, 21],
        parent=[-1, 0, 1, 0, 1, -1])
    got = tracing.self_times(spans)
    np.testing.assert_allclose(got, [6.0, 1.5, 1, 1, 0.5, 1])


def test_self_time_without_children():
    spans = tracing.Spans(["x"], [0, 0], [0, 5], [1, 7], [-1, -1])
    np.testing.assert_allclose(tracing.self_times(spans), [1, 2])


def test_worker_thread_spans_attach_to_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)
    with tracer.span("cmd", as_root=True):
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert list(pool.map(lambda _: traced_leaf(), range(3))) == [1] * 3
    spans = tracer.take()
    names = [spans.names[i] for i in spans.name_id]
    root = names.index("cmd")
    parents = [p for n, p in zip(names, spans.parent) if n == "leaf"]
    assert parents == [root] * 3
    assert spans.counts["leaf"]["calls"] == 3
    assert len(tracer.take()) == 0


def test_install_rebinds_direct_imports_and_restore_undoes_it():
    original = chains.evaluate
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert chains.evaluate is not original
        assert cli.evaluate is chains.evaluate is motion.evaluate
    finally:
        tracing.restore(undo)
    assert chains.evaluate is original and cli.evaluate is original


def test_traced_flatnorm_counts_the_lp(tmp_path):
    chain = tmp_path / "cells.json"
    workloads.cell_union_boundary(2, 3, np.random.default_rng(3)).save(chain)
    config = tmp_path / "scenarios.json"
    config.write_text(json.dumps({"scenarios": [
        {"name": "cells", "chain": {"file": str(chain)}, "resolution": 3}]}))
    argv = ["flatnorm", "--config", str(config), "--out", str(tmp_path)]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with tracer.span("cli.flatnorm", as_root=True):
            assert cli.main(argv) == 0
    finally:
        tracing.restore(undo)
    m = tracing.layer_metrics(tracer.take())
    assert m["flatnorm.flat_norm_lp.calls"] == 1
    assert m["flatnorm.flat_norm_lp.rows"] == 33  # edges of the 3x3 grid
    assert m["flatnorm.flat_norm_lp.pivots"] > 0
    assert m["chains.load.self_s"] > 0
    assert m["cli.flatnorm_s"] >= m["flatnorm.flat_norm_lp.self_s"] > 0
    assert m["cli.verify_s"] == 0
