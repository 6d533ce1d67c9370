"""Command-line driver: subcommands, CSV reports, exit codes, determinism."""

import csv
import json

import pytest

from currentkit.cli import main
from currentkit.scenarios import (ScenarioConfig, builtin_scenarios,
                                  load_config)


def _read(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _value(rows, scenario, quantity):
    for row in rows:
        if row["scenario"] == scenario and row["quantity"] == quantity:
            return float(row["value"])
    raise KeyError((scenario, quantity))


class TestScenarioConfig:
    def test_builtin_library_builds(self):
        for cfg in builtin_scenarios():
            T = cfg.build_chain()
            m = cfg.build_motion()
            assert T.ambient == cfg.ambient
            m.check_time(cfg.tau)
            if cfg.cochain is not None:
                assert cfg.build_cochain().degree == T.degree

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_obj({"name": "x", "warp_factor": 9})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_obj({})

    def test_load_config_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"name": "solo"}))
        assert [c.name for c in load_config(single)] == ["solo"]
        many = tmp_path / "many.json"
        many.write_text(json.dumps(
            {"scenarios": [{"name": "a"}, {"name": "b"}]}))
        assert [c.name for c in load_config(many)] == ["a", "b"]

    def test_parse_error_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="parse error"):
            load_config(bad)


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "verify.csv")
        assert rows
        assert not any("[FAIL]" in r["quantity"] for r in rows)

    def test_broken_tolerance_fails(self, tmp_path):
        code = main(["verify", "--out", str(tmp_path),
                     "--tolerance-scale", "1e-30"])
        assert code == 1
        rows = _read(tmp_path / "verify.csv")
        assert any("[FAIL]" in r["quantity"] for r in rows)

    def test_corrupt_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["verify", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_workers_do_not_change_result(self, tmp_path):
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        main(["verify", "--out", str(out1), "--workers", "1"])
        main(["verify", "--out", str(out4), "--workers", "4"])
        assert (out1 / "verify.csv").read_bytes() == \
            (out4 / "verify.csv").read_bytes()


class TestTransport:
    def test_report_contents(self, tmp_path):
        assert main(["transport", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "transport.csv")
        assert _value(rows, "rotating_square", "fd_observed_order") >= 1.9
        assert _value(rows, "tent_square", "fd_observed_order") >= 0.9
        assert abs(_value(rows, "static_square",
                          "transport_derivative")) <= 1e-12
        assert _value(rows, "expanding_box", "classical_lhs") == \
            pytest.approx(2.0, abs=1e-6)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["transport", "--out", str(a)])
        main(["transport", "--out", str(b)])
        assert (a / "transport.csv").read_bytes() == \
            (b / "transport.csv").read_bytes()


class TestFlatnorm:
    def test_boundary_square_value(self, tmp_path):
        assert main(["flatnorm", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "flatnorm.csv")
        assert _value(rows, "shearing_boundary", "flat_norm") == \
            pytest.approx(1.0, abs=1e-8)
        # ladder ordering on every scenario
        names = {r["scenario"] for r in rows}
        for name in names:
            sharp = _value(rows, name, "sharp_lower_bound")
            dual = _value(rows, name, "dual_flat_lower_bound")
            flat = _value(rows, name, "flat_norm")
            m = _value(rows, name, "mass")
            assert sharp <= dual + 1e-6 <= flat + 2e-6 <= m + 3e-6

    def test_zero_test_form_is_redrawn(self, tmp_path):
        # seed 0 draws an identically zero affine test form for the ladder
        assert main(["flatnorm", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "flatnorm.csv")
        assert all(r["value"] not in ("", "nan")
                   for r in rows if r["quantity"].endswith("lower_bound"))


class TestConverge:
    def test_fitted_orders(self, tmp_path):
        assert main(["converge", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "converge.csv")
        assert _value(rows, "adjointness", "observed_order") >= 2.0
        assert _value(rows, "translating_square", "continuity_slope") == \
            pytest.approx(1.0, abs=0.1)
        assert _value(rows, "rotating_square", "homotopy_order") >= 1.9
