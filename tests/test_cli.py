"""Command-line driver: subcommands, CSV reports, exit codes, determinism."""

import csv
import dataclasses
import gc
import importlib.util
import json
import logging
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from currentkit import cli
from currentkit.chains import (Chain, boundary, mass_chain, triangle_chain,
                               unit_square_chain)
from currentkit.cli import _build_parser, _pushforward_excess, main
from currentkit.lipschitz import LipMap, pushforward_chain
from currentkit.scenarios import (ScenarioConfig, builtin_scenarios,
                                  load_config)


_WHOLE_DEGREE = "'cochain.degree' must be a whole number >= 0"
_COMMANDS = ("verify", "transport", "flatnorm", "converge")

# the chain files that cases of the checked-whole test name, written to its
# working directory: a segment in 3-D, and a triangle without "degree"
_CHAIN_FILES = {
    "space.json": {"degree": 1, "ambient": 3,
                   "vertex_table": [[0, 0, 0], [1, 1, 1]],
                   "simplices": [{"vertices": [0, 1], "multiplicity": 1.0}]},
    "no_degree.json": {"ambient": 2,
                       "vertex_table": [[0, 0], [1, 0], [0, 1]],
                       "simplices": [{"vertices": [0, 1, 2],
                                      "multiplicity": 1.0}]},
    "huge.json": {"degree": 2, "ambient": 2,
                  "vertex_table": [[0, 0], [1, 0], [0, 1]],
                  "simplices": [{"vertices": [0, 1, 2],
                                 "multiplicity": 10 ** 400}]},
    "strings.json": {"degree": 2, "ambient": 2,
                     "vertex_table": [["0", "0"], ["1", "0"], ["0", "1"]],
                     "simplices": [{"vertices": [0, 1, 2],
                                    "multiplicity": 1.0}]}}


# the values that the loader sweep puts in place of each field
_SWEEP_VALUES = [None, True, 0, 2, -1, 1.5, float("nan"), "x", [], [1], {},
                 {"a": 1}, 10 ** 400, ["0", "1"], [False, 0.5]]


def _put(obj, path, value):
    """A deep copy of `obj` with `value` at the key path `path`."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def _sweep_cases():
    """(what, scenario file, chain file): a valid scenario with its chain in
    "c.json", then each of _SWEEP_VALUES in place of each field of the
    scenario (its chain's "file" and "builtin" aside, which would open
    descriptors of the test process were they not checked), of the chain
    file and of its first simplex, and as the file shapes."""
    term = {"exponents": [0, 2, 0], "coefficient": 1.0}
    scenario = {
        "name": "x", "ambient": 2,
        "chain": {"file": "c.json", "multiplier": 1.0},
        "motion": {"family": "rotation", "rate": 0.7, "interval": [-1, 1]},
        "cochain": {"degree": 2, "components": {"0,1": [term]}},
        "density": [term], "tau": 0.2, "eps_ladder": [0.01, 0.001],
        "levels": 0, "panels": 2, "resolution": 2,
        "box": {"lower": [0, 0], "upper": [1, 1], "resolution": 2},
        "seed": 42}
    chain = unit_square_chain().to_json_obj()
    fields = [(key,) for key in scenario] + [
        (key, sub) for key in ("chain", "motion", "cochain", "box")
        for sub in scenario[key] if sub != "file"]
    chain_fields = [(key,) for key in chain] + [
        ("simplices", 0, key) for key in chain["simplices"][0]]
    for value in _SWEEP_VALUES:
        for field in fields:
            yield (field, value), _put(scenario, field, value), chain
        for field in chain_fields:
            yield ("c.json", field, value), scenario, _put(chain, field, value)
        yield ("file", value), value, chain
        yield ("scenarios", value), {"scenarios": value}, chain
        yield ("scenario", value), {"scenarios": [value]}, chain
        yield ("c.json", value), scenario, value


def _read(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _load_perfbench(name):
    """A module of the benchmark, `perfbench/<name>.py`: `checks` for its
    reference skip lists, `workloads` for its input writers."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_cells(checks, rows):
    """The cells of CSV rows that the benchmark's reference check reads."""
    return [{k: v for k, v in row.items()
             if k not in checks.REFERENCE_SKIP_COLUMNS}
            for row in rows
            if row["quantity"] not in checks.REFERENCE_SKIP_ROWS]


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

    @pytest.mark.parametrize("field,body", [
        ("tau", '"tau": NaN'),
        ("eps_ladder", '"eps_ladder": [0.01, Infinity]'),
        ("eps_ladder", '"eps_ladder": [0.01, -0.001]'),
        ("box.upper", '"box": {"lower": [0, 0], "upper": [1, NaN]}'),
        ("box.pad",
         '"box": {"lower": [0, 0], "upper": [1, 1], "pad": Infinity}'),
        ("motion.rate", '"motion": {"family": "rotation", "rate": NaN}'),
        ("motion.velocity",
         '"motion": {"family": "translation", "velocity": [0.3, -Infinity]}'),
        ("chain.multiplier",
         '"chain": {"builtin": "square", "multiplier": NaN}'),
    ])
    def test_non_finite_field_rejected(self, tmp_path, field, body):
        # `Box` checks its bounds and `make_motion` its parameters, and the
        # error names the field and the parameter
        owner = {"box.upper": "'box': box requires finite",
                 "motion.rate": "'motion': motion parameter 'rate'",
                 "motion.velocity": "'motion': motion parameter 'velocity'"}
        path = tmp_path / "cfg.json"
        path.write_text('{"name": "x", "cochain": {"degree": 2, '
                        '"components": {"0,1": []}}, ' + body + "}")
        with pytest.raises(ValueError, match=owner.get(field, field)):
            load_config(path)
        for command in ("verify", "flatnorm"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("change, field", [
        ({"box": {"lower": [0, 0], "upper": [1, 0]}}, "'box'"),
        ({"box": {"lower": [0, 0], "upper": [1, 1], "pad": 0.5}},
         "'box.pad'"),
        ({"cochain": {"degree": 2, "components": {"0,1": [
            {"exponents": [0, 0], "coefficient": 1.0}]}}}, "'cochain'"),
        ({"density": [{"exponents": [0, 0], "coefficient": 1.0}]},
         "'density'"),
        ({"cochain": {"degree": 2, "components": {"0,5": []}}},
         "'cochain': multi-index (0, 5) must be 2 strictly increasing axis "
         "indices below 2"),
        ({"cochain": {"degree": 2, "components": {"1,0": []}}},
         "'cochain': multi-index (1, 0)"),
        ({"motion": {"family": "rotation", "interval": [1, -1]}},
         "'motion': motion parameter 'interval'"),
        ({"motion": ["rotation"]}, "'motion'"),
        ({"chain": "square"}, "'chain'"), ({"box": [0, 1]}, "'box'"),
        ({"ambient": 3, "cochain": {"degree": 3, "components": {}}},
         "rotation family is planar"),
        ({"tau": 0.995}, "'tau' must lie in 'motion.interval'"),
        ({"motion": {"rate": 0.7}}, "'family'"),
        ({"chain": {"file": "missing.json"}}, "missing.json"),
        ({"chain": {"file": "no_degree.json"}}, '"degree"'),
        ({"chain": {"file": "space.json"}, "cochain": None}, "'ambient'"),
        ({"motion": {"family": "rotation", "interval": [0.5, 1.0]},
          "tau": 0.7}, "'motion.interval'"),
        ({"motion": {"family": "tent", "axis": 0, "width": 0.25}},
         "'motion': motion parameter 'amplitude'"),
        ({"chain": {"builtin": "square", "multipler": 5}},
         "unknown scenario fields: ['chain.multipler']"),
        ({"cochain": {"degree": 2, "components": {}, "extra": 1}},
         "unknown scenario fields: ['cochain.extra']"),
        ({"chain": {"multiplier": 2}},
         "'chain' must have one of 'builtin' and 'file'"),
        ({"chain": {"builtin": "square", "file": "space.json"}},
         "'chain' must have one of 'builtin' and 'file'"),
        ({"tau": 10 ** 400}, "'tau' must be a finite number"),
        ({"eps_ladder": [0.01, 10 ** 400]},
         "'eps_ladder' must be finite steps > 0"),
        ({"motion": {"family": "rotation", "interval": [-1, 10 ** 400]}},
         "'motion': motion parameter 'interval'"),
        ({"chain": {"builtin": "square", "multiplier": -10 ** 400}},
         "'chain.multiplier' must be a finite number"),
        ({"chain": {"file": "huge.json"}}, '"multiplicity" must be finite'),
        ({"box": {"lower": ["0", "0"], "upper": [1, 1]}},
         "'box': box lower and upper must be numbers"),
        ({"chain": {"file": "strings.json"}},
         '"vertex_table" must be a list of points')],
        ids=["box_order", "box_pad", "cochain_arity", "density_arity",
             "key_range", "key_order", "interval", "motion_list",
             "chain_string", "box_list", "rotation_3d", "fd_step_outside",
             "no_family", "chain_file_missing", "chain_file_no_degree",
             "cochainless_3d_chain", "window_outside_interval",
             "folding_axis_0_tent", "chain_key", "cochain_key",
             "chain_neither", "chain_both", "huge_tau", "huge_eps_step",
             "huge_interval", "huge_multiplier", "huge_multiplicity",
             "box_strings", "vertex_table_strings"])
    def test_file_is_checked_whole_by_every_subcommand(self, tmp_path,
                                                       capsys, monkeypatch,
                                                       change, field):
        # each exited 0 from some subcommand, "0,5" died in transport with
        # a KeyError traceback and exit 1, and a field that is not an
        # object with an AttributeError traceback and exit 1; a 3-D
        # rotation was rejected by verify alone, and tau + 0.01 outside
        # the interval by transport alone; a missing chain file ended every
        # subcommand in a traceback and exit 1, and so did one without
        # "degree", a 3-D chain of a scenario without a cochain passed
        # transport and converge, and an interval without verify's window
        # passed transport and flatnorm; a tent along axis 0 that folds x0
        # over itself passed all four; a misspelled chain or cochain key
        # was ignored and a chain with both "builtin" and "file" read the
        # builtin; an int beyond the float range was an OverflowError
        # traceback with exit 1, and strings for the box bounds or the
        # vertex table were read as numbers
        monkeypatch.chdir(tmp_path)
        for name, body in _CHAIN_FILES.items():
            (tmp_path / name).write_text(json.dumps(body))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 2, 0], "coefficient": 1.0}]}},
            **change}))
        for command in ("verify", "transport", "flatnorm", "converge"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path)]) == 2
            assert field in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("change, commands, message", [
        ({"motion": {"family": "expansion", "interval": [-2, 1]}, "tau": -1},
         _COMMANDS, "scenario field 'motion': motion parameter 'interval' "
                    "of an expansion must not have -1 inside it"),
        ({"levels": 10 ** 6}, ("verify", "transport", "converge"),
         "levels 1000000 asks for more than 4194304 simplices"),
        ({"resolution": 10 ** 6}, _COMMANDS,
         "scenario field 'resolution': resolution 1000000 asks for more "
         "than 4194304 top simplices"),
        ({"resolution": 10 ** 6,
          "box": {"lower": [0, 0], "upper": [1, 1], "resolution": 2}},
         _COMMANDS,
         "scenario field 'resolution': resolution 1000000 asks for more "
         "than 4194304 top simplices"),
        ({"box": {"lower": [0, 0], "upper": [1, 1], "resolution": 10 ** 6}},
         _COMMANDS, "scenario field 'box': grid resolution 1000000 asks")],
        ids=["expansion_through_zero", "levels", "resolution",
             "complex_resolution", "box_resolution"])
    def test_refused_at_once_with_one_error_line(self, tmp_path, capsys,
                                                 change, commands, message):
        # transport on the expansion through the zero map died in a
        # ZeroDivisionError traceback with exit 1, while the other three
        # exited 0; unchecked, each size would subdivide or build a grid
        # or complex until memory runs out.  Each subcommand that reads
        # the field refuses it, and a `resolution` too large for the
        # complex is refused by all four, with a box of the file's own or
        # without, as one file is checked whole
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 2, 0], "coefficient": 1.0}]}},
            **change}))
        for command in commands:
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert message in err[0]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["transport", "converge"])
    def test_repeated_eps_step_rejected(self, tmp_path, capsys, command):
        # a repeated step made the observed FD order log(1) / log(1), a nan
        # row under exit 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "rotating_square", "eps_ladder": [0.01, 0.01, 0.001],
            "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 2, 0], "coefficient": 1.0}]}}}))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err
        assert "'eps_ladder' must not repeat a step" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["transport", "converge"])
    @pytest.mark.parametrize("ladder, message", [
        ([], "'eps_ladder' must have at least two steps, got []"),
        ([0.01], "'eps_ladder' must have at least two steps, got [0.01]"),
        (0.01, "'eps_ladder' must be a list of numbers, got 0.01"),
        ([0.01, True], "'eps_ladder' must be a list of numbers, got "
                       "[0.01, True]")],
        ids=["empty", "one-step", "scalar", "bool"])
    def test_eps_ladder_must_be_a_list_of_steps(self, tmp_path, capsys,
                                                command, ladder, message):
        # an empty or one-step ladder wrote an infinite FD order and a
        # continuity slope of inf or 0 under exit 0, and a scalar one a
        # TypeError naming no field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "rotating_square", "eps_ladder": ladder,
            "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 2, 0], "coefficient": 1.0}]}}}))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert f"bad scenario in {path}: scenario field {message}" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_misspelled_motion_parameter_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rta": 0.7}}))
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err and "'rta'" in err

    @pytest.mark.parametrize("key,motion", [
        ("axis", {"family": "tent", "axis": 2}),
        ("rate", {"family": "rotation", "rate": [1, 2]}),
        ("width", {"family": "tent", "width": 0}),
        ("velocity", {"family": "translation", "velocity": [1, 2, 3]})])
    def test_bad_motion_parameter_rejected(self, tmp_path, capsys, key,
                                           motion):
        # unchecked, each ends in an IndexError, TypeError,
        # ZeroDivisionError or broadcast error inside the run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": motion, "cochain": {
                "degree": 2, "components": {"0,1": [
                    {"exponents": [0, 0, 0], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err and f"'{key}'" in err

    def test_defaulted_tent_axis_rejected_in_1d(self, tmp_path, capsys):
        # the tent's default axis 1 is out of range on a line: unchecked,
        # an IndexError inside the run and exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "ambient": 1, "chain": {"builtin": "interval"},
            "motion": {"family": "tent"}, "cochain": {
                "degree": 1, "components": {"0": [
                    {"exponents": [0, 0], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err and "'axis'" in err

    @pytest.mark.parametrize("command", ["verify", "transport"])
    def test_shear_rejected_in_1d(self, tmp_path, capsys, command):
        # the shear needs a second axis: unchecked, an IndexError inside
        # the run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "ambient": 1, "chain": {"builtin": "interval"},
            "motion": {"family": "shear"}, "cochain": {
                "degree": 1, "components": {"0": [
                    {"exponents": [0, 0], "coefficient": 1.0}]}}}))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err and "shear" in err

    @pytest.mark.parametrize("interval", ["ab", [0.0, 0.5, 1.0]])
    def test_bad_motion_interval_rejected(self, tmp_path, capsys, interval):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation",
                                    "interval": interval}}))
        with pytest.raises(ValueError, match="'motion': motion parameter "
                                             "'interval' must be two finite "
                                             "increasing numbers"):
            load_config(path)
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario in {path}" in err

    @pytest.mark.parametrize("field,value", [
        ("levels", 2.5), ("levels", -3), ("levels", "2"), ("levels", True),
        ("panels", 0), ("resolution", 1), ("ambient", 0), ("ambient", 1.5),
        ("seed", 1.5), ("seed", -1), ("seed", None), ("levels", 10 ** 400)])
    def test_integer_field_rejected(self, tmp_path, capsys, field, value):
        # unchecked: a TypeError and exit 1, a negative level read as
        # level 0, no time panels and a failed homotopy check, or a level
        # beyond the float range subdividing until the process was killed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", field: value}))
        with pytest.raises(ValueError, match=f"'{field}' must be a whole "
                                             f"number >= "):
            load_config(path)
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert f"bad scenario in {path}" in capsys.readouterr().err

    def test_integer_fields_are_stored_as_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "levels": 2.0, "panels": 4, "resolution": 3.0,
            "ambient": 2, "seed": 7.0}))
        (cfg,) = load_config(path)
        got = [cfg.levels, cfg.panels, cfg.resolution, cfg.ambient,
               cfg.seed]
        assert got == [2, 4, 3, 2, 7]
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("command", ["verify", "transport", "flatnorm",
                                         "converge"])
    def test_chain_of_another_ambient_dimension_exit_2(self, tmp_path,
                                                       capsys, command):
        # the default square in R^3: unchecked, verify and flatnorm exited
        # 2 with messages that named neither the scenario nor the field,
        # and transport and converge exited 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "space", "ambient": 3,
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 0, 0, 0], "coefficient": 1.0}]}}}))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert ("scenario 'space': field 'ambient' is 3, but its chain lies "
                "in 2 dimensions") in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    def test_chain_file_of_another_ambient_dimension_rejected(self,
                                                              tmp_path):
        chain_path = tmp_path / "chain.json"
        triangle_chain().save(chain_path)
        cfg = ScenarioConfig.from_obj({
            "name": "line", "ambient": 1, "chain": {"file": str(chain_path)},
            "motion": {"family": "translation"}})
        with pytest.raises(ValueError, match="^scenario 'line': field "
                                             "'ambient' is 1, but its chain "
                                             "lies in 2 dimensions$"):
            cfg.build_chain()

    @pytest.mark.parametrize("vertices", [[0, -1], [0, 5]])
    def test_bad_chain_vertex_index_exit_2(self, tmp_path, capsys,
                                           vertices):
        # unchecked, [0, -1] wraps to the last table row and the run
        # reports numbers for the wrong segment; [0, 5] is an IndexError
        chain = boundary(triangle_chain()).to_json_obj()
        chain["simplices"][1]["vertices"] = vertices
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "chain": {"file": str(chain_path)},
            "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 1, "components": {"0": [
                {"exponents": [0, 0, 1], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "simplex 1 of the chain" in capsys.readouterr().err
        assert not (tmp_path / "transport.csv").exists()

    @pytest.mark.parametrize("key", ["vertices", "multiplicity"])
    def test_missing_chain_key_exit_2(self, tmp_path, capsys, key):
        # unchecked, a KeyError traceback and exit 1
        chain = boundary(triangle_chain()).to_json_obj()
        del chain["simplices"][1][key]
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "chain": {"file": str(chain_path)},
            "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 1, "components": {"0": [
                {"exponents": [0, 0, 1], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert (f'simplex 1 of the chain lacks "{key}"'
                in capsys.readouterr().err)
        assert not (tmp_path / "transport.csv").exists()

    def test_unknown_chain_key_exit_2(self, tmp_path, capsys):
        # unchecked, the misspelt "sgn" was ignored: the run exited 0 and
        # reported a transport derivative of -0.2 where "sign" gives
        # -0.642666666667
        chain = boundary(unit_square_chain()).to_json_obj()
        chain["simplices"][0]["sgn"] = -1
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "chain": {"file": str(chain_path)},
            "motion": {"family": "shear", "rate": 0.4},
            "cochain": {"degree": 1, "components": {"0": [
                {"exponents": [0, 0, 1], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert ('simplex 0 of the chain: unknown key "sgn"'
                in capsys.readouterr().err)
        assert not (tmp_path / "transport.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "transport", "flatnorm",
                                         "converge"])
    def test_relative_chain_file_is_read_beside_its_config(
            self, tmp_path, monkeypatch, capsys, command):
        # a relative chain "file" was opened from the working directory, so
        # a config beside its chain file exited 2 from any other directory
        config_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
        config_dir.mkdir()
        elsewhere.mkdir()
        boundary(unit_square_chain()).save(config_dir / "c.json")
        path = config_dir / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "chain": {"file": "c.json"},
            "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 1, "components": {"0": [
                {"exponents": [0, 0, 1], "coefficient": 1.0}]}}}))
        monkeypatch.chdir(elsewhere)
        assert main([command, "--config", str(path), "--out", "out"]) == 0
        assert (elsewhere / "out" / f"{command}.csv").exists()
        (config_dir / "c.json").unlink()
        assert main([command, "--config", str(path), "--out", "out"]) == 2
        resolved = os.path.join(str(config_dir), "c.json")
        assert (f"error: scenario 'x': chain file {resolved!r}: No such "
                f"file or directory") in capsys.readouterr().err

    def test_an_error_is_one_line_on_stderr(self, tmp_path):
        # each error was written twice, through the log and as "error: ..."
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        env.pop("CURRENTKIT_LOG", None)
        missing = tmp_path / "missing.json"
        done = subprocess.run(
            [sys.executable, "-m", "currentkit.cli", "verify", "--config",
             str(missing), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"error: [Errno 2] No such file or directory: '{missing}'"]

    @pytest.mark.parametrize("term, match", [
        ({"exponents": [0, 1.5, 0], "coefficient": 1.0},
         "must be whole numbers >= 0"),
        ({"exponents": [0, True, 0], "coefficient": 1.0},
         "must be whole numbers >= 0"),
        ({"exponents": [0, 1, 0], "coefficient": "3"},
         "is not a real number"),
        ({"coefficient": 1.0}, "polynomial term 1 has no 'exponents'"),
        ({"exponents": [0, 1, 0]}, "polynomial term 1 has no 'coefficient'"),
        ([[0, 1, 0], 1.0], "polynomial term 1 is not an object")],
        ids=["fraction", "bool", "string", "no-exponents", "no-coefficient",
             "list"])
    def test_bad_cochain_term_exit_2(self, tmp_path, capsys, term, match):
        # unchecked, exponent 1.5 ran as 1 with exit 0, and a missing key
        # was a KeyError traceback with exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [0, 0, 0], "coefficient": 1.0}, term]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "transport.csv").exists()

    def test_overflowing_cochain_exit_2(self, tmp_path, capsys):
        # unchecked, t^2 at tau = 1e200 was an OverflowError traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "tau": 1e200, "motion": {
                "family": "translation", "velocity": [0.3, 0.1],
                "interval": [-1e300, 1e300]},
            "cochain": {"degree": 2, "components": {"0,1": [
                {"exponents": [2, 0, 0], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "non-finite coefficient inf" in capsys.readouterr().err

    def test_repeated_cochain_term_is_summed(self, tmp_path):
        # unchecked, the second term replaced the first
        def run(terms, out):
            path = tmp_path / f"{out}.json"
            path.write_text(json.dumps({
                "name": "x", "motion": {"family": "rotation", "rate": 0.7},
                "cochain": {"degree": 2, "components": {"0,1": terms}}}))
            assert main(["transport", "--config", str(path),
                         "--out", str(tmp_path / out)]) == 0
            return _read(tmp_path / out / "transport.csv")

        term = {"exponents": [0, 2, 0], "coefficient": 1.0}
        split = run([term, {**term, "coefficient": 2.0}], "split")
        merged = run([{**term, "coefficient": 3.0}], "merged")
        assert split == merged

    @pytest.mark.parametrize("cochain, match", [
        ({"components": {}}, _WHOLE_DEGREE),
        ({"degree": 1.5, "components": {}}, _WHOLE_DEGREE),
        ({"degree": True, "components": {}}, _WHOLE_DEGREE),
        ({"degree": "2", "components": {}}, _WHOLE_DEGREE),
        ({"degree": -1, "components": {}}, _WHOLE_DEGREE),
        ({"degree": 3, "components": {}},
         "'cochain': degree 3 must be between 0 and the ambient dimension 2"),
        ({"degree": 2}, "'cochain.components' must be an object"),
        ({"degree": 2, "components": [[0, 1]]},
         "'cochain.components' must be an object"),
        ([2, {}], "'cochain' must be an object")],
        ids=["no-degree", "fraction", "bool", "string", "negative",
             "above-ambient", "no-components", "list-components", "list"])
    def test_bad_cochain_exit_2(self, tmp_path, capsys, cochain, match):
        # unchecked, a missing key was a KeyError traceback with exit 1 in
        # transport, while verify and converge exited 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rate": 0.7},
            "cochain": cochain}))
        with pytest.raises(ValueError, match=match):
            load_config(path)
        for command in ("verify", "transport", "flatnorm", "converge"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path)]) == 2
            assert f"bad scenario in {path}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_whole_float_cochain_degree_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "x", "motion": {"family": "rotation", "rate": 0.7},
            "cochain": {"degree": 2.0, "components": {"0,1": [
                {"exponents": [0, 0, 0], "coefficient": 1.0}]}}}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("box", [
        {"lower": [0, 0, 0], "upper": [1, 1, 1]}, {"upper": [1, 1]}])
    def test_box_of_wrong_dimension_exit_2(self, tmp_path, capsys, box):
        # verify no longer reads the box, which ran a 3-D box silently
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "box": box}))
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "'box.lower' must be 2 numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, 1, "3", True])
    def test_bad_box_resolution_rejected(self, tmp_path, capsys, value):
        # unchecked, 2.5 ran silently on a resolution-2 box
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "box": {
            "lower": [0, 0], "upper": [1, 1], "resolution": value}}))
        with pytest.raises(ValueError, match="'box.resolution' must be a "
                                             "whole number >= 2"):
            load_config(path)
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert f"bad scenario in {path}" in capsys.readouterr().err

    def test_whole_box_resolution_is_stored_as_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "box": {
            "lower": [0, 0], "upper": [1, 1], "resolution": 4.0}}))
        (cfg,) = load_config(path)
        box = cfg.build_box()
        assert box.resolution == 4 and type(box.resolution) is int

    def test_parse_error_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="parse error"):
            load_config(bad)

    @pytest.mark.parametrize("obj, message", [
        ({"scenarios": 5}, "'scenarios' must be a list of scenario objects, "
                           "got 5"),
        ({"scenarios": {"name": "a"}}, "'scenarios' must be a list of "
                                       "scenario objects, got {'name': 'a'}"),
        ({"scenarios": "x"}, "'scenarios' must be a list of scenario "
                             "objects, got 'x'"),
        ({"scenarios": ["x"]}, "a scenario must be an object, got 'x'"),
        ([{"name": "a"}], "a scenario must be an object, got [{'name': "
                          "'a'}]")],
        ids=["number", "object", "string", "string-entry", "top-level-list"])
    def test_file_shape_is_checked(self, tmp_path, capsys, obj, message):
        # a top-level list exited 2 with "unhashable type: 'dict'", and
        # the others raised a TypeError or AttributeError out of main
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad scenario in {path}: {message}\n"

    @pytest.mark.parametrize("chain", [
        {"file": 0}, {"file": 2}, {"file": True}, {"builtin": ["square"]}],
        ids=["file-0", "file-2", "file-true", "builtin-list"])
    def test_chain_file_and_builtin_must_be_strings(self, tmp_path, capfd,
                                                    chain):
        # "file": 0 read the chain from stdin and closed it, 2 opened and
        # closed stderr, true opened stdout, and a list builtin was a
        # TypeError traceback with exit 1; the test's own descriptors are
        # restored whatever main does to them
        stdin = tmp_path / "stdin.json"
        unit_square_chain().save(stdin)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "chain": chain}))
        saved = [os.dup(fd) for fd in (0, 1, 2)]
        try:
            with open(stdin) as fh:
                os.dup2(fh.fileno(), 0)
            codes = [main([command, "--config", str(path),
                           "--out", str(tmp_path)])
                     for command in ("verify", "transport", "flatnorm",
                                     "converge")]
            read = os.lseek(0, 0, os.SEEK_CUR)
        finally:
            for fd, copy in enumerate(saved):
                os.dup2(copy, fd)
                os.close(copy)
        (key, value), = chain.items()
        assert codes == [2] * 4 and read == 0
        assert capfd.readouterr().err.splitlines() == [
            f"error: bad scenario in {path}: scenario field 'chain.{key}' "
            f"must be a string, got {value!r}"] * 4

    def test_no_malformed_file_raises_out_of_main(self, tmp_path, capsys):
        # a scenario or chain file with one field, or its shape, replaced by
        # a value of another kind: 28 of the first 384 (a "simplices" or
        # "scenarios" that is not a list, a dict "vertex_table" or
        # multiplicity, a list "chain.multiplier", a scenario that is not
        # an object) raised a TypeError or AttributeError out of main; an
        # int beyond the float range raised an OverflowError out of main
        # where a number was read, and as "levels" made transport
        # subdivide until the process was killed
        commands = ("verify", "transport", "flatnorm", "converge")
        path, out = tmp_path / "cfg.json", str(tmp_path / "out")
        wrong = []
        for k, (what, scenario, chain) in enumerate(_sweep_cases()):
            path.write_text(json.dumps(scenario))
            (tmp_path / "c.json").write_text(json.dumps(chain))
            try:
                code = main([commands[k % 4], "--config", str(path),
                             "--out", out])
            except Exception as exc:
                wrong.append((what, repr(exc)))
                continue
            err = capsys.readouterr().err.splitlines()
            if code not in (0, 1, 2) or code == 2 and not (
                    len(err) == 1 and err[0].startswith("error: ")):
                wrong.append((what, code, err))
        assert k > 300 and not wrong


class TestVerify:
    @pytest.mark.parametrize("chain", [
        unit_square_chain(), boundary(unit_square_chain()), triangle_chain()],
        ids=["square", "boundary_square", "triangle"])
    @pytest.mark.parametrize("name, mat", [
        ("conformal", 2.0 * np.array([[np.cos(0.3), -np.sin(0.3)],
                                      [np.sin(0.3), np.cos(0.3)]])),
        ("shear", np.array([[1.0, 1.7], [0.0, 1.0]]))],
        ids=["conformal", "shear"])
    def test_pushforward_mass_bound(self, chain, name, mat):
        # |mat|_2 is the exact Lipschitz constant; a conformal map meets
        # the bound M(f#T) <= Lip(f)^r M(T) with equality
        excess = _pushforward_excess(chain, mat, np.array([0.4, -0.2]))
        assert excess == 0.0
        if name == "conformal":
            pushed = pushforward_chain(LipMap.affine(mat), chain)
            assert mass_chain(pushed) == pytest.approx(
                2.0 ** chain.degree * mass_chain(chain), rel=1e-12)

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

    def test_main_alone_writes_and_exits_on_the_fail_marks(self, tmp_path,
                                                           monkeypatch):
        # each subcommand returns its rows; main writes them, once a run,
        # and exits 1 exactly when a written row is marked " [FAIL]"
        written, write = [], cli._write_csv

        def counted(path, rows):
            written.append(path)
            write(path, rows)

        monkeypatch.setattr(cli, "_write_csv", counted)
        runs = [(["verify", "--tolerance-scale", "1e-30"], 1)] + [
            ([command], 0)
            for command in ("verify", "transport", "flatnorm", "converge")]
        for k, (argv, code) in enumerate(runs, 1):
            assert main(argv + ["--out", str(tmp_path)]) == code
            assert len(written) == k
            marked = [r for r in _read(written[-1])
                      if r["quantity"].endswith(" [FAIL]")]
            assert bool(marked) == (code == 1)

    def test_failed_check_logs_its_margin(self, tmp_path, caplog):
        passing, failing = tmp_path / "pass", tmp_path / "fail"
        main(["verify", "--out", str(passing)])
        with caplog.at_level(logging.WARNING, logger="currentkit"):
            assert main(["verify", "--out", str(failing),
                         "--tolerance-scale", "1e-30"]) == 1
        rows = _read(failing / "verify.csv")
        # the CSV only marks the row: its cells are those of a passing run
        assert [{**r, "quantity": r["quantity"].replace(" [FAIL]", "")}
                for r in rows] == _read(passing / "verify.csv")
        failed = [r for r in rows if r["quantity"].endswith(" [FAIL]")]
        messages = [rec.getMessage() for rec in caplog.records
                    if rec.getMessage().startswith("FAIL ")]
        assert len(messages) == len(failed) > 0
        for row, message in zip(failed, messages):
            error = abs(float(row["value"]) - float(row["oracle"]))
            assert message.startswith(
                f"FAIL {row['scenario']} / {row['quantity']}: value ")
            assert f"|value - oracle| {error:.6g} > tol " in message
            assert "x tolerance-scale 1e-30 = " in message
            assert message.endswith(f", margin {-error:.6g}")
        adjoint = next(m for m in messages if "adjointness_residual" in m)
        assert "tol 1e-08 x tolerance-scale 1e-30 = 1e-38" in adjoint

    @pytest.mark.parametrize("value, accepted", [
        ("nan", False), ("inf", False), ("-1", False), ("0", True),
        ("1", True)])
    def test_tolerance_scale_is_finite_and_nonnegative(self, tmp_path, capsys,
                                                       value, accepted):
        # nan and -1 would fail every check, inf pass every one; 0 leaves
        # the exact checks
        argv = ["verify", "--out", str(tmp_path), "--tolerance-scale", value]
        if accepted:
            assert _build_parser().parse_args(argv).tolerance_scale == \
                float(value)
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert ("argument --tolerance-scale: must be a finite number >= 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "verify.csv").exists()

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


def test_verify_and_transport_start_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for command in ("verify", "transport"):
        assert main([command, "--out", str(tmp_path), "--workers", "2"]) == 0
        assert (tmp_path / f"{command}.csv").exists()


def _counted_chain_checks(monkeypatch):
    """A list that grows by one for each run of verify's chain checks,
    counted at the pushforward mass check that every run makes once."""
    runs = []
    excess = cli._pushforward_excess

    def counted(*args):
        runs.append(args[0])
        return excess(*args)

    monkeypatch.setattr(cli, "_pushforward_excess", counted)
    return runs


def _verify_alone(tmp_path, cfg):
    """The verify rows of one scenario, run from a config file of its
    own with its seed."""
    path = tmp_path / f"{cfg.name}.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    out = tmp_path / f"{cfg.name}_out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "verify.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestSharedChainChecks:
    @pytest.mark.parametrize("seed", [42, 7, 977])
    def test_bundled_rows_are_those_of_each_scenario_alone(self, tmp_path,
                                                           seed):
        assert main(["verify", "--seed", str(seed), "--out",
                     str(tmp_path / "bundled")]) == 0
        with open(tmp_path / "bundled" / "verify.csv", newline="") as fh:
            bundled = list(csv.reader(fh))[1:]
        alone = []
        for cfg in builtin_scenarios():
            alone += _verify_alone(tmp_path, dataclasses.replace(cfg,
                                                                 seed=seed))
        assert bundled == alone

    def test_bundled_library_runs_the_chain_checks_twice(self, tmp_path,
                                                         monkeypatch):
        # five scenarios on the unit square and one on its boundary, all
        # at the CLI seed
        runs = _counted_chain_checks(monkeypatch)
        assert main(["verify", "--out", str(tmp_path)]) == 0
        assert [T.degree for T in runs] == [2, 1]

    def test_reused_rows_have_no_runtime(self, tmp_path, monkeypatch):
        # the boundary's group reuses the square's form checks, which read
        # the same seed and dimension
        monkeypatch.setenv("CURRENTKIT_TIMINGS", "1")
        assert main(["verify", "--out", str(tmp_path)]) == 0
        timed = {(r["scenario"], r["quantity"])
                 for r in _read(tmp_path / "verify.csv") if r["runtime"]}
        assert {("rotating_square", "dd_zero_residual"),
                ("shearing_boundary", "adjointness_residual"),
                ("static_square", "homotopy_residual")} <= timed
        assert {q for s, q in timed if s == "shearing_boundary"} == {
            "adjointness_residual", "reynolds_duality_residual",
            "pushforward_mass_within_bound", "homotopy_residual"}
        assert {s for s, q in timed if q != "homotopy_residual"} == {
            "rotating_square", "shearing_boundary"}

    @pytest.mark.parametrize("change", [
        {"seed": 43}, {"chain": {"builtin": "square", "multiplier": 2.0}}],
        ids=["seed", "multiplier"])
    def test_scenarios_apart_in_what_the_checks_read_share_nothing(
            self, tmp_path, monkeypatch, change):
        base = {"name": "a", "motion": {"family": "rotation", "rate": 0.7}}
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"scenarios": [
            base, {**base, "name": "b", **change}]}))
        runs = _counted_chain_checks(monkeypatch)
        assert main(["verify", "--config", str(config), "--out",
                     str(tmp_path / "pair")]) == 0
        assert len(runs) == 2
        with open(tmp_path / "pair" / "verify.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        alone = [_verify_alone(tmp_path, ScenarioConfig.from_obj(obj))
                 for obj in (base, {**base, "name": "b", **change})]
        assert rows == alone[0] + alone[1]
        assert [r[2] for r in alone[0]] != [r[2] for r in alone[1]]

    @pytest.mark.parametrize("change, runs", [
        (None, 1), ({"seed": 43}, 2),
        ({"chain": {"builtin": "square", "multiplier": 2.0}}, 1),
        ({"chain": {"builtin": "boundary_square"}}, 1),
        ({"ambient": 1, "chain": {"builtin": "interval"},
          "motion": {"family": "translation"}}, 2)],
        ids=["bundled", "seed", "multiplier", "chain", "dimension"])
    def test_form_checks_run_once_per_seed_and_dimension(
            self, tmp_path, monkeypatch, change, runs):
        # counted at the Cartan formula, which only the form checks
        # compute, ten times a run; the rows are those of each scenario
        # alone
        calls = []
        components = cli.lie_derivative_components

        def counted(*args):
            calls.append(args)
            return components(*args)

        monkeypatch.setattr(cli, "lie_derivative_components", counted)
        base = {"name": "a", "motion": {"family": "rotation", "rate": 0.7}}
        if change is None:
            argv = []
            alone = [dataclasses.asdict(c) for c in builtin_scenarios()]
        else:
            alone = [base, {**base, "name": "b", **change}]
            config = tmp_path / "pair.json"
            config.write_text(json.dumps({"scenarios": alone}))
            argv = ["--config", str(config)]
        assert main(["verify", *argv, "--out", str(tmp_path / "all")]) == 0
        assert len(calls) == 10 * runs
        with open(tmp_path / "all" / "verify.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [row for obj in alone for row in _verify_alone(
            tmp_path, ScenarioConfig.from_obj(obj))]

    def test_chain_spelling_does_not_matter(self, tmp_path, monkeypatch):
        # a multiplier of 1 and no multiplier are one chain
        base = {"name": "a", "motion": {"family": "rotation", "rate": 0.7}}
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"scenarios": [
            base, {**base, "name": "b",
                   "chain": {"builtin": "square", "multiplier": 1}}]}))
        runs = _counted_chain_checks(monkeypatch)
        assert main(["verify", "--config", str(config), "--out",
                     str(tmp_path)]) == 0
        assert len(runs) == 1

    def test_another_ambient_dimension_shares_nothing(self, tmp_path,
                                                      capsys):
        # the square in R^3 is a configuration error of its own, which
        # rows of the square in R^2 would hide
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"scenarios": [
            {"name": "plane"}, {"name": "space", "ambient": 3}]}))
        assert main(["verify", "--config", str(config), "--out",
                     str(tmp_path)]) == 2
        assert "scenario 'space': field 'ambient' is 3" in \
            capsys.readouterr().err


class TestWorkers:
    @pytest.mark.parametrize("command", ["verify", "transport", "flatnorm",
                                         "converge"])
    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "two", ""])
    def test_workers_is_a_whole_number_of_at_least_one(self, tmp_path,
                                                       capsys, command,
                                                       value):
        # 0 ended in the executor's error (verify, transport) or went
        # unused (flatnorm, converge)
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), "--workers", value])
        assert exc.value.code == 2
        assert "argument --workers: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert _build_parser().parse_args(
            [command, "--workers", "3"]).workers == 3


class TestDeterminism:
    @pytest.mark.parametrize("command", ["verify", "transport", "flatnorm",
                                         "converge"])
    def test_bundled_outputs_match_the_benchmark_reference(self, tmp_path,
                                                           command):
        # every cell of the seed-42 reference, byte for byte, except those
        # the benchmark's reference check skips
        checks = _load_perfbench("checks")
        assert main([command, "--seed", "42", "--out", str(tmp_path)]) == 0
        path = os.path.join(os.path.dirname(checks.__file__), "reference",
                            "bundled", f"{command}.csv")
        assert (_reference_cells(checks, _read(tmp_path / f"{command}.csv"))
                == _reference_cells(checks, _read(path)))

    @pytest.mark.parametrize("command", ["verify", "transport"])
    def test_refined_outputs_match_the_benchmark_reference(self, tmp_path,
                                                           command):
        # the refined inputs at seed 42, one scenario file at a time and
        # the rows joined in file order, as the benchmark runs them; tent_l5
        # evaluates the sampled contraction on a level-5 chain
        checks = _load_perfbench("checks")
        configs = _load_perfbench("workloads").write_refined(42,
                                                             str(tmp_path))
        rows = []
        for k, config in enumerate(configs):
            out = tmp_path / f"out{k}"
            assert main([command, "--config", config, "--out", str(out)]) == 0
            rows += _read(out / f"{command}.csv")
        path = os.path.join(os.path.dirname(checks.__file__), "reference",
                            "refined", f"{command}.csv")
        assert (_reference_cells(checks, rows)
                == _reference_cells(checks, _read(path)))

    def test_flatgrid_outputs_match_the_benchmark_reference(self, tmp_path):
        # the flatgrid inputs at seed 42, one scenario file at a time: six
        # flat-norm LPs on Freudenthal complexes, whose column order sets
        # the pivot path
        checks = _load_perfbench("checks")
        configs = _load_perfbench("workloads").write_flatgrid(42,
                                                              str(tmp_path))
        rows = []
        for k, config in enumerate(configs):
            out = tmp_path / f"out{k}"
            assert main(["flatnorm", "--config", config, "--out",
                         str(out)]) == 0
            rows += _read(out / "flatnorm.csv")
        path = os.path.join(os.path.dirname(checks.__file__), "reference",
                            "flatgrid", "flatnorm.csv")
        assert (_reference_cells(checks, rows)
                == _reference_cells(checks, _read(path)))
        # the network simplex's pivot counts, which the reference check
        # skips: a changed pivot path shows here
        assert [row["value"] for row in rows
                if row["quantity"] == "lp_iterations"] == \
            ["111", "373", "447", "1807", "303", "1726"]


    def test_cli_csvs_tool_writes_every_output(self, tmp_path):
        # tools/cli_csvs.py at one seed: the four bundled subcommands, the
        # four refined scenarios under verify and transport, and the six
        # flatgrid scenarios under flatnorm
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        done = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "cli_csvs.py"),
             str(tmp_path / "out"), "--seeds", "42"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written = sorted(p.relative_to(tmp_path / "out" / "seed42").parts[0]
                         for p in (tmp_path / "out").rglob("*")
                         if p.is_file())
        assert written == ["bundled"] * 4 + ["flatgrid"] * 6 + \
            ["refined"] * 8
        assert all(p.suffix == ".csv" for p in (tmp_path / "out").rglob("*")
                   if p.is_file())
        # --against: a second run equals the first; a changed CSV, one
        # the second run lacks and one only it writes are printed, then
        # the counts, and the exit code is 1; a seed not written is not
        # compared
        argv = [sys.executable, os.path.join(root, "tools", "cli_csvs.py"),
                "--seeds", "42", "--against", str(tmp_path / "out")]
        done = subprocess.run(argv + [str(tmp_path / "same")], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (
            0, "compared 18 files: 0 differ\n"), done.stderr
        seed = tmp_path / "out" / "seed42"
        with open(seed / "bundled" / "verify" / "verify.csv", "a") as fh:
            fh.write("\n")
        (seed / "flatgrid" / "cells_2d_r8" / "flatnorm" /
         "flatnorm.csv").unlink()
        (seed / "refined" / "extra.csv").write_text("")
        (tmp_path / "out" / "seed7").mkdir()
        (tmp_path / "out" / "seed7" / "extra.csv").write_text("")
        done = subprocess.run(argv + [str(tmp_path / "other")], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 1, done.stderr
        assert done.stdout.splitlines() == [
            "differs: " + os.path.join("seed42", "bundled", "verify",
                                       "verify.csv"),
            "differs: " + os.path.join("seed42", "flatgrid", "cells_2d_r8",
                                       "flatnorm", "flatnorm.csv"),
            "differs: " + os.path.join("seed42", "refined", "extra.csv"),
            "compared 19 files: 3 differ"]


    def test_flat_rows_tool_gives_the_pinned_rows(self, monkeypatch,
                                                  capsys):
        # tools/flat_rows.py: the pivots and F, bit for bit, of the
        # ROADMAP's four large rows, a chain builder of the benchmark for
        # every row, and a table row with its seconds per pivot in us
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "flat_rows", os.path.join(root, "tools", "flat_rows.py"))
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert [tool.row(*row)[:2] for row in tool.ROWS["large"]] == [
            (1853, 0.2998046875), (8558, 20.438305903824947),
            (2625, 0.3007812500000004), (18953, 15.385924245530607)]
        workloads = _load_perfbench("workloads")
        assert all(hasattr(workloads, kind) for rows in tool.ROWS.values()
                   for _, _, kind in rows)
        monkeypatch.setattr(tool, "row", lambda *row: (2000, 0.5, 0.03))
        assert tool.main(["--rows", "xlarge"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "| input | pivots | F | seconds | µs/pivot |",
            "|---|---|---|---|---|",
            "| 2-D res 64, `random_faces` | 2000 | 0.5 | 0.03 | 15.0 |"]

    def test_ab_pairs_tool_refuses_a_cached_checkout(self, tmp_path):
        # tools/ab_pairs.py compiles each side's sources afresh: a
        # checkout with a bytecode cache is refused before any run, and so
        # is a directory without the benchmark
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        clean, cached = tmp_path / "clean", tmp_path / "cached"
        for side in (clean, cached):
            (side / "perfbench").mkdir(parents=True)
            (side / "perfbench" / "run.py").write_text("")
        (cached / "src" / "currentkit" / "__pycache__").mkdir(parents=True)
        (tmp_path / "empty").mkdir()
        for side, message in ((cached, "has src/currentkit/__pycache__"),
                              (tmp_path / "empty", "no perfbench/run.py")):
            done = subprocess.run(
                [sys.executable, os.path.join(root, "tools", "ab_pairs.py"),
                 str(clean), str(side), "--pairs", "1"],
                capture_output=True, text=True, timeout=60)
            assert done.returncode == 2
            assert message in done.stderr and done.stdout == ""


    def test_ab_pairs_tool_prints_each_source_size(self, tmp_path):
        # the runs compile the sources afresh, so peak_rss_mb moves with
        # their length: the summary gives each side's size in bytes
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["end_to_end"]]
        report = {"correct": True, "failed": 0,
                  "metrics": {name: {"value": 1.0} for name in names}}
        sides = []
        for label, sources in (("base", {"a.py": "x = 1\n"}),
                               ("change", {"a.py": "x = 12\n",
                                           "b.py": "y = 2\n",
                                           "notes.txt": "skipped\n"})):
            side = tmp_path / label
            (side / "perfbench").mkdir(parents=True)
            (side / "perfbench" / "run.py").write_text(
                f"print({json.dumps(json.dumps(report))})\n")
            (side / "src" / "currentkit").mkdir(parents=True)
            for name, text in sources.items():
                (side / "src" / "currentkit" / name).write_text(text)
            sides.append(str(side))
        done = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "ab_pairs.py"),
             *sides, "--pairs", "1"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "src/currentkit bytes: base 6, change 13 (+7)" in \
            done.stdout.splitlines()

    @pytest.mark.parametrize("argv, workloads", [
        ([], ["bundled"]),
        (["--workload", "bundled", "--workload", "refined"],
         ["bundled", "refined"]),
        (["--workload", "flatgrid", "refined", "--workload", "flatgrid"],
         ["flatgrid", "refined"])])
    def test_ab_pairs_tool_runs_every_workload_given(self, argv, workloads):
        # argparse kept only the last --workload of a nargs="+" option
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "ab_pairs.py")
        spec = importlib.util.spec_from_file_location("ab_pairs", path)
        ab_pairs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab_pairs)
        assert ab_pairs.parse_args(["base", "change", *argv]).workload == \
            workloads


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

    def test_classical_identity_in_3d(self, tmp_path):
        # the Kuhn tetrahedron under expansion: volume (1 + t)^3 / 6, so
        # the transport derivative at tau = 0.3 is 1.3^2 / 2 = 0.845; the
        # flux normals were planar only, an exit 2
        chain_path = tmp_path / "tet.json"
        Chain(np.array([[[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]]),
              [1.0]).save(chain_path)
        constant = [{"exponents": [0, 0, 0, 0], "coefficient": 1.0}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "kuhn", "ambient": 3, "tau": 0.3,
            "chain": {"file": str(chain_path)},
            "motion": {"family": "expansion", "interval": [-0.5, 1.0]},
            "cochain": {"degree": 3, "components": {"0,1,2": constant}},
            "density": constant}))
        assert main(["transport", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        row, = [r for r in _read(tmp_path / "transport.csv")
                if r["quantity"] == "classical_lhs"]
        assert float(row["value"]) == pytest.approx(0.845, rel=1e-12)
        assert float(row["rel_error"]) <= 1e-14

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["transport", "--out", str(a)])
        main(["transport", "--out", str(b)])
        assert (a / "transport.csv").read_bytes() == \
            (b / "transport.csv").read_bytes()


class TestTimings:
    def test_timings_fill_only_runtime_cells(self, tmp_path, monkeypatch):
        # CURRENTKIT_TIMINGS=1 writes the runtime of the timed rows; every
        # other cell is the default run's
        for cmd in ("verify", "transport"):
            assert main([cmd, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("CURRENTKIT_TIMINGS", "1")
        for cmd in ("verify", "transport"):
            assert main([cmd, "--out", str(tmp_path / "timed")]) == 0
        for name in ("verify.csv", "transport.csv"):
            with open(tmp_path / "plain" / name) as fh:
                plain = list(csv.reader(fh))
            with open(tmp_path / "timed" / name) as fh:
                timed = list(csv.reader(fh))
            assert len(plain) == len(timed)
            runtimes = [t[-1] for p, t in zip(plain, timed) if p != t]
            for p, t in zip(plain, timed):
                assert p[:-1] == t[:-1]
                assert p[-1] == t[-1] or p[-1] == ""
            assert runtimes
            assert all(float(x) >= 0.0 for x in runtimes)


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

    @pytest.mark.parametrize("change", [
        {"seed": 43}, {"chain": {"builtin": "boundary_square"}},
        {"resolution": 8},
        {"box": {"lower": [0.0, 0.0], "upper": [2.0, 2.0]}}],
        ids=["seed", "chain", "resolution", "box"])
    def test_shared_inputs_give_each_scenario_its_own_rows(
            self, tmp_path, monkeypatch, change):
        # a and b differ only in what flatnorm does not read, c in one
        # input: the same bytes as each scenario alone, one LP per
        # scenario and one norm ladder per distinct input
        scenarios = [{"name": "a"},
                     {"name": "b", "motion": {"family": "rotation"}},
                     {"name": "c", **change}]
        alone = []
        for obj in scenarios:
            path = tmp_path / f"{obj['name']}.json"
            path.write_text(json.dumps(obj))
            out = tmp_path / f"{obj['name']}_out"
            assert main(["flatnorm", "--config", str(path), "--out",
                         str(out)]) == 0
            lines = (out / "flatnorm.csv").read_bytes().splitlines(True)
            alone += lines[1:] if alone else lines
        lps, ladders = [], []
        solve, bound = cli.flat_norm_lp, cli.lower_bounds
        monkeypatch.setattr(cli, "flat_norm_lp",
                            lambda *a: lps.append(a) or solve(*a))
        monkeypatch.setattr(cli, "lower_bounds",
                            lambda *a: ladders.append(a) or bound(*a))
        config = tmp_path / "three.json"
        config.write_text(json.dumps({"scenarios": scenarios}))
        assert main(["flatnorm", "--config", str(config), "--out",
                     str(tmp_path / "three")]) == 0
        assert (tmp_path / "three" / "flatnorm.csv").read_bytes() == \
            b"".join(alone)
        assert len(lps) == 3 and len(ladders) == 2

    @pytest.mark.parametrize("order, alive", [
        ("aabb", [1, 1, 1, 1]), ("aba", [1, 2, 1])])
    def test_complex_dropped_after_last_scenario_of_its_input(
            self, tmp_path, monkeypatch, order, alive):
        # two distinct inputs (a at resolution 4, b at 8): at each LP only
        # the complexes of inputs that a later scenario still reads are alive
        built, seen = [], []
        make, solve = cli.freudenthal_complex, cli.flat_norm_lp

        def complex_(*a):
            comp = make(*a)
            built.append(weakref.ref(comp))
            return comp

        def lp(*a):
            gc.collect()
            seen.append(sum(ref() is not None for ref in built))
            return solve(*a)

        monkeypatch.setattr(cli, "freudenthal_complex", complex_)
        monkeypatch.setattr(cli, "flat_norm_lp", lp)
        resolution = {"a": 4, "b": 8}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenarios": [
            {"name": f"s{k}", "resolution": resolution[c]}
            for k, c in enumerate(order)]}))
        assert main(["flatnorm", "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 0
        assert len(built) == 2 and seen == alive

    def test_triangle_off_the_grid_exit_2_with_reason(self, tmp_path,
                                                      capsys):
        # the builtin triangle's hypotenuse crosses the Kuhn cells: the
        # message named neither the simplex nor the resolution
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "tri",
                                    "chain": {"builtin": "triangle"}}))
        assert main(["flatnorm", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert ("error: chain cannot be aligned with the hosting complex at "
                "resolution 4: simplex (0, 4, 20) not in complex"
                in capsys.readouterr().err)
        assert not (tmp_path / "flatnorm.csv").exists()

    def test_vertex_off_the_lattice_exit_2_with_reason(self, tmp_path,
                                                       capsys):
        chain_path = tmp_path / "chain.json"
        Chain(np.array([[[0.1, 0.3], [0.5, 0.5]]]), [1.0]).save(chain_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "seg", "resolution": 2,
                                    "chain": {"file": str(chain_path)}}))
        assert main(["flatnorm", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert ("error: chain cannot be aligned with the hosting complex at "
                "resolution 2: vertex [0.1 0.3] not in complex"
                in capsys.readouterr().err)
        assert not (tmp_path / "flatnorm.csv").exists()

    def test_zero_test_form_is_redrawn(self, tmp_path):
        # seed 0 draws an identically zero affine test form for the ladder
        assert main(["flatnorm", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "flatnorm.csv")
        assert all(r["value"] not in ("", "nan")
                   for r in rows if r["quantity"].endswith("lower_bound"))


class TestScenarioWithoutCochain:
    """A valid scenario without a cochain runs to the end: transport and
    converge give it no rows, and transport says that it skips it."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({
            "name": "bare", "motion": {"family": "rotation", "rate": 0.7}}))
        return path

    def test_transport_writes_the_header_alone(self, tmp_path, config,
                                               caplog):
        with caplog.at_level(logging.WARNING, logger="currentkit"):
            assert main(["transport", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        assert "skipping bare: no cochain" in [
            rec.getMessage() for rec in caplog.records]
        assert (tmp_path / "transport.csv").read_text().splitlines() == [
            ",".join(cli.HEADER)]

    def test_converge_writes_the_adjointness_rows_alone(self, tmp_path,
                                                        config):
        assert main(["converge", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "converge.csv")
        assert [(r["scenario"], r["quantity"]) for r in rows] == [
            ("adjointness", "residual")] * 4 + [
            ("adjointness", "observed_order")]


class TestConverge:
    def test_fitted_orders(self, tmp_path):
        assert main(["converge", "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "converge.csv")
        assert _value(rows, "adjointness", "observed_order") >= 2.0
        assert _value(rows, "translating_square", "continuity_slope") == \
            pytest.approx(1.0, abs=0.1)
        assert _value(rows, "rotating_square", "homotopy_order") >= 1.9
