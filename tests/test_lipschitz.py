"""Lipschitz maps: constants, mollification, and chain pushforward."""

import re

import numpy as np
import pytest

from currentkit.chains import (Chain, boundary, evaluate, mass_chain,
                               triangle_chain, unit_square_chain)
from currentkit.complexes import freudenthal_complex
from currentkit.forms import Box, FormField, pullback
from currentkit.lipschitz import LipMap, lipschitz_constant, pushforward_chain
from currentkit.motion import _MOTION_FAMILIES, make_motion
from oracles import Mollifier, mollify, radial_stretch, strong_lip_distance

BOX = Box.unit(2, resolution=5)


class TestConstants:
    def test_affine_spectral_norm(self):
        mat = np.array([[3.0, 0.0], [0.0, 1.0]])
        f = LipMap.affine(mat)
        lip, count = lipschitz_constant(f, BOX)
        assert lip == pytest.approx(3.0, rel=1e-9)
        # every pair of the 25 grid points
        assert count == 300

    def test_rotation_is_isometry(self):
        f = make_motion("rotation", rate=0.9).map_at(1.0)
        lip, _ = lipschitz_constant(f, BOX)
        assert lip == pytest.approx(1.0, rel=1e-9)

    def test_tent_constant(self):
        f = make_motion("tent", center=0.5, width=0.5,
                        amplitude=0.3).map_at(1.0)
        lip, _ = lipschitz_constant(f, BOX)
        # Jacobian is a unit shear with slope c = amplitude/width = 0.6;
        # its spectral norm is (c + sqrt(c^2 + 4)) / 2
        c = 0.6
        assert 1.0 <= lip <= (c + np.sqrt(c * c + 4.0)) / 2.0 + 1e-6

    @pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-8, 1.0, 1e8])
    def test_constants_at_any_scale(self, s):
        # only coincident pairs are left out, so a box of any size keeps
        # all C(25, 2) pairs of its grid
        box = Box((0, 0), (s, s), 5)
        f = make_motion("rotation", rate=0.3).map_at(1.0)
        lip, count = lipschitz_constant(f, box)
        assert lip == pytest.approx(1.0, rel=1e-12) and count == 300

    def test_strong_distance_of_translates(self):
        f = make_motion("translation", velocity=[0.2, 0.0]).map_at(1.0)
        g = make_motion("identity").map_at(1.0)
        d = strong_lip_distance(f, g, BOX)
        assert d == pytest.approx(0.2, rel=1e-9)


class TestMollification:
    def test_kernel_weights_normalized(self):
        for kind in ("gaussian", "truncated"):
            _, w = Mollifier(0.1, kind).nodes_weights(2)
            assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_affine_fixed_point(self):
        f = LipMap.affine(np.array([[1.0, 2.0], [0.0, 1.0]]),
                          np.array([0.3, -0.1]))
        sm = mollify(f, rho=0.05)
        for pt in Box.unit(2, resolution=3).grid():
            np.testing.assert_allclose(sm(pt), f(pt), atol=1e-10)

    def test_convergence_as_rho_shrinks(self):
        f = radial_stretch(2, 0.3)
        dists = [strong_lip_distance(mollify(f, rho), f, BOX)
                 for rho in (0.2, 0.1, 0.05)]
        assert dists[0] >= dists[1] >= dists[2]
        assert dists[2] < 0.05

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            Mollifier(-1.0)
        with pytest.raises(ValueError):
            Mollifier(0.1, "boxcar")


class TestPushforward:
    def test_affine_mass_bound(self):
        rng = np.random.default_rng(0)
        T = unit_square_chain()
        for _ in range(10):
            mat = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            f = LipMap.affine(mat, rng.standard_normal(2))
            lip, _ = lipschitz_constant(f, BOX)
            pushed = pushforward_chain(f, T)
            assert mass_chain(pushed) <= lip ** 2 * mass_chain(T) + 1e-6

    def test_affine_commutes_with_boundary(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        f = LipMap.affine(mat, rng.standard_normal(2))
        T = unit_square_chain()
        lhs = boundary(pushforward_chain(f, T))
        rhs = pushforward_chain(f, boundary(T))
        diff = (lhs - rhs).simplify()
        assert len(diff) == 0

    def test_subdivision_improves_curved_maps(self):
        f = radial_stretch(2, 0.2)
        T = triangle_chain()
        rng = np.random.default_rng(2)
        phi = FormField.random_polynomial(2, 2, rng, max_degree=1)
        vals = [evaluate(pushforward_chain(f, T, levels=lv), phi)
                for lv in (1, 3, 5)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_degenerate_image_raises(self):
        f = LipMap(2, lambda x: x * [1.0, 0.0])
        with pytest.raises(ValueError):
            pushforward_chain(f, unit_square_chain())

    def test_coinciding_images_are_one_vertex(self):
        # table rows 0 and 2 map to (0.0, 1.0) and (-0.0, 1.0): one vertex
        # of the pushed chain, the row of its first occurrence
        images = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]])
        f = LipMap(2, lambda x: images[np.rint(x[:, 0]).astype(int)])
        T = Chain([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
                  [1.0, 1.0])
        pushed = pushforward_chain(f, T)
        assert len(pushed.table) == 2
        verts = pushed.stacked()[0]
        np.testing.assert_array_equal(verts, [[[0.0, 1.0], [1.0, 0.0]],
                                              [[1.0, 0.0], [0.0, 1.0]]])
        assert not np.signbit(verts[1, 1, 0])
        with pytest.raises(ValueError, match="degenerate image simplex"):
            pushforward_chain(f, Chain([[[0.0, 0.0], [2.0, 0.0]]], [1.0]))


class TestMapLibrary:
    """The named maps are the motion families at a time, their parameters
    checked by `motion._family_params`."""

    @pytest.mark.parametrize("name", sorted(_MOTION_FAMILIES))
    def test_families_evaluate(self, name):
        f = make_motion(name).map_at(0.5)
        out = f([0.25, 0.75])
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown motion family: escher"):
            make_motion("escher")

    @pytest.mark.parametrize("name, params, takes", [
        ("rotation", {"angle": 0.7}, "['rate']"),
        ("translation", {"offset": [1, 2]}, "['velocity']"),
        ("tent", {"hight": 0.3}, "['center', 'width', 'amplitude', 'axis']"),
        ("identity", {"offset": [0.0, 0.0]}, "[]")])
    def test_unknown_parameter_is_named(self, name, params, takes):
        key, = params
        with pytest.raises(ValueError, match=re.escape(
                f"motion family {name!r} has no parameter {key!r}; it "
                f"takes {takes}")):
            make_motion(name, **params)

    @pytest.mark.parametrize("name, ambient, params", [
        ("translation", 3, {"velocity": [1.0]}),
        ("tent", 2, {"width": -0.5}), ("tent", 2, {"width": 0}),
        ("tent", 2, {"axis": 5}), ("rotation", 2, {"rate": [1, 2]}),
        ("rotation", 2, {"rate": np.nan}), ("tent", 2, {"width": np.inf}),
        ("tent", 2, {"amplitude": -np.inf}),
        ("translation", 2, {"velocity": [0.0, np.nan]}),
        ("translation", 2, {"velocity": [True, 0.5]}),
        ("rotation", 2, {"rate": True}), ("tent", 2, {"axis": [1, [2]]}),
        ("tent", 2, {"amplitude": 10 ** 5000})],
        ids=["short_velocity", "negative_width", "zero_width", "axis_range",
             "rate_list", "nan_rate", "inf_width", "inf_amplitude",
             "nan_velocity", "bool_in_velocity", "bool_rate",
             "ragged_axis", "amplitude_of_5001_digits"])
    def test_parameter_of_the_wrong_kind_is_named(self, name, ambient,
                                                  params):
        # the short velocity moved every axis, the negative width gave an
        # inverted hat and the zero width non-finite images at first use;
        # the axis ended in an IndexError and the list in a TypeError; a
        # NaN or an infinity built, and failed at first use with
        # "non-finite map images"; the bool in a velocity read as 1, the
        # ragged axis raised numpy's own ValueError, and an int of 5001
        # digits Python's own "Exceeds the limit (4300 digits)"
        key, = params
        with pytest.raises(ValueError, match=re.escape(
                f"motion parameter {key!r} of family {name!r} must be")):
            make_motion(name, ambient, **params)

    def test_shear_needs_two_dimensions(self):
        # on a line the shear had no second axis: an IndexError
        with pytest.raises(ValueError, match="shear family needs at least 2"):
            make_motion("shear", 1)

    def test_rotation_is_planar(self):
        with pytest.raises(ValueError, match="rotation family is planar"):
            make_motion("rotation", 3)

    def test_pointwise_map_rejected(self):
        # a map of one point x reads the rows of a batch as x[0], x[1]
        f = LipMap(2, lambda x: np.array([-x[1], x[0]]))
        with pytest.raises(ValueError, match="shape \\(m, 2\\)"):
            f.values_at([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("check", [
        lambda f: lipschitz_constant(f, BOX)],
        ids=["lipschitz_constant"])
    def test_nan_map_raises(self, check):
        # NaN on part of the box must raise, not give a nan estimate; the
        # pushforward's case is in test_chains.py
        def f(x):
            y = x.copy()
            y[x[:, 0] > 0.5, 1] = np.nan
            return y

        with pytest.raises(ValueError, match="non-finite map images"):
            check(LipMap(2, f))

    @pytest.mark.parametrize("check", [
        lambda f: lipschitz_constant(f, BOX),
        lambda f: pullback(FormField.random_polynomial(
            2, 1, np.random.default_rng(0), max_degree=1), f)
        .coefficients_at(BOX.grid())],
        ids=["lipschitz_constant", "pullback"])
    @pytest.mark.parametrize("jacobian, match", [
        (lambda x: np.where(x[:, :1, None] > 0.5, np.nan, 1.0)
         * np.eye(2), "non-finite Jacobians"),
        (lambda x: np.eye(2), r"Jacobians must map .* shape \(m, 2, 2\)")],
        ids=["nan", "pointwise"])
    def test_bad_jacobian_raises(self, check, jacobian, match):
        # a Jacobian with NaN entries gave numpy's "SVD did not converge",
        # one of a single point an AxisError
        with pytest.raises(ValueError, match=match):
            check(LipMap(2, lambda x: x, jacobian))


def _mesh(rng, n, scale=1.0):
    """The full chain of a jittered Freudenthal box in R^n: neighbouring
    simplices share vertex rows."""
    comp = freudenthal_complex([0.0] * n, [1.0] * n, 3)
    T = comp.full_chain()
    verts, mults = T.stacked()
    mults = mults * rng.choice([1.0, -0.5, 2.0 / 3.0], len(mults))
    return Chain(verts * scale, mults)


def _maps(rng, n):
    maps = [LipMap.affine(rng.normal(size=(n, n)) + 2.0 * np.eye(n),
                          rng.normal(size=n)),
            radial_stretch(n, 0.3),
            LipMap(n, lambda x: np.sin(x) + 2.0 * x)]
    if n >= 2:
        maps.append(make_motion("tent", n, center=0.4, width=0.5,
                                amplitude=0.2).map_at(1.0))
    return maps


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestPointMaps:
    """Point mapping equals the scalar loops bit for bit, and a general
    map is called once, on the distinct vertices."""

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pushforward_of_meshes(self, n, levels):
        rng = np.random.default_rng(10 * n + levels)
        for scale in (1e-3, 1.0, 1e4):
            T = _mesh(rng, n, scale)
            work = T.subdivided(levels) if levels else T
            for f in _maps(rng, n):
                got = pushforward_chain(f, T, levels=levels)
                assert len(got) == len(work)
                for v, w in zip(got.stacked()[0], work.stacked()[0]):
                    image = np.stack([f(x) for x in w])
                    assert _bits(v) == _bits(image)
                assert _bits(got.mults) == _bits(work.mults)

    def test_empty_chain_is_returned_without_a_map_call(self):
        def never(x):
            raise AssertionError("the map was called")

        empty = Chain(np.zeros((0, 2, 2)), [])
        assert pushforward_chain(LipMap(2, never), empty, levels=2) is empty

    def test_general_map_is_called_once_on_the_vertex_table(self):
        calls = []

        def record(x):
            calls.append(x.tobytes())
            return 2.0 * x + np.column_stack([x[:, 1] ** 2, 0.0 * x[:, 0]])

        T = _mesh(np.random.default_rng(3), 2).subdivided(1)
        # the copy's vertices on x = 0 read -0.0: the same points as the
        # first chain's 0.0, so one vertex each, which the map sees once
        verts, mults = T.stacked()
        moved = verts - 1.0
        moved[moved == 0.0] = -0.0
        T = T + Chain(moved, mults)
        rows = np.concatenate([verts, moved]).reshape(-1, 2)
        f = LipMap(2, record)
        pushed = pushforward_chain(f, T)
        assert calls == [T.table.tobytes()]
        assert len(T.table) < len({row.tobytes() for row in rows})
        points = T.stacked()[0].reshape(-1, 2)
        want = np.stack([f(x) for x in points])
        assert _bits(pushed.stacked()[0].reshape(-1, 2)) == _bits(want)
