"""Lipschitz maps: constants, mollification, and chain pushforward."""

import numpy as np
import pytest

from currentkit.chains import (Chain, boundary, evaluate, mass_chain,
                               triangle_chain, unit_square_chain)
from currentkit.complexes import freudenthal_complex
from currentkit.forms import Box, FormField, pullback
from currentkit.lipschitz import (LipMap, _halton, _pair_ratios,
                                  _sample_pairs, lipschitz_constant,
                                  make_map, pushforward_chain)
from oracles import Mollifier, mollify, strong_lip_distance

BOX = Box.unit(2, resolution=5)


class TestConstants:
    def test_affine_spectral_norm(self):
        mat = np.array([[3.0, 0.0], [0.0, 1.0]])
        f = LipMap.affine(mat)
        lip, count = lipschitz_constant(f, BOX, n_pairs=500)
        assert lip == pytest.approx(3.0, rel=1e-9)
        assert count > 500

    def test_rotation_is_isometry(self):
        f = make_map("rotation", angle=0.9)
        lip, _ = lipschitz_constant(f, BOX, n_pairs=500)
        assert lip == pytest.approx(1.0, rel=1e-9)

    def test_tent_constant(self):
        f = make_map("tent", center=0.5, width=0.5, amplitude=0.3)
        lip, _ = lipschitz_constant(f, BOX, n_pairs=3000)
        # Jacobian is a unit shear with slope c = amplitude/width = 0.6;
        # its spectral norm is (c + sqrt(c^2 + 4)) / 2
        c = 0.6
        assert 1.0 <= lip <= (c + np.sqrt(c * c + 4.0)) / 2.0 + 1e-6

    @pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-8, 1.0, 1e8])
    def test_constants_at_any_scale(self, s):
        # only coincident pairs are left out, so a box of any size keeps
        # its sample
        box = Box((-s, -s), (2 * s, 2 * s), (0, 0), (s, s), 5)
        f = make_map("rotation", angle=0.3)
        lip, count = lipschitz_constant(f, box, n_pairs=200)
        assert lip == pytest.approx(1.0, rel=1e-12) and count == 240

    def test_strong_distance_of_translates(self):
        f = make_map("translation", offset=[0.2, 0.0])
        g = make_map("identity")
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
        f = make_map("radial_stretch", strength=0.3)
        dists = [strong_lip_distance(mollify(f, rho), f, BOX, n_pairs=500)
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
            lip, _ = lipschitz_constant(f, BOX, n_pairs=200)
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
        f = make_map("radial_stretch", strength=0.2)
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
    @pytest.mark.parametrize("name", ["identity", "translation", "rotation",
                                      "shear", "scaling", "radial_stretch",
                                      "tent"])
    def test_families_evaluate(self, name):
        f = make_map(name)
        out = f([0.25, 0.75])
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_map("escher")

    def test_shear_needs_two_dimensions(self):
        # on a line the shear had no second axis: an IndexError
        with pytest.raises(ValueError, match="shear family needs at least 2"):
            make_map("shear", 1)

    def test_pointwise_map_rejected(self):
        # a map of one point x reads the rows of a batch as x[0], x[1]
        f = LipMap(2, lambda x: np.array([-x[1], x[0]]))
        with pytest.raises(ValueError, match="shape \\(m, 2\\)"):
            f.values_at([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("check", [
        lambda f: lipschitz_constant(f, BOX, n_pairs=200)],
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
        lambda f: lipschitz_constant(f, BOX, n_pairs=200),
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


def _loop_halton(count, base):
    seq = np.zeros(count)
    for i in range(count):
        f, r, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        seq[i] = r
    return seq


def _loop_sample_pairs(box, n_pairs):
    lo, hi, n = np.asarray(box.k_lower), np.asarray(box.k_upper), box.dim
    qr = np.stack([_loop_halton(2 * n_pairs, p)
                   for p in [2, 3, 5, 7, 11, 13][:n]], axis=-1)
    pts = lo + qr * (hi - lo)
    xs, ys = pts[:n_pairs], pts[n_pairs:]
    grid, res = box.grid(), box.resolution
    neigh_x, neigh_y = [], []
    for stride in [res ** k for k in range(n - 1, -1, -1)]:
        for i in range(len(grid) - stride):
            if (i // stride) % res != res - 1:
                neigh_x.append(grid[i])
                neigh_y.append(grid[i + stride])
    if neigh_x:
        xs = np.vstack([xs, np.array(neigh_x)])
        ys = np.vstack([ys, np.array(neigh_y)])
    return xs, ys


def _loop_pair_ratios(f, xs, ys):
    fx = np.stack([f(x) for x in xs])
    fy = np.stack([f(y) for y in ys])
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    return num[den > 0.0] / den[den > 0.0]


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
            make_map("radial_stretch", n, strength=0.3),
            LipMap(n, lambda x: np.sin(x) + 2.0 * x)]
    if n >= 2:
        maps.append(make_map("tent", n, center=0.4, width=0.5,
                             amplitude=0.2))
    return maps


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestPointMaps:
    """Sampling and point mapping equal the scalar loops bit for bit, and
    a general map is called once, on the distinct vertices."""

    @pytest.mark.parametrize("base", [2, 3, 5, 7, 11, 13])
    def test_halton(self, base):
        for count in (0, 1, 2, 13, 1000):
            assert _bits(_halton(count, base)) == _bits(
                _loop_halton(count, base))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sample_pairs(self, n):
        for res in (2, 3, 5):
            box = Box(tuple([-0.5] * n), tuple([1.5] * n), tuple([0.0] * n),
                      tuple([1.0] * n), res)
            for n_pairs in (0, 1, 7, 300):
                got = _sample_pairs(box, n_pairs)
                want = _loop_sample_pairs(box, n_pairs)
                assert [_bits(a) for a in got] == [_bits(a) for a in want]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_ratios(self, n):
        rng = np.random.default_rng(n)
        box = Box.unit(n, resolution=4)
        xs, ys = _sample_pairs(box, 200)
        for f in _maps(rng, n):
            assert _bits(_pair_ratios(f, xs, ys)) == _bits(
                _loop_pair_ratios(f, xs, ys))

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
