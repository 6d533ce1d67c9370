"""Simplex quadrature, interval quadrature, and edgewise subdivision."""

from itertools import product
from math import factorial

import numpy as np
import pytest

from currentkit.chains import evaluate, triangle_chain
from currentkit.forms import FormField
from currentkit.quadrature import (_halving_indices, _kuhn_children,
                                   _leggauss, gauss_nodes, gauss_sum,
                                   grundmann_moller, integrate_interval,
                                   simplex_rule, simplex_volumes,
                                   subdivide_barycentric)
from oracles import (adaptive_interval, gram_volumes_by_view,
                     kuhn_children)


def _monomial_integral_unit_simplex(exps):
    """Exact integral of prod x_i^e_i over the standard simplex."""
    num = np.prod([float(factorial(e)) for e in exps])
    return num / factorial(sum(exps) + len(exps))


class TestGrundmannMoller:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_weights_sum_to_one(self, dim, s):
        _, w = grundmann_moller(dim, s)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_polynomial_exactness(self, dim):
        s = 2  # degree-5 rule
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        pts, w = simplex_rule(verts[None], s)
        pts, w = pts[0], w[0]
        for exps in product(range(3), repeat=dim):
            if sum(exps) > 2 * s + 1:
                continue
            approx = sum(wk * np.prod(p ** np.array(exps))
                         for p, wk in zip(pts, w))
            exact = _monomial_integral_unit_simplex(exps)
            assert approx == pytest.approx(exact, abs=1e-14), exps

    def test_degree_zero_simplex(self):
        pts, w = simplex_rule(np.array([[[2.0, 3.0]]]))
        np.testing.assert_allclose(pts, [[[2.0, 3.0]]])
        np.testing.assert_allclose(w, [[1.0]])

    @pytest.mark.parametrize("s", [-1, True, 2.5])
    def test_order_is_a_whole_number_of_at_least_zero(self, s):
        # unchecked, -1 died inside matmul through `evaluate`, returned an
        # empty rule from `grundmann_moller`, True ran as 1 and 2.5 raised
        # a TypeError
        tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        phi = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="quadrature order"):
            simplex_rule(tri, s)
        with pytest.raises(ValueError, match="quadrature order"):
            evaluate(triangle_chain(), phi, s_order=s)
        grundmann_moller(2, 1)  # True is not its cached order 1
        with pytest.raises(ValueError, match="quadrature order"):
            grundmann_moller(2, s)


class TestCachedTables:
    """The cached rules and index tables are read-only: a write by one
    caller would change every later rule in the process."""

    @pytest.mark.parametrize("dim", [0, 2])
    def test_grundmann_moller_is_read_only(self, dim):
        pts, w = grundmann_moller(dim, 2)
        with pytest.raises(ValueError, match="read-only"):
            w *= 2
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 1.0
        tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        assert simplex_rule(tri)[1].sum() == pytest.approx(0.5, rel=1e-14)

    def test_leggauss_is_read_only(self):
        for a in _leggauss(5):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert gauss_sum([1.0] * 5, gauss_nodes(0.0, 2.0, 1, 5)) == \
            pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_halving_indices_are_read_only(self, dim):
        for a in _halving_indices(dim):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestSimplexVolume:
    def test_unit_triangle(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert simplex_volumes(v[None])[0] == pytest.approx(0.5)

    def test_embedded_segment(self):
        v = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        assert simplex_volumes(v[None])[0] == pytest.approx(5.0)

    def test_tetrahedron(self):
        v = np.vstack([np.zeros(3), np.eye(3)])
        assert simplex_volumes(v[None])[0] == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("r,n", [(r, n) for n in range(1, 4)
                                     for r in range(n + 1)])
    def test_gram_product_keeps_the_view_bits(self, r, n, scale):
        # the Gram product on a contiguous copy of the transposed edges
        # equals the one on their view, which shares the edges' buffer
        rng = np.random.default_rng(10 * r + n)
        verts = (rng.normal(size=(500, r + 1, n))
                 + 5.0 * rng.normal(size=n)) * scale
        assert np.array_equal(simplex_volumes(verts),
                              gram_volumes_by_view(verts))


class TestIntervalQuadrature:
    def test_polynomial_exact(self):
        val = integrate_interval(lambda t: t ** 7, 0.0, 1.0, panels=2)
        assert val == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_transcendental(self):
        val = integrate_interval(np.sin, 0.0, np.pi, panels=8)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval(self):
        assert integrate_interval(np.exp, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("extra", [-1, 1, 5])
    def test_sum_needs_one_value_per_node(self, extra):
        # 3 panels of order 5: 15 nodes
        rule = gauss_nodes(0.0, 1.0, 3, 5)
        with pytest.raises(ValueError, match="quadrature nodes"):
            gauss_sum([1.0] * (15 + extra), rule)
        assert gauss_sum([1.0] * 15, rule) == pytest.approx(1.0, abs=1e-14)

    def test_adaptive_reports_error(self):
        val, err = adaptive_interval(lambda t: np.abs(t), -1.0, 1.0,
                                     tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert err >= 0.0


class TestSubdivision:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_children_tile_parent_volume(self, dim):
        rng = np.random.default_rng(dim)
        verts = rng.standard_normal((dim + 1, dim + 1))
        parent = simplex_volumes(verts[None])[0]
        children = [child for child, _ in subdivide_barycentric(verts)]
        total = simplex_volumes(np.array(children)).sum()
        assert total == pytest.approx(parent, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2])  # the one scale subdivision uses
    def test_kuhn_children_match_the_loop(self, dim, k):
        coords, signs = _kuhn_children(dim)
        want = kuhn_children(dim, k)
        assert ([tuple(map(tuple, y)) for y in coords.tolist()]
                == [verts for verts, _ in want])
        assert signs.tolist() == [sign for _, sign in want]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_child_count(self, dim):
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        children = list(subdivide_barycentric(verts))
        assert len(children) == 2 ** dim

    def test_signed_volumes_tile_in_2d(self):
        # orientation signs must make the signed areas add up
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

        def signed_area(v):
            return 0.5 * np.linalg.det(np.array([v[1] - v[0], v[2] - v[0]]))

        parent = signed_area(verts)
        # each child's vertex-order orientation times its reported sign must
        # match the parent's orientation
        for child, sign in subdivide_barycentric(verts):
            assert np.sign(signed_area(child)) == sign * np.sign(parent)
