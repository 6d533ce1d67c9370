"""Simplicial chains as currents: evaluation, boundary, mass, the current
expression algebra, and serialization."""

from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from currentkit.chains import (Boundary, Chain, Leaf, Scale, Simplex, Sum,
                               VWedge, boundary, evaluate,
                               evaluate_with_error, interval_product_evaluate,
                               mass_chain, triangle_chain, unit_interval_chain,
                               unit_square_chain, v_wedge)
from currentkit.exterior import MultiVector, pair, wedge
from currentkit.forms import (FormField, VectorField, contract,
                              exterior_derivative)
from currentkit.lipschitz import LipMap, make_map, pushforward_chain
from currentkit.polynomial import Polynomial
from currentkit.quadrature import (grundmann_moller, simplex_volume,
                                   subdivide_barycentric)


def _tet():
    return Chain([(Simplex(np.vstack([np.zeros(3), np.eye(3)])), 1.0)])


class TestSimplex:
    def test_volume_and_tangent(self):
        s = Simplex(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert s.volume == pytest.approx(2.0)
        np.testing.assert_allclose(s.unit_tangent().coefficients, [1.0, 0.0])

    def test_orientation_sign_flips_tangent(self):
        s = Simplex(np.array([[0.0, 0.0], [2.0, 0.0]]), sign=-1)
        np.testing.assert_allclose(s.unit_tangent().coefficients, [-1.0, 0.0])

    def test_faces_alternate(self):
        s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        faces = s.faces()
        assert len(faces) == 3
        assert [f.sign for f in faces] == [1, -1, 1]

    def test_canonical_key_orientation(self):
        a = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        b = Simplex(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        ka, sa = a.canonical_key()
        kb, sb = b.canonical_key()
        assert ka == kb
        assert sa == -sb


class TestEvaluation:
    def test_segment_against_dx(self):
        seg = unit_interval_chain(2)
        dx = FormField.from_polynomials(2, 1, {(0,): 1.0})
        assert evaluate(seg, dx) == pytest.approx(1.0)

    def test_segment_against_x_dx(self):
        seg = unit_interval_chain(1)
        x = Polynomial.variable(0, 1)
        phi = FormField.from_polynomials(1, 1, {(0,): x})
        assert evaluate(seg, phi) == pytest.approx(0.5)

    def test_square_area(self):
        sq = unit_square_chain()
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        assert evaluate(sq, area) == pytest.approx(1.0)

    def test_orientation_reversal_negates(self):
        sq = unit_square_chain()
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        assert evaluate(sq * -1.0, area) == pytest.approx(-1.0)

    def test_subdivision_preserves_value(self):
        rng = np.random.default_rng(0)
        sq = unit_square_chain()
        phi = FormField.random_polynomial(2, 2, rng, max_degree=3)
        v0 = evaluate(sq, phi)
        v2 = evaluate(sq.subdivided(2), phi)
        assert v2 == pytest.approx(v0, abs=1e-12)

    def test_degree_mismatch_raises(self):
        sq = unit_square_chain()
        phi = FormField.from_polynomials(2, 1, {(0,): 1.0})
        with pytest.raises(ValueError):
            evaluate(sq, phi)

    def test_richardson_error_estimate(self):
        sq = unit_square_chain()
        phi = FormField.from_callable(
            2, 2, lambda p: np.array([np.sin(3 * p[0]) * np.cos(2 * p[1])]))
        val, err = evaluate_with_error(sq, phi)
        exact = (1 - np.cos(3.0)) / 3.0 * np.sin(2.0) / 2.0
        assert val == pytest.approx(exact, abs=1e-4)
        assert abs(val - exact) <= 50 * err + 1e-12


class TestBoundary:
    def test_square_perimeter(self):
        b = boundary(unit_square_chain())
        assert mass_chain(b) == pytest.approx(4.0)
        # the interior diagonal must cancel
        assert len(b) == 4

    def test_boundary_of_boundary_triangle(self):
        bb = boundary(boundary(triangle_chain()))
        assert len(bb) == 0

    def test_boundary_of_boundary_tet(self):
        bb = boundary(boundary(_tet()))
        assert len(bb) == 0

    def test_adjointness(self):
        rng = np.random.default_rng(1)
        T = _tet()
        phi = FormField.random_polynomial(3, 2, rng, max_degree=3)
        lhs = evaluate(boundary(T), phi)
        rhs = evaluate(T, exterior_derivative(phi))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_multiplicity_scales_boundary(self):
        T = triangle_chain() * 3.0
        b = boundary(T)
        assert mass_chain(b) == pytest.approx(3.0 * (2 + np.sqrt(2.0)))


class TestMass:
    def test_square_mass(self):
        assert mass_chain(unit_square_chain()) == pytest.approx(1.0)

    def test_mass_weighted_by_multiplicity(self):
        assert mass_chain(unit_square_chain() * -2.5) == pytest.approx(2.5)


class TestCurrentAlgebra:
    def test_vwedge_adjoint_to_contract(self):
        rng = np.random.default_rng(2)
        b = boundary(unit_square_chain())
        v = VectorField.random_polynomial(2, rng)
        phi = FormField.random_polynomial(2, 2, rng)
        lhs = evaluate(v_wedge(v, Leaf(b)), phi)
        rhs = evaluate(b, contract(phi, v))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sum_and_scale(self):
        sq = unit_square_chain()
        phi = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        expr = Sum([Scale(2.0, Leaf(sq)), Scale(-0.5, Leaf(sq))])
        assert evaluate(expr, phi) == pytest.approx(1.5)

    def test_boundary_node_matches_chain_boundary(self):
        rng = np.random.default_rng(3)
        sq = unit_square_chain()
        phi = FormField.random_polynomial(2, 1, rng, max_degree=2)
        assert evaluate(Boundary(Leaf(sq)), phi) == pytest.approx(
            evaluate(boundary(sq), phi), abs=1e-12)

    def test_vwedge_degree_overflow(self):
        v = VectorField.constant([1.0, 0.0])
        with pytest.raises(ValueError):
            VWedge(v, Leaf(unit_square_chain()))

    def test_mixed_degree_sum_raises(self):
        sq = unit_square_chain()
        with pytest.raises(ValueError):
            Sum([Leaf(sq), Boundary(Leaf(sq))])


class TestFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplicity_rejected(self, bad):
        tri = triangle_chain().terms[0][0]
        with pytest.raises(ValueError, match="non-finite"):
            Chain([(tri, bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_table_rejected(self, bad):
        obj = unit_square_chain().to_json_obj()
        obj["vertex_table"][2][1] = bad
        with pytest.raises(ValueError, match="vertex_table"):
            Chain.from_json_obj(obj)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        T = unit_square_chain().subdivided(1) * 2.0
        path = tmp_path / "chain.json"
        T.save(path)
        back = Chain.load(path)
        rng = np.random.default_rng(4)
        phi = FormField.random_polynomial(2, 2, rng)
        assert evaluate(back, phi) == pytest.approx(evaluate(T, phi),
                                                    abs=1e-12)
        assert mass_chain(back) == pytest.approx(mass_chain(T))

    def test_vertex_table_is_deduplicated(self):
        obj = unit_square_chain().to_json_obj()
        assert len(obj["vertex_table"]) == 4


class TestIntervalProduct:
    def test_product_with_time_form(self):
        # omega = t dt^dx over [0,1] x (unit segment): integral = 1/2
        t = Polynomial.variable(0, 2)
        omega = FormField.from_polynomials(2, 2, {(0, 1): t})
        seg = unit_interval_chain(1)
        val = interval_product_evaluate((0.0, 1.0), seg, omega)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_purely_spatial_part_ignored(self):
        # omega = dx1^dx2 has no dt part; the product pairing vanishes
        omega = FormField.from_polynomials(3, 2, {(1, 2): 1.0})
        seg = unit_interval_chain(2)
        val = interval_product_evaluate((0.0, 1.0), seg, omega)
        assert val == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# batched kernels against the per-simplex loops they replaced
# ----------------------------------------------------------------------

def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _loop_wedge(a, b):
    """The wedge term loop, one pair of multi-indices at a time."""
    p, q, n = a.degree, b.degree, a.ambient
    out = np.zeros(comb(n, p + q))
    ranks = {idx: k for k, idx in enumerate(combinations(range(n), p + q))}
    ca, cb = a.coefficients, b.coefficients
    for i, la in enumerate(combinations(range(n), p)):
        if ca[i] == 0.0:
            continue
        for j, lb in enumerate(combinations(range(n), q)):
            if cb[j] == 0.0 or set(la) & set(lb):
                continue
            inversions = sum(1 for x in la for y in lb if x > y)
            sign = -1 if inversions % 2 else 1
            out[ranks[tuple(sorted(la + lb))]] += sign * ca[i] * cb[j]
    return MultiVector(p + q, n, out)


def _loop_tangent(v, sign):
    edges = (v[1:] - v[0]).T
    xi = MultiVector.from_vector(edges[:, 0])
    for j in range(1, edges.shape[1]):
        xi = _loop_wedge(xi, MultiVector.from_vector(edges[:, j]))
    m = xi.norm()
    if m <= 1e-13:
        raise ValueError("degenerate simplex: vertices affinely dependent")
    return xi * (sign / m)


def _loop_volume(v):
    r = v.shape[0] - 1
    if r == 0:
        return 1.0
    edges = v[1:] - v[0]
    det = np.linalg.det(edges @ edges.T)
    return float(np.sqrt(max(det, 0.0)) / factorial(r))


def _loop_subdivided(chain, levels):
    """(vertices, sign, multiplicity) of every child, parent-major."""
    out = []
    for s, m in chain.terms:
        current = [(s.vertices, s.sign)]
        for _ in range(levels):
            current = [(child, sgn * csign) for verts, sgn in current
                       for child, csign in subdivide_barycentric(verts)]
        out += [(v, sgn, m) for v, sgn in current]
    return out


def _loop_evaluate(chain, phi, s_order, subdivision):
    total = 0.0
    for v, sign, mult in _loop_subdivided(chain, subdivision):
        if v.shape[0] == 1:
            tangent = MultiVector(0, v.shape[1], np.array([float(sign)]))
            total += mult * pair(phi(v[0]), tangent)
            continue
        tangent = _loop_tangent(v, sign)
        bary, w = grundmann_moller(v.shape[0] - 1, s_order)
        pts, wts = bary @ v, w * _loop_volume(v)
        total += mult * float(phi.coefficients_at(pts)
                              @ tangent.coefficients @ wts)
    return total


def _loop_pushforward(f, chain, levels):
    out = []
    for v, sign, mult in _loop_subdivided(chain, levels):
        image = np.stack([f(x) for x in v])
        if v.shape[0] > 1 and (_loop_volume(image)
                               <= 1e-15 * max(_loop_volume(v), 1e-30)):
            raise ValueError("degenerate image simplex in pushforward")
        out.append((image, sign, mult))
    return out


_SHAPES = [(r, n) for r in range(4) for n in range(max(r, 1), 4)]


def _random_chain(rng, r, n, count=5):
    terms = []
    for _ in range(count):
        verts = rng.normal(size=(r + 1, n)) * rng.uniform(0.1, 3.0) \
            + rng.normal(size=n)
        terms.append((Simplex(verts, int(rng.choice([-1, 1]))),
                      rng.normal()))
    return Chain(terms, r, n)


def _random_forms(rng, r, n):
    """A polynomial form with non-integer coefficients and a callable one."""
    polys = {}
    for idx in combinations(range(n), r):
        terms = {tuple(rng.integers(0, 3, n)): rng.normal() for _ in range(4)}
        polys[idx] = Polynomial(n, terms)
    weights = rng.normal(size=(comb(n, r), n))
    shifts = rng.normal(size=comb(n, r))

    def func(x, weights=weights, shifts=shifts):
        return np.sin(weights @ x + shifts) * (1.0 + x @ x)

    return (FormField.from_polynomials(n, r, polys),
            FormField.from_callable(n, r, func))


def _random_maps(rng, n):
    maps = [LipMap.affine(rng.normal(size=(n, n)) + 2.0 * np.eye(n),
                          rng.normal(size=n)),
            make_map("rotation", 2, angle=0.7) if n == 2
            else make_map("scaling", n, factor=1.5),
            make_map("radial_stretch", n, strength=0.3)]
    if n >= 2:
        maps.append(make_map("tent", n, center=0.1, width=1.5,
                             amplitude=0.4))
    return maps


class TestBatchedKernels:
    """Batched evaluation, pushforward and subdivision equal the
    per-simplex loops bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wedge_matches_term_loop(self, n):
        rng = np.random.default_rng(n)
        for p in range(n + 1):
            for q in range(n + 1 - p):
                for _ in range(3):
                    ca = rng.normal(size=comb(n, p))
                    cb = rng.normal(size=comb(n, q))
                    ca[rng.random(ca.size) < 0.3] = 0.0
                    a, b = MultiVector(p, n, ca), MultiVector(q, n, cb)
                    assert (_bits(wedge(a, b).coefficients)
                            == _bits(_loop_wedge(a, b).coefficients))

    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_tangent_and_volume(self, r, n):
        rng = np.random.default_rng(10 * r + n)
        for s, _ in _random_chain(rng, r, n, count=20):
            assert _bits(s.volume) == _bits(_loop_volume(s.vertices))
            if r:
                assert (_bits(s.unit_tangent().coefficients) == _bits(
                    _loop_tangent(s.vertices, s.sign).coefficients))

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_subdivision(self, r, n, levels):
        rng = np.random.default_rng(100 * r + 10 * n + levels)
        T = _random_chain(rng, r, n)
        want = _loop_subdivided(T, levels)
        got = T.subdivided(levels)
        assert len(got) == len(want) == len(T) * 2 ** (r * levels)
        for (s, m), (v, sign, mult) in zip(got, want):
            assert _bits(s.vertices) == _bits(v)
            assert (s.sign, m) == (sign, mult)
        simplex = T.terms[0][0]
        for child, (v, sign, _) in zip(simplex.subdivided(levels), want):
            assert _bits(child.vertices) == _bits(v) and child.sign == sign

    @pytest.mark.parametrize("subdivision", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_evaluate(self, r, n, subdivision):
        rng = np.random.default_rng(1000 + 100 * r + 10 * n + subdivision)
        T = _random_chain(rng, r, n)
        for phi in _random_forms(rng, r, n):
            for s_order in (0, 2):
                got = evaluate(T, phi, s_order, subdivision)
                assert _bits(got) == _bits(
                    _loop_evaluate(T, phi, s_order, subdivision))

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_pushforward(self, r, n, levels):
        rng = np.random.default_rng(2000 + 100 * r + 10 * n + levels)
        T = _random_chain(rng, r, n, count=3)
        for f in _random_maps(rng, n):
            got = pushforward_chain(f, T, levels=levels)
            want = _loop_pushforward(f, T, levels)
            assert len(got) == len(want)
            for (s, m), (v, sign, mult) in zip(got, want):
                assert _bits(s.vertices) == _bits(v)
                assert (s.sign, m) == (sign, mult)

    def test_degenerate_simplex_raises(self):
        flat = Chain([(Simplex(np.array([[0.0, 0.0], [1.0, 1.0],
                                         [2.0, 2.0]])), 1.0)])
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="degenerate simplex"):
            evaluate(flat, area)
        with pytest.raises(ValueError, match="degenerate image"):
            pushforward_chain(LipMap.identity(2), flat)
        squash = LipMap.affine(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="degenerate image"):
            pushforward_chain(squash, unit_square_chain(), levels=1)

    def test_empty_chain_evaluates_to_zero(self):
        rng = np.random.default_rng(5)
        for r in (0, 1, 2):
            for phi in _random_forms(rng, r, 2):
                assert evaluate(Chain([], r, 2), phi) == 0.0
                assert evaluate(Chain([], r, 2), phi, subdivision=2) == 0.0
