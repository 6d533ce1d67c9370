"""Polynomials, form fields, exterior derivative, pullback, Lie derivative,
and the seminorm family."""

import dataclasses
import json
import re
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currentkit import forms
from currentkit.exterior import CoVector, comass, multi_indices
from currentkit.forms import (AffineMap, Box, Cochain, FormField,
                              VectorField, contract, exterior_derivative,
                              form_lipschitz, lie_derivative,
                              lie_derivative_components, pullback,
                              seminorm_comass, seminorm_flat, seminorm_sharp)
from currentkit.lipschitz import LipMap, lipschitz_constant
from currentkit.polynomial import Polynomial
from oracles import (all_pairs_lipschitz, contract_at, derivative_at,
                     eval_many_by_term, pullback_at, time_slice_contract)


def _max_coeff(phi):
    return max(p.max_abs_coeff() for p in phi.polys)


# coordinate scales at which the sampled d and pullback keep their
# relative error
FD_SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]


class TestPolynomial:
    def test_eval_and_diff(self):
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = x * x * y + y * 3.0
        assert p([2.0, 5.0]) == pytest.approx(35.0)
        assert p.diff(0)([2.0, 5.0]) == pytest.approx(20.0)
        assert p.diff(1)([2.0, 5.0]) == pytest.approx(7.0)

    def test_compose_affine(self):
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = x * y
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        shift = np.array([1.0, 0.0])
        q = p.compose_affine(mat, shift)
        pt = np.array([0.3, -0.7])
        assert q(pt) == pytest.approx(p(mat @ pt + shift))

    def test_substitute_first(self):
        t, x = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = t * t * x
        q = p.substitute_first(3.0)
        assert q.nvars == 1
        assert q([2.0]) == pytest.approx(18.0)

    def test_json_round_trip(self):
        # a scenario's polynomial body, as written by hand in its file
        body = json.loads("""[{"exponents": [1, 0, 2], "coefficient": 0.5},
                              {"exponents": [0, 0, 0], "coefficient": -3}]""")
        p = Polynomial.from_json_obj(3, body)
        assert p.terms == {(1, 0, 2): 0.5, (0, 0, 0): -3.0}
        assert p([2.0, 7.0, 3.0]) == 0.5 * 2.0 * 9.0 - 3.0

    def test_eval_many_matches_scalar(self):
        # one kernel: a point's value is its row of eval_many, bit for bit
        rng = np.random.default_rng(1)
        p = Polynomial.random(2, 3, rng)
        pts = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(p.eval_many(pts),
                                      [p(pt) for pt in pts])

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_eval_many_equals_the_filled_term_loop(self, nvars):
        # each term starts from its first power times c, and a constant
        # term is added as c: the bits of filling the term with c first
        rng = np.random.default_rng(nvars)
        polys = [Polynomial.zero(nvars), Polynomial.constant(nvars, -2.5),
                 Polynomial(nvars, {(0,) * nvars: 0.1, (11,) * nvars: 3.0,
                                    (1,) + (0,) * (nvars - 1): -1e-3})]
        for _ in range(40):
            polys.append(Polynomial(nvars, {
                tuple(int(e) for e in rng.integers(0, 13, nvars)):
                float(rng.standard_normal() * 10.0 ** rng.uniform(-6, 6))
                for _ in range(int(rng.integers(1, 7)))}))
        for p in polys:
            for count in (0, 1, 9):
                pts = rng.standard_normal((count, nvars)) * \
                    10.0 ** rng.uniform(-2, 2)
                kept = pts.copy()
                assert p.eval_many(pts).tobytes() == \
                    eval_many_by_term(p, pts).tobytes()
                assert np.array_equal(pts, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial(2, {(1, 0): 1.0, (0, 1): bad})

    @pytest.mark.parametrize("expo", [(1.5, 0), (True, 0), ("2", 0),
                                      (-1, 0), (np.float32(1.0), 0)])
    def test_non_whole_exponent_rejected(self, expo):
        # unchecked, 1.5 was truncated to 1 and True and "2" were read
        # as 1 and 2
        with pytest.raises(ValueError, match="whole numbers >= 0"):
            Polynomial(2, {expo: 1.0})

    @pytest.mark.parametrize("coeff", ["3", True, np.True_, None, 1j])
    def test_non_real_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="not a real number"):
            Polynomial(2, {(0, 1): coeff})

    def test_whole_exponents_and_real_coefficients_accepted(self):
        p = Polynomial(2, {(2.0, np.int64(1)): np.float64(1.5),
                           (0, 0): np.int64(-2), (1, 1): 3})
        assert p.terms == {(2, 1): 1.5, (0, 0): -2.0, (1, 1): 3.0}
        assert all(type(e) is int for expo in p.terms for e in expo)
        assert all(type(c) is float for c in p.terms.values())

    def test_huge_integer_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial(1, {(0,): 10 ** 400})

    def test_json_repeated_monomial_is_summed(self):
        # unchecked, the last coefficient of a repeated monomial won
        body = [{"exponents": [0, 0, 0], "coefficient": 1},
                {"exponents": [0, 1, 0], "coefficient": 0.5},
                {"exponents": [0.0, 0, 0], "coefficient": 2}]
        p = Polynomial.from_json_obj(3, body)
        assert p.terms == {(0, 0, 0): 3.0, (0, 1, 0): 0.5}

    def test_json_cancelling_monomials_are_dropped(self):
        body = [{"exponents": [1, 0], "coefficient": 2.5},
                {"exponents": [1, 0], "coefficient": -2.5}]
        assert Polynomial.from_json_obj(2, body).is_zero()

    def test_json_terms_not_a_list_rejected(self):
        # unchecked, a TypeError
        with pytest.raises(ValueError, match="must be a list, got 5"):
            Polynomial.from_json_obj(2, 5)

    @pytest.mark.parametrize("key", ["exponents", "coefficient"])
    def test_json_missing_key_names_the_term(self, key):
        # unchecked, a KeyError
        body = [{"exponents": [0, 0], "coefficient": 1.0},
                {"exponents": [1, 0], "coefficient": 1.0}]
        del body[1][key]
        with pytest.raises(ValueError,
                           match=f"polynomial term 1 has no '{key}'"):
            Polynomial.from_json_obj(2, body)

    def test_overflow_raises(self):
        big = Polynomial.constant(2, 1e200)
        with pytest.raises(ValueError, match="non-finite coefficient inf"):
            big * 1e200
        with pytest.raises(ValueError, match="non-finite coefficient inf"):
            big * big
        with pytest.raises(ValueError, match="non-finite coefficient inf"):
            Polynomial.constant(2, 1.5e308) + Polynomial.constant(2, 1.5e308)

    def test_substitute_first_overflow_raises(self):
        # 1e200 ** 2 as a float power is an OverflowError
        p = Polynomial(2, {(2, 1): 1.0, (0, 0): 1.0})
        with pytest.raises(ValueError, match="non-finite coefficient inf"):
            p.substitute_first(1e200)

    def test_inf_minus_inf_raises(self):
        # the xy coefficient sums 1e200 * 1e200 and 1e200 * -1e200
        a = Polynomial(2, {(1, 0): 1e200, (0, 1): 1e200})
        b = Polynomial(2, {(0, 1): 1e200, (1, 0): -1e200})
        with pytest.raises(ValueError,
                           match=r"non-finite coefficient nan of \(1, 1\)"):
            a * b


def _polynomials(nvars):
    coeffs = st.one_of(st.integers(-3, 3),
                       st.floats(-1e3, 1e3, allow_nan=False))
    expos = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(expos, coeffs, max_size=5).map(
        lambda terms: Polynomial(nvars, terms))


def _term_bits(p):
    return p.nvars, [(e, float(c).hex()) for e, c in p.terms.items()]


@st.composite
def _algebra_cases(draw):
    """A polynomial operation on drawn operands, as a function of no
    arguments."""
    nvars = draw(st.integers(1, 3))
    p, q = draw(_polynomials(nvars)), draw(_polynomials(nvars))
    scalar = draw(st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3)))
    value = draw(st.floats(-4.0, 4.0))
    i = draw(st.integers(0, nvars - 1))
    m = draw(st.integers(1, 3))
    entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    mat = np.array(draw(st.lists(entries, min_size=nvars * m,
                                 max_size=nvars * m))).reshape(nvars, m)
    shift = np.array(draw(st.lists(entries, min_size=nvars,
                                   max_size=nvars)))
    return draw(st.sampled_from([
        lambda: p + q, lambda: p - q, lambda: p * scalar, lambda: p * q,
        lambda: -p, lambda: p.diff(i), lambda: p.substitute_first(value),
        lambda: p.compose_affine(mat, shift)]))


class TestTrustBoundary:
    """Arithmetic builds its results through `Polynomial._of`, which skips
    the exponent checks of the public constructor."""

    @settings(max_examples=300, deadline=None)
    @given(_algebra_cases())
    def test_of_matches_validated_constructor(self, op):
        fast = op()
        validated = classmethod(lambda cls, nvars, terms: cls(nvars, terms))
        with mock.patch.object(Polynomial, "_of", validated):
            checked = op()
        assert _term_bits(fast) == _term_bits(checked)


class TestExteriorDerivative:
    def test_explicit_one_form(self):
        # d(x dy) = dx^dy; d(y dx) = -dx^dy
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        phi = FormField.from_polynomials(2, 1, {(1,): x})
        d = exterior_derivative(phi)
        assert d.polys[0].terms == {(0, 0): 1.0}
        psi = FormField.from_polynomials(2, 1, {(0,): y})
        d2 = exterior_derivative(psi)
        assert d2.polys[0].terms == {(0, 0): -1.0}

    @pytest.mark.parametrize("n,r", [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2)])
    def test_dd_zero_exact(self, n, r):
        rng = np.random.default_rng(n * 10 + r)
        phi = FormField.random_polynomial(n, r, rng)
        dd = exterior_derivative(exterior_derivative(phi))
        assert _max_coeff(dd) == 0.0

    def test_finite_difference_backend(self):
        phi = FormField.from_callable(
            2, 1, lambda p: np.stack([np.sin(p[:, 1]), np.zeros(len(p))],
                                     axis=1))
        d = exterior_derivative(phi)
        pt = np.array([0.2, 0.4])
        # d(sin(y) dx) = -cos(y) dx^dy
        assert d(pt).coefficients[0] == pytest.approx(-np.cos(0.4), abs=1e-8)

    @pytest.mark.parametrize("scale", FD_SCALES)
    def test_difference_step_scales_with_the_point(self, scale):
        # d(sin(x0 / s) dx1) = cos(x0 / s) / s dx0^dx1 at (0.7 s, 0.3 s);
        # with an absolute step the relative error was 0.999 at s = 1e-8
        # and 5.9e-4 at s = 1e8
        phi = FormField.from_callable(2, 1, lambda p: np.stack(
            [np.zeros(len(p)), np.sin(p[:, 0] / scale)], axis=1))
        got = exterior_derivative(phi).coefficients_at(
            np.array([[0.7 * scale, 0.3 * scale]]))[0, 0]
        want = np.cos(0.7) / scale
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_difference_step_at_the_origin(self):
        phi = FormField.from_callable(2, 1, lambda p: np.stack(
            [np.zeros(len(p)), np.sin(p[:, 0])], axis=1))
        got = exterior_derivative(phi).coefficients_at(np.zeros((1, 2)))
        assert abs(got[0, 0] - 1.0) <= 1e-9


class TestPullback:
    def test_affine_is_exact(self):
        rng = np.random.default_rng(4)
        phi = FormField.random_polynomial(2, 1, rng)
        f = AffineMap(rng.standard_normal((2, 2)), rng.standard_normal(2))
        pb = pullback(phi, f)
        pt = np.array([0.3, -0.2])
        jac = f.mat
        expected = phi(f(pt))
        got = pb(pt)
        # covariance: (f^* phi)(x) acts on vectors through Df
        for k, idx in enumerate(multi_indices(1, 2)):
            e = np.zeros(2)
            e[idx[0]] = 1.0
            lhs = got.coefficients[k]
            rhs = expected.coefficients @ (jac @ e)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_commutes_with_d_affine(self):
        rng = np.random.default_rng(8)
        phi = FormField.random_polynomial(3, 1, rng, max_degree=2)
        f = AffineMap(rng.standard_normal((3, 3)), rng.standard_normal(3))
        lhs = pullback(exterior_derivative(phi), f)
        rhs = exterior_derivative(pullback(phi, f))
        diff = lhs - rhs
        assert _max_coeff(diff) < 1e-12

    def test_dimension_change(self):
        # pull a 1-form on R^3 back to the parameter square in R^2
        rng = np.random.default_rng(6)
        phi = FormField.random_polynomial(3, 1, rng, max_degree=2)
        mat = rng.standard_normal((3, 2))
        f = AffineMap(mat, np.zeros(3))
        pb = pullback(phi, f)
        assert pb.ambient == 2
        pt = np.array([0.1, 0.9])
        e0 = np.array([1.0, 0.0])
        assert pb(pt).coefficients[0] == pytest.approx(
            phi(f(pt)).coefficients @ (mat @ e0), abs=1e-12)

    @pytest.mark.parametrize("scale", FD_SCALES)
    def test_oscillating_map_at_every_scale(self, scale):
        # f(x) = (x0 + s sin(x1 / s) / 2, x1) pulls dx0 back to
        # dx0 + cos(x1 / s) / 2 dx1; with the step 1e-6 max(1, |x|_inf)
        # the relative error was 1.01 at s = 1e-8
        f = LipMap(2, lambda x: np.stack(
            [x[:, 0] + 0.5 * scale * np.sin(x[:, 1] / scale), x[:, 1]],
            axis=1))
        phi = FormField.from_polynomials(
            2, 1, {(0,): Polynomial.constant(2, 1.0)})
        got = pullback(phi, f).coefficients_at(
            np.array([[0.7 * scale, 0.3 * scale]]))[0]
        want = np.array([1.0, 0.5 * np.cos(0.3)])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_difference_step_scales_with_the_point(self, scale):
        # f(x) = (x0^2 / s, x1) pulls dx0 back to (2 x0 / s) dx0; with an
        # absolute step the relative error was 4.7e-7 at s = 1e4 and
        # 5.1e-4 at s = 1e8
        f = LipMap(2, lambda x: np.stack([x[:, 0] ** 2 / scale, x[:, 1]],
                                         axis=1))
        phi = FormField.from_polynomials(
            2, 1, {(0,): Polynomial.constant(2, 1.0)})
        got = pullback(phi, f).coefficients_at(
            np.array([[0.7 * scale, 0.3 * scale]]))[0]
        assert abs(got[0] - 1.4) / 1.4 <= 1e-8
        assert got[1] == 0.0


class TestLieDerivative:
    @pytest.mark.parametrize("n,r", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2),
                                     (4, 2)])
    def test_cartan_equals_component_formula(self, n, r):
        rng = np.random.default_rng(n * 7 + r)
        phi = FormField.random_polynomial(n, r, rng, max_degree=2)
        v = VectorField.random_polynomial(n, rng, max_degree=2)
        diff = lie_derivative(phi, v) - lie_derivative_components(phi, v)
        assert _max_coeff(diff) == 0.0

    def test_rotation_invariant_form(self):
        # the area form is invariant under rigid rotation
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        v = VectorField.from_polynomials([y * -1.0, x])
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        lv = lie_derivative(area, v)
        assert _max_coeff(lv) == 0.0

    def test_contract_known_value(self):
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        phi = FormField.from_polynomials(2, 2, {(0, 1): x + y})
        v = VectorField.from_polynomials([x, y * 0.0])
        c = contract(phi, v)
        # (x+y) dx^dy -| (x, 0) = x(x+y) dy
        pt = np.array([2.0, 3.0])
        np.testing.assert_allclose(c(pt).coefficients, [0.0, 10.0])


def _sampled_form(rng, n, r):
    """A sampled r-form whose rows do not depend on the rest of the batch:
    elementwise operations and row-wise reductions only."""
    weights = rng.normal(size=(comb(n, r), n))
    shifts = rng.normal(size=comb(n, r))

    def func(x):
        return (np.sin((x[:, None, :] * weights).sum(axis=2) + shifts)
                * (1.0 + (x * x).sum(axis=1))[:, None])

    return FormField.from_callable(n, r, func)


def _sampled_field(rng, n):
    weights = rng.normal(size=(n, n))
    return VectorField(
        n, func=lambda x: np.cos((x[:, None, :] * weights).sum(axis=2)))


def _polynomial_form(rng, n, r):
    """A polynomial r-form whose first coefficient is zero."""
    return FormField.from_polynomials(n, r, {
        idx: Polynomial.random(n, 2, rng)
        for idx in multi_indices(r, n)[1:]})


def _stretch(n, s=0.3):
    """x (1 + s |x|^2) on points (m, n), and its Jacobians (m, n, n)."""
    def f(x):
        return x * (1.0 + s * (x * x).sum(axis=1, keepdims=True))

    def jac(x):
        return ((1.0 + s * (x * x).sum(axis=1))[:, None, None] * np.eye(n)
                + 2 * s * x[:, :, None] * x[:, None, :])

    return f, jac


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


_SHAPES = [(n, r) for n in (1, 2, 3) for r in range(n + 1)]


class TestSampledBackend:
    """The array closures of the sampled backend equal the per-point
    evaluators of oracles.py bit for bit; callables are checked once per
    batch."""

    @pytest.mark.parametrize("n,r", [s for s in _SHAPES if s[1] >= 1])
    def test_contract(self, n, r):
        rng = np.random.default_rng(10 * n + r)
        pts = rng.uniform(-1.0, 2.0, size=(9, n))
        pts[0] = 0.0
        cases = [(_sampled_form(rng, n, r),
                  VectorField.random_polynomial(n, rng)),
                 (_polynomial_form(rng, n, r), _sampled_field(rng, n)),
                 (_sampled_form(rng, n, r), _sampled_field(rng, n))]
        for phi, v in cases:
            got = contract(phi, v).coefficients_at(pts)
            want = np.stack([contract_at(phi, v, x) for x in pts])
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n,r", [s for s in _SHAPES if s[1] < s[0]])
    def test_exterior_derivative(self, n, r):
        rng = np.random.default_rng(20 * n + r)
        pts = rng.uniform(-1.0, 2.0, size=(9, n))
        sampled = _sampled_form(rng, n, r)
        for phi in (sampled, sampled + _polynomial_form(rng, n, r),
                    sampled * -2.5):
            got = exterior_derivative(phi).coefficients_at(pts)
            want = np.stack([derivative_at(phi, x) for x in pts])
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n,r", _SHAPES)
    def test_pullback(self, n, r):
        rng = np.random.default_rng(30 * n + r)
        pts = rng.uniform(-1.0, 2.0, size=(9, n))
        f, jac = _stretch(n)
        amap = AffineMap(rng.normal(size=(n, n)) + 2 * np.eye(n),
                         rng.normal(size=n))
        # the references call the map and its Jacobian on one point at a time
        lmap = LipMap(n, f, jac)
        for phi in (_sampled_form(rng, n, r), _polynomial_form(rng, n, r)):
            got = pullback(phi, LipMap(n, f)).coefficients_at(pts)
            want = np.stack([pullback_at(phi, lmap, x, n) for x in pts])
            assert _bits(got) == _bits(want)
            got = pullback(phi, lmap).coefficients_at(pts)
            want = np.stack([pullback_at(
                phi, lmap, x, n, lambda p: jac(p[None])[0])
                for x in pts])
            assert _bits(got) == _bits(want)
        phi = _sampled_form(rng, n, r)
        got = pullback(phi, amap).coefficients_at(pts)
        want = np.stack([pullback_at(phi, amap, x, n, lambda p: amap.mat)
                         for x in pts])
        assert _bits(got) == _bits(want)

    def test_time_slice_matches_polynomial_slice(self):
        rng = np.random.default_rng(4)
        omega = FormField.random_polynomial(3, 2, rng, max_degree=2)
        sampled = FormField.from_callable(3, 2, omega.coefficients_at)
        pts = rng.uniform(-1.0, 2.0, size=(9, 2))
        np.testing.assert_allclose(
            time_slice_contract(sampled, 0.7).coefficients_at(pts),
            time_slice_contract(omega, 0.7).coefficients_at(pts),
            rtol=1e-13, atol=1e-13)

    def test_pointwise_callable_raises_shape_error(self):
        pts = np.zeros((5, 2))
        area = FormField.from_callable(2, 2, lambda x: np.array([x[0] * x[1]]))
        with pytest.raises(ValueError, match=r"shape \(m, 1\); got shape"):
            area.coefficients_at(pts)
        spin = VectorField(2, func=lambda x: np.array([-x[1], x[0]]))
        with pytest.raises(ValueError, match=r"shape \(m, 2\); got shape"):
            spin.values_at(pts)
        nan = FormField.from_callable(2, 1, lambda x: np.full(x.shape, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            nan.coefficients_at(pts)

    def test_pointwise_callable_on_a_square_batch_raises(self):
        # m points for an output of m columns: x[0], x[1] are batch rows,
        # so a pointwise callable gives an (m, m) array of the wrong values
        spin = VectorField(2, func=lambda x: np.array([-x[1], x[0]]))
        with pytest.raises(ValueError, match=r"shape \(m, 2\); got shape"):
            spin.values_at([[1, 2], [3, 4]])
        area = FormField.from_callable(2, 2, lambda x: np.array([x[0] * x[1]]))
        with pytest.raises(ValueError, match=r"shape \(m, 1\); got shape"):
            area.coefficients_at([[1.0, 2.0]])
        batch = VectorField(2, func=lambda x: np.stack([-x[:, 1], x[:, 0]],
                                                       axis=1))
        np.testing.assert_array_equal(batch.values_at([[1, 2], [3, 4]]),
                                      [[-2.0, 1.0], [-4.0, 3.0]])


class TestSeminorms:
    def setup_method(self):
        self.box = Box.unit(2, resolution=5)

    def test_comass_constant_area_form(self):
        phi = FormField.from_polynomials(2, 2, {(0, 1): 2.0})
        assert seminorm_comass(phi, self.box) == pytest.approx(2.0)

    def test_flat_dominates_comass(self):
        rng = np.random.default_rng(3)
        phi = FormField.random_polynomial(2, 1, rng, max_degree=2)
        assert seminorm_flat(phi, self.box) >= seminorm_comass(
            phi, self.box) - 1e-12

    def test_flat_equals_max_of_m_and_m_of_d(self):
        rng = np.random.default_rng(5)
        phi = FormField.random_polynomial(2, 1, rng, max_degree=2)
        expected = max(seminorm_comass(phi, self.box),
                       seminorm_comass(exterior_derivative(phi), self.box))
        assert seminorm_flat(phi, self.box) == pytest.approx(expected)

    def test_form_lipschitz_linear_coefficient(self):
        x = Polynomial.variable(0, 2)
        phi = FormField.from_polynomials(2, 1, {(0,): x})
        lip = form_lipschitz(phi, self.box)
        assert lip == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("s", [1e-13, 1e-8, 1.0, 1e8])
    def test_sampled_form_lipschitz_at_any_scale(self, s):
        # a grid above the all-pairs size takes the sampled branch; the
        # constant of an affine form does not depend on the box's size
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        phi = FormField.from_polynomials(2, 1, {(0,): 2.0 * x + y,
                                                (1,): 3.0 * y})
        box = Box((0, 0), (s, s), 40)
        unit = form_lipschitz(phi, Box((0, 0), (1, 1), 40))
        assert form_lipschitz(phi, box) == pytest.approx(unit, rel=1e-12)
        assert 3.2 < unit <= np.linalg.norm([[2.0, 1.0], [0.0, 3.0]], 2)

    def test_sharp_scaling_with_degree(self):
        # constant form: S = comass; Lipschitz part vanishes
        phi = FormField.from_polynomials(2, 1, {(0,): 3.0})
        assert seminorm_sharp(phi, self.box) == pytest.approx(3.0)

    def test_sharp_uses_lip_weight(self):
        x = Polynomial.variable(0, 2)
        phi = FormField.from_polynomials(2, 1, {(0,): x})
        # sup comass = 1 on K = [0,1]^2; (r+1)*Lip = 2
        assert seminorm_sharp(phi, self.box) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("res", [None, 2])
    def test_resolution_default_and_override(self, res):
        # phi = 3x dx on K = [0,1]^2: sup 3, Lipschitz 3, sharp 2 * 3, on
        # the class's box and on one built at another resolution
        phi = FormField.from_polynomials(
            2, 1, {(0,): 3.0 * Polynomial.variable(0, 2)})
        box = self.box if res is None else Box.unit(2, resolution=res)
        assert form_lipschitz(phi, box) == pytest.approx(3.0)
        assert seminorm_sharp(phi, box) == pytest.approx(6.0)
        assert seminorm_comass(phi, box) == pytest.approx(3.0)

    @pytest.mark.parametrize("res", [1, 0, 2.5])
    def test_resolution_must_be_a_whole_number_of_at_least_two(self, res):
        # the box's resolution is the one its seminorms sample at, so a
        # bad one is rejected when the box is built
        with pytest.raises(ValueError, match="grid resolution"):
            Box.unit(2, resolution=res)
        with pytest.raises(ValueError, match="grid resolution"):
            Box((0.0, 0.0), (1.0, 1.0), resolution=res)

    @pytest.mark.parametrize("dim, resolution", [
        (2, 2049), (4, 46), (2, 10 ** 6),
        pytest.param(2, 10 ** 5000, id="2-10**5000")])
    def test_resolution_beyond_the_size_cap_rejected(self, dim, resolution):
        # resolution^dim grid points: 2049^2 and 46^4 are the first counts
        # above 2^22; unchecked, 10 ** 6 built, and its grid would fill
        # memory at first use.  2048^2 = 2^22 is admitted; the grid is
        # built at first use.  An int of more than 4300 digits is named by
        # its digit count: written out, it raised Python's own "Exceeds
        # the limit (4300 digits)"
        shown = (resolution if resolution < 10 ** 4300
                 else "an int of 5001 digits")
        assert Box.unit(2, resolution=2048).resolution == 2048
        with pytest.raises(ValueError, match=f"^grid resolution {shown} "
                                             f"asks for more than 4194304 "
                                             f"grid points"):
            Box.unit(dim, resolution=resolution)
        with pytest.raises(ValueError, match=f"^grid resolution {shown} "):
            Box((0.0,) * dim, (1.0,) * dim, resolution)

    @pytest.mark.parametrize("lower, upper", [
        (0.0, 1.0), ([], []), ([[0, 0]], [[1, 1]])],
        ids=["scalars", "empty", "nested"])
    def test_corners_are_one_number_per_axis(self, lower, upper):
        # the scalars raised a TypeError ("len() of unsized object"), the
        # empty corners built a box whose grid() failed in numpy ("need at
        # least one array to stack"), and the nested ones a box whose
        # corners held arrays
        with pytest.raises(ValueError, match=re.escape(
                f"box lower and upper must be one number per axis, got "
                f"{lower!r} and {upper!r}")):
            Box(lower, upper, 3)

    def test_box_is_the_compact_set_it_samples(self):
        # the grid spans [lower, upper]; there is no enclosing open box
        box = Box((0.5, -1.0), (2.0, 1.0), 3)
        assert [f.name for f in dataclasses.fields(Box)] == [
            "lower", "upper", "resolution"]
        assert box.grid().min(axis=0).tolist() == [0.5, -1.0]
        assert box.grid().max(axis=0).tolist() == [2.0, 1.0]
        assert Box.unit(2) == Box((0.0, 0.0), (1.0, 1.0))
        # unchecked, a NaN or infinite bound gave a grid of NaN
        for lower, upper in (((0.0, 1.0), (1.0, 1.0)), ((0.0,), (1.0, 1.0)),
                             ((np.nan, 0.0), (1.0, 1.0)),
                             ((-np.inf, 0.0), (1.0, 1.0)),
                             ((0.0, 0.0), (1.0, np.inf))):
            with pytest.raises(ValueError, match="finite lower < upper in each axis"):
                Box(lower, upper)
        # unchecked, strings were read as numbers and an int beyond the
        # float range was an OverflowError; a bool among numbers was read
        # as 0 or 1
        for lower, upper in ((("0", "0"), (1.0, 1.0)),
                             ((0, 0), (1, 10 ** 400)),
                             ((False, 0.5), (1, 1)),
                             ((0, 0), [1, np.True_])):
            with pytest.raises(ValueError,
                               match="box lower and upper must be numbers"):
                Box(lower, upper)


    @pytest.mark.parametrize("r", range(5))
    def test_middle_degree_comass_is_bounded_by_the_euclidean_norm(self, r):
        # in R^4 the seminorm is the grid max of the exact comass: the
        # Euclidean norm at r in {0, 1, 3, 4}, bit for bit, and the
        # largest singular value of the skew matrix at r = 2, at most the
        # Euclidean norm
        rng = np.random.default_rng(40 + r)
        phi = FormField.random_polynomial(4, r, rng, max_degree=1)
        box = Box.unit(4, resolution=2)
        coeffs = phi.coefficients_at(box.grid())
        norms = np.linalg.norm(coeffs, axis=1)
        values = np.array([comass(CoVector(r, 4, c))[0] for c in coeffs])
        assert seminorm_comass(phi, box) == values.max()
        if r == 2:
            assert np.all(values <= norms * (1.0 + 1e-15))
        else:
            assert np.array_equal(values, norms)

    def test_symplectic_form_reads_its_comass(self):
        # dx0^dx1 + dx2^dx3 has comass 1 and Euclidean norm sqrt 2; the
        # seminorm reads the comass
        phi = FormField.from_polynomials(4, 2, {(0, 1): 1.0, (2, 3): 1.0})
        box = Box.unit(4, resolution=2)
        assert comass(phi([0.5] * 4))[0] == 1.0
        assert seminorm_comass(phi, box) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seminorm_is_the_euclidean_norm_bit_for_bit_up_to_n3(self, n):
        # for n <= 3 every degree is in {0, 1, n-1, n}, so the seminorm is
        # the grid max of np.linalg.norm rows bit for bit
        rng = np.random.default_rng(60 + n)
        box = Box.unit(n, resolution=5)
        for r in range(n + 1):
            phi = FormField.random_polynomial(n, r, rng, max_degree=2)
            coeffs = phi.coefficients_at(box.grid())
            assert seminorm_comass(phi, box) == float(
                np.max(np.linalg.norm(coeffs, axis=1)))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_box_must_be_in_the_forms_space(self, dim):
        # a 2-D form on a box in R^1 or R^3 read a number (comass 1.0)
        phi = FormField.from_polynomials(2, 1, {(0,): 1.0})
        box = Box.unit(dim, resolution=3)
        for seminorm in (seminorm_comass, seminorm_flat, seminorm_sharp,
                         form_lipschitz):
            with pytest.raises(ValueError, match=f"a box in R\\^{dim} "
                               "cannot sample a form or map on R\\^2"):
                seminorm(phi, box)
        with pytest.raises(ValueError, match=f"a box in R\\^{dim}"):
            lipschitz_constant(LipMap.identity(2), box)


# every (ambient, degree, resolution) whose grid takes the all-pairs branch
ALL_PAIRS = [(n, r, res) for n in (1, 2, 3, 4) for r in range(n + 1)
             for res in (2, 3, 5, 8, 11, 16, 32)
             if res ** n <= forms._MAX_ALL_PAIR_POINTS]


def _maps_without_jacobian(n):
    return [LipMap(n, lambda x: np.sin(x) + 2.0 * x),
            LipMap(n, lambda x: x * (1.0 + 0.3 * np.sum(x * x, axis=1,
                                                         keepdims=True)))]


class TestGridTables:
    """`Box` keeps its grid and the grid's pair table, read-only, and
    `form_lipschitz` and `lipschitz_constant` take the same maximum over
    that table as over the (p, p) all-pairs tables
    (`oracles.all_pairs_lipschitz`)."""

    @staticmethod
    def _box(n, res):
        return Box((0.1,) * n, (2.3,) * n, res)

    @pytest.mark.parametrize("n, r, res", ALL_PAIRS)
    def test_form_lipschitz_equals_all_pairs(self, n, r, res):
        rng = np.random.default_rng(100 * n + 10 * r + res)
        phi = FormField.random_polynomial(n, r, rng, max_degree=2)
        box = self._box(n, res)
        assert form_lipschitz(phi, box) == \
            all_pairs_lipschitz(phi.coefficients_at, box.grid())

    @pytest.mark.parametrize("n, res", sorted({(n, res)
                                               for n, _, res in ALL_PAIRS}))
    def test_lipschitz_constant_equals_all_pairs(self, n, res):
        # a map without a Jacobian: the estimate is the pair maximum alone,
        # over every pair of the box's table
        box = self._box(n, res)
        for f in _maps_without_jacobian(n):
            lip, count = lipschitz_constant(f, box)
            assert lip == all_pairs_lipschitz(f.values_at, box.grid())
            assert count == len(box.grid_pairs()[0]) == comb(res ** n, 2)

    @pytest.mark.parametrize("n, res", sorted({(n, res)
                                               for n, _, res in ALL_PAIRS}))
    def test_pair_distances_are_the_row_norms(self, n, res):
        # the column sums equal np.linalg.norm of the difference rows
        box = self._box(n, res)
        pts = box.grid()
        i, j, dist = box.grid_pairs()
        assert np.array_equal(dist, np.linalg.norm(pts[i] - pts[j], axis=1))
        assert len(i) == len(pts) * (len(pts) - 1) // 2

    @pytest.mark.parametrize("res", [5, 39])
    def test_lipschitz_constant_at_any_scale(self, res):
        # s (x dx + y dy) has Lipschitz constant s and sharp seminorm 2 s,
        # and x on a box of side 1e-170 has constant 1: no square of a
        # difference leaves the float range, with every grid pair and,
        # on 39^2 points, with sampled pairs
        assert (res ** 2 > forms._MAX_ALL_PAIR_POINTS) == (res == 39)
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        box = Box.unit(2, res)
        for s in (1e-200, 1.0, 1e200):
            phi = FormField.from_polynomials(2, 1, {(0,): x * s,
                                                    (1,): y * s})
            assert form_lipschitz(phi, box) == pytest.approx(s, rel=1e-12)
            assert seminorm_sharp(phi, box) == pytest.approx(2 * s,
                                                             rel=1e-12)
        tiny = Box((0.0, 0.0), (1e-170, 1e-170), res)
        x_form = FormField.from_polynomials(2, 0, {(): x})
        assert form_lipschitz(x_form, tiny) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n, res", [(1, 30), (2, 7), (3, 4)])
    def test_resolution_override(self, n, res):
        # another grid than the default one comes from a box built at
        # that resolution
        rng = np.random.default_rng(n)
        phi = FormField.random_polynomial(n, n - 1, rng, max_degree=2)
        box = self._box(n, res)
        assert form_lipschitz(phi, box) == all_pairs_lipschitz(
            phi.coefficients_at, box.grid())
        assert len(box.grid()) == res ** n
        default = self._box(n, 9)
        assert form_lipschitz(phi, default) == \
            all_pairs_lipschitz(phi.coefficients_at, default.grid())

    def test_grid_is_built_once_per_resolution(self):
        # each box builds the grid and pair table of its resolution once
        box, fine = Box.unit(2, resolution=5), Box.unit(2, resolution=7)
        assert box.grid() is box.grid() and fine.grid() is fine.grid()
        assert len(fine.grid()) == 49 and len(box.grid()) == 25
        assert box.grid_pairs() is box.grid_pairs()
        assert fine.grid_pairs() is fine.grid_pairs()
        i, j, dist = box.grid_pairs()
        assert len(i) == 25 * 24 // 2 and np.all(i < j)
        np.testing.assert_array_equal(
            dist, np.linalg.norm(box.grid()[i] - box.grid()[j], axis=1))
        # the tables are not part of the box's value
        assert box == Box.unit(2, resolution=5)
        assert hash(box) == hash(Box.unit(2, resolution=5))

    def test_pairs_are_copied_only_when_some_are_dropped(self, monkeypatch):
        # a regular grid keeps every pair, and its index arrays are the
        # ones built; a grid whose spacing is below its coordinates'
        # round-off has coincident points, and only their pairs go
        built, triu = [], np.triu_indices
        monkeypatch.setattr(np, "triu_indices",
                            lambda *args: built.append(triu(*args))
                            or built[-1])
        box = Box.unit(2, resolution=5)
        i, j, dist = box.grid_pairs()
        assert i is built[0][0] and j is built[0][1]
        assert len(i) == 25 * 24 // 2
        np.testing.assert_array_equal(
            dist, np.linalg.norm(box.grid()[i] - box.grid()[j], axis=1))
        tiny = Box((1.0,), (1.0 + 4 * np.finfo(float).eps,), resolution=9)
        pts = tiny.grid()
        all_i, all_j = triu(9, 1)
        kept = pts[all_i, 0] != pts[all_j, 0]
        assert 0 < kept.sum() < len(kept)
        i, j, dist = tiny.grid_pairs()
        assert np.array_equal(i, all_i[kept]) and np.array_equal(
            j, all_j[kept])
        assert np.array_equal(dist, np.linalg.norm(pts[i] - pts[j], axis=1))
        for a in (*box.grid_pairs(), *tiny.grid_pairs()):
            assert not a.flags.writeable

    def test_tables_are_read_only(self):
        box = Box.unit(3, resolution=3)
        with pytest.raises(ValueError, match="read-only"):
            box.grid()[0, 0] = 1.0
        for a in box.grid_pairs():
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestTimeForms:
    def test_at_time_and_derivative(self):
        t = Polynomial.variable(0, 3)
        x = Polynomial.variable(1, 3)
        omega = Cochain(2, 1, {(0,): t * t * x})
        frozen = omega.form_at(2.0)
        assert frozen.polys[0]([3.0, 0.0]) == pytest.approx(12.0)
        dot = omega.dot_at(2.0)
        assert dot.polys[0]([3.0, 0.0]) == pytest.approx(12.0)

    def test_time_slice_contract(self):
        # omega = x1 dt^dx1 + dx1^dx2 on R^(1+2); slice at any t keeps the
        # dt-paired part with the time variable substituted
        x1 = Polynomial.variable(1, 3)
        omega = FormField.from_polynomials(
            3, 2, {(0, 1): x1.compose_affine(np.eye(3), np.zeros(3)),
                   (1, 2): Polynomial.constant(3, 1.0)})
        sliced = time_slice_contract(omega, 0.5)
        assert sliced.ambient == 2
        assert sliced.degree == 1
        pt = np.array([2.0, 7.0])
        np.testing.assert_allclose(sliced(pt).coefficients, [2.0, 0.0])

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            Cochain(2, 1, {(0, 1): Polynomial.zero(3)})


@pytest.mark.parametrize("degree, key", [
    (2, (1, 0)), (2, (0, 5)), (2, (0, 0)), (1, (0, 1)), (1, (-1,)),
    (2, (0,))])
@pytest.mark.parametrize("build", [
    lambda degree, key: FormField.from_polynomials(2, degree, {key: 1.0}),
    lambda degree, key: Cochain(2, degree, {key: 1.0})],
    ids=["FormField.from_polynomials", "TimePolynomialForm"])
def test_bad_multi_index_is_named(build, degree, key):
    # unchecked, (1, 0) and (0, 5) were a bare KeyError, and (0, 1) of a
    # 1-form set the dx0 coefficient
    with pytest.raises(ValueError, match=re.escape(
            f"multi-index {key!r} must be {degree} strictly increasing "
            f"axis indices below 2")):
        build(degree, key)


@pytest.mark.parametrize("degree", [-1, 3])
@pytest.mark.parametrize("build", [FormField.from_polynomials, Cochain],
                         ids=["FormField.from_polynomials", "Cochain"])
def test_degree_outside_zero_to_ambient_is_named(build, degree):
    # unchecked, each built a form with no coefficients on R^2
    with pytest.raises(ValueError, match=f"degree {degree} must be between "
                                         f"0 and the ambient dimension 2"):
        build(2, degree, {})
