"""Motions, velocity fields, the Reynolds operator, the homotopy
formula, and the transport derivative."""

import re

import numpy as np
import pytest

from currentkit.chains import (Chain, Leaf, boundary, evaluate,
                               unit_interval_chain, unit_square_chain)
from currentkit.forms import (Box, Cochain, FormField, VectorField,
                              lie_derivative)
from currentkit.lipschitz import LipMap, pushforward_chain
from currentkit.motion import (_MOTION_FAMILIES, Motion,
                               classical_reynolds, continuity_modulus,
                               homotopy_residual, make_motion,
                               reynolds_operator,
                               transport_derivative, transport_derivative_fd,
                               velocity_field)
from currentkit.polynomial import Polynomial
from oracles import (motion_map_by_formula, transport_derivative_betounes,
                     transport_derivative_lagrangian_fd, velocity_by_formula)

SQ = unit_square_chain()
BSQ = boundary(SQ)


def _area_cochain():
    # psi = (x^2 + t*y + 1) dx^dy
    t, x, y = (Polynomial.variable(i, 3) for i in range(3))
    return Cochain(2, 2, {(0, 1): x * x + t * y
                          + Polynomial.constant(3, 1.0)})


def _line_cochain():
    t, x, y = (Polynomial.variable(i, 3) for i in range(3))
    return Cochain(2, 1, {(0,): x * y + t, (1,): y * y})


class TestMotionFamilies:
    def test_time_window_enforced(self):
        m = make_motion("rotation", interval=(0.0, 1.0))
        with pytest.raises(ValueError):
            m.check_time(2.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_motion("vortex")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="'rotation'.*'rta'"):
            make_motion("rotation", rta=0.7)
        with pytest.raises(ValueError, match="'rate'"):
            make_motion("expansion", rate=2.0)

    @pytest.mark.parametrize("name, params", [
        ("rotation", {"rate": np.inf}), ("shear", {"rate": np.nan}),
        ("tent", {"amplitude": np.nan}), ("tent", {"center": -np.inf}),
        ("translation", {"velocity": [0.3, np.inf]})],
        ids=["inf_rate", "nan_shear", "nan_amplitude", "inf_center",
             "inf_velocity"])
    def test_non_finite_parameter_is_named(self, name, params):
        # each built, and failed at first use: the rotation with
        # "non-finite coefficient -inf of (0, 1)", the tent with
        # "non-finite map images"
        key, = params
        with pytest.raises(ValueError, match=re.escape(
                f"motion parameter {key!r} of family {name!r} must be")):
            make_motion(name, **params)

    @pytest.mark.parametrize("interval", [
        (1.0, -1.0), (0.5, 0.5), (0.0, np.inf), (np.nan, 1.0),
        (0.0, 0.5, 1.0), 5, ["a", "b"], "ab", (False, True), (0, 10 ** 400),
        (0, 10 ** 5000)])
    def test_interval_is_two_finite_increasing_numbers(self, interval):
        # (1, -1) built, and every time check then failed with "time 0.0
        # outside the motion interval (1.0, -1.0)"; 5 and ["a", "b"] were a
        # TypeError and a ValueError of their own, (False, True) built, an
        # int beyond the float range was an OverflowError, and one of more
        # than 4300 digits Python's own "Exceeds the limit (4300 digits)"
        with pytest.raises(ValueError, match="motion parameter 'interval'"):
            make_motion("rotation", interval=interval)

    @pytest.mark.parametrize("name", sorted(_MOTION_FAMILIES))
    def test_every_family_is_its_formula(self, name):
        # each family's map at t, defaults included, is kappa_t written
        # from the family's formula, bit for bit
        m = make_motion(name)
        points = np.random.default_rng(0).uniform(-1.0, 1.0, (9, 2))
        for t in (-0.6, 0.0, 0.35):
            assert m.images([t], points)[0].tobytes() == \
                motion_map_by_formula(name, 2, t).values_at(points).tobytes()

    @pytest.mark.parametrize("name, ambient", [
        (name, ambient) for name in sorted(set(_MOTION_FAMILIES) - {"tent"})
        for ambient in (2, 3) if ambient == 2 or name != "rotation"])
    def test_every_affine_velocity_is_its_formula(self, name, ambient):
        # each affine family's velocity at t is the polynomial field
        # written from the family's formula: the same terms in the same
        # order, bit for bit; the rotation is planar
        m = make_motion(name, ambient)
        for t in (-0.6, 0.0, 0.35):
            got = velocity_field(m, t).components
            want = velocity_by_formula(name, ambient, t).components
            assert [list(p.terms.items()) for p in got] == \
                [list(p.terms.items()) for p in want]

    @pytest.mark.parametrize("name, params, one_field", [
        ("identity", {}, True), ("translation", {}, True),
        ("rotation", {}, True), ("shear", {}, True),
        ("tent", {"axis": 1}, True), ("expansion", {}, False),
        ("tent", {"axis": 0}, False)])
    def test_velocity_is_one_field_unless_it_moves_with_t(self, name, params,
                                                           one_field):
        # a velocity that does not depend on t is one object at every time,
        # so that the evaluators share work across its runs; the
        # expansion's and the axis-0 tent's are new at each time
        m = make_motion(name, **params)
        fields = [velocity_field(m, t) for t in (-0.6, 0.0, 0.35)]
        ids = {id(v) for v in fields}
        assert len(ids) == (1 if one_field else len(fields))

    def test_expansion_has_no_velocity_at_the_zero_map(self):
        # -1 is an end point of the default interval; there the velocity
        # y / (1 + t) divided by zero, a ZeroDivisionError
        m = make_motion("expansion")
        with pytest.raises(ValueError, match=re.escape(
                "an expansion has no velocity at t = -1, where the map "
                "(1 + t) x is zero")):
            velocity_field(m, -1.0)
        assert velocity_field(m, -0.5)([1.0, 2.0]).tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("interval", [(-2.0, 1.0), (-1.5, -0.5)])
    def test_expansion_through_the_zero_map_rejected(self, interval):
        # (1 + t) x is the zero map at t = -1, where the velocity
        # y / (1 + t) divided by zero; -1 as an end point stays admitted
        with pytest.raises(ValueError, match=re.escape(
                f"motion parameter 'interval' of an expansion must not "
                f"have -1 inside it, where the map (1 + t) x is zero; got "
                f"{interval}")):
            make_motion("expansion", interval=interval)
        assert make_motion("expansion").interval == (-1.0, 1.0)

    def test_expansion_velocity(self):
        m = make_motion("expansion", interval=(-0.5, 1.0))
        v = velocity_field(m, 1.0)
        np.testing.assert_allclose(v([2.0, 4.0]), [1.0, 2.0])

    def test_rotation_velocity_is_polynomial(self):
        m = make_motion("rotation", rate=2.0)
        v = velocity_field(m, 0.3)
        assert v.is_polynomial
        np.testing.assert_allclose(v([1.0, 0.0]), [0.0, 2.0])

    @pytest.mark.parametrize("name", ["identity", "translation", "rotation",
                                      "expansion", "shear", "tent"])
    def test_velocity_carries_material_points(self, name):
        # the Eulerian velocity at kappa_t(x) is the time derivative of the
        # map that pushforward applies, by central difference
        m = make_motion(name)
        rng = np.random.default_rng(3)
        h = 1e-6
        for t in (-0.5, 0.0, 0.3, 0.75):
            v = velocity_field(m, t)
            now, ahead, behind = (m.map_at(s) for s in (t, t + h, t - h))
            for x in rng.uniform(0.0, 1.0, size=(5, 2)):
                np.testing.assert_allclose(v(now(x)),
                                           (ahead(x) - behind(x)) / (2 * h),
                                           atol=1e-8)


class TestReynoldsOperator:
    @pytest.mark.parametrize("chain,deg", [(BSQ, 1), (SQ, 2)])
    def test_duality_with_lie_derivative(self, chain, deg):
        rng = np.random.default_rng(deg)
        for _ in range(5):
            v = VectorField.random_polynomial(2, rng, max_degree=2)
            phi = FormField.random_polynomial(2, deg, rng, max_degree=2)
            lhs = evaluate(reynolds_operator(v, chain), phi)
            rhs = evaluate(chain, lie_derivative(phi, v))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_top_degree_drops_wedge_term(self):
        v = VectorField.constant([1.0, 0.0])
        R = reynolds_operator(v, Leaf(SQ))
        assert R.degree == 2


class TestHomotopyFormula:
    @pytest.mark.parametrize("family,chain", [
        ("translation", SQ), ("rotation", SQ), ("shear", SQ),
        ("rotation", BSQ)])
    def test_residual_small(self, family, chain):
        rng = np.random.default_rng(hash(family) % 2 ** 31)
        m = make_motion(family)
        phi = FormField.random_polynomial(2, chain.degree, rng, max_degree=2)
        assert homotopy_residual(m, (0.0, 0.5), chain, phi) < 1e-6

    def test_panel_refinement_order(self):
        rng = np.random.default_rng(0)
        m = make_motion("rotation", rate=0.7)
        phi = FormField.random_polynomial(2, 2, rng, max_degree=3)
        res = [homotopy_residual(m, (0.0, 0.4), SQ, phi, panels=p,
                                 gauss_order=1) for p in (2, 4, 8)]
        orders = [np.log(res[i] / res[i + 1]) / np.log(2.0) for i in range(2)]
        assert min(orders) > 1.9

    def test_empty_interval(self):
        # 0.0 without a push
        m = make_motion("rotation")
        pushed = []
        counted = Motion(m.interval, m.ambient,
                         lambda ts, x: pushed.append(ts) or m.maps(ts, x),
                         m.velocity_factory)
        phi = FormField.from_polynomials(2, 1, {(1,): 1.0})
        assert homotopy_residual(counted, (0.2, 0.2), BSQ, phi) == 0.0
        assert pushed == []


class TestTransportDerivative:
    def test_three_pipelines_agree(self):
        m = make_motion("rotation", rate=0.7)
        psi = _area_cochain()
        an = transport_derivative(m, SQ, psi, 0.2)
        bet = transport_derivative_betounes(m, SQ, psi, 0.2)
        lag = transport_derivative_lagrangian_fd(
            lambda t: motion_map_by_formula("rotation", 2, t, rate=0.7),
            SQ, psi, 0.2, 1e-5)
        assert bet == pytest.approx(an, abs=1e-12)
        assert lag == pytest.approx(an, abs=1e-8)

    def test_fd_second_order(self):
        m = make_motion("rotation", rate=0.7)
        psi = _area_cochain()
        an = transport_derivative(m, SQ, psi, 0.2)
        errs = [abs(transport_derivative_fd(m, SQ, psi, 0.2, e) - an)
                for e in (1e-2, 1e-3)]
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order > 1.9

    def test_one_chain_with_boundary_term(self):
        m = make_motion("rotation", rate=0.7)
        psi = _line_cochain()
        an = transport_derivative(m, BSQ, psi, 0.2)
        fd = transport_derivative_fd(m, BSQ, psi, 0.2, 1e-4)
        assert fd == pytest.approx(an, abs=1e-8)

    def test_static_motion_vanishes_for_static_cochain(self):
        m = make_motion("identity")
        x = Polynomial.variable(1, 3)
        psi = Cochain(2, 2, {(0, 1): x * x})
        assert transport_derivative(m, SQ, psi, 0.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_tent_motion_one_sided_fd(self):
        m = make_motion("tent", amplitude=0.3)
        psi = _area_cochain()
        an = transport_derivative(m, SQ, psi, 0.2, levels=3)
        errs = [abs(transport_derivative_fd(m, SQ, psi, 0.2, e, levels=3,
                                            one_sided=True) - an)
                for e in (1e-2, 1e-3)]
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order > 0.9


class TestAxisZeroTent:
    """A tent that lifts along axis 0 moves x0 itself: its velocity is the
    hat whose peak has moved to center + t * amplitude."""

    @staticmethod
    def _motion(amplitude=0.3, interval=(-0.8, 0.8)):
        return make_motion("tent", center=0.5, width=0.25,
                           amplitude=amplitude, axis=0, interval=interval)

    @pytest.mark.parametrize("levels", [3, 5])
    def test_transport_derivative_matches_central_fd(self, levels):
        # the hat at the pushed point's y0 read 0.969631 and 0.968875
        # against the FD's 0.955 at tau = 0.5
        T = Chain(np.array([[[0.0, 0.0], [1.0, 1.0]]]), [1.0])
        psi = _line_cochain()
        m = self._motion()
        an = transport_derivative(m, T, psi, 0.5, levels)
        fd = transport_derivative_fd(m, T, psi, 0.5, 1e-4, levels)
        assert abs(an - fd) <= 1e-9

    def test_velocity_carries_material_points(self):
        m = self._motion()
        rng = np.random.default_rng(3)
        h = 1e-6
        for t in (-0.5, 0.0, 0.3, 0.75):
            v = velocity_field(m, t)
            now, ahead, behind = (m.map_at(s) for s in (t, t + h, t - h))
            for x in rng.uniform(0.0, 1.0, size=(5, 2)):
                np.testing.assert_allclose(v(now(x)),
                                           (ahead(x) - behind(x)) / (2 * h),
                                           atol=1e-8)

    @pytest.mark.parametrize("amplitude, interval", [
        (0.3, (-1.0, 1.0)), (-0.25, (-1.0, 0.5))])
    def test_folding_lift_rejected(self, amplitude, interval):
        # at |t * amplitude| >= width the lift folds x0 over itself
        with pytest.raises(ValueError, match="parameter 'amplitude'"):
            self._motion(amplitude, interval)


class TestClassicalReynolds:
    def test_expanding_box(self):
        m = make_motion("expansion", interval=(-0.5, 1.0))
        density = Cochain(2, 0, {(): Polynomial.constant(3, 1.0)})
        lhs, vol, flux = classical_reynolds(m, SQ, density, 0.0)
        assert lhs == pytest.approx(2.0, abs=1e-9)
        assert lhs == pytest.approx(vol + flux, abs=1e-9)

    def test_time_varying_density_static_domain(self):
        m = make_motion("identity")
        t = Polynomial.variable(0, 3)
        density = Cochain(2, 0, {(): t})
        lhs, vol, flux = classical_reynolds(m, SQ, density, 0.5)
        assert lhs == pytest.approx(1.0, abs=1e-9)  # d/dt (t * area)
        assert vol == pytest.approx(1.0, abs=1e-9)
        assert flux == pytest.approx(0.0, abs=1e-9)

    def test_wrong_degree_rejected(self):
        m = make_motion("identity")
        density = Cochain(2, 0, {(): Polynomial.constant(3, 1.0)})
        with pytest.raises(ValueError):
            classical_reynolds(m, BSQ, density, 0.0)

    @pytest.mark.parametrize("levels", [0, 2, 3])
    @pytest.mark.parametrize("family, params", [
        ("identity", {}), ("translation", {"velocity": [0.3, 0.1]}),
        ("rotation", {"rate": 0.7}), ("shear", {"rate": 0.4}),
        ("expansion", {"interval": (-0.5, 1.0)})])
    def test_volume_term_is_the_pushed_rate_integral(self, family, params,
                                                     levels):
        # the volume term comes from the transport derivative's psi_dot
        # term; it equals, bit for bit, the rate of the density integrated
        # over a push of its own
        rng = np.random.default_rng(levels)
        m = make_motion(family, **params)
        t = Polynomial.variable(0, 3)
        rho = (Polynomial.random(3, 3, rng)
               + t * Polynomial.random(3, 2, rng) + t * 0.37)
        density = Cochain(2, 0, {(): rho})
        rate = density.dot_at(0.3)
        lhs, vol, _ = classical_reynolds(m, SQ, density, 0.3, levels)
        assert vol != 0.0
        assert vol == evaluate(m.push(SQ, 0.3, levels),
                               FormField.from_polynomials(
                                   2, 2, {(0, 1): rate.polys[0]}))
        vol_cochain = Cochain(2, 2, {(0, 1): density.polys[0]})
        assert lhs == transport_derivative(m, SQ, vol_cochain, 0.3, levels)

    @pytest.mark.parametrize("levels, expected", [
        (0, (7.388333333333331, 1.0985000000000003, 6.2898333333333305)),
        (2, (7.38833333333333, 1.0985, 6.289833333333331))])
    def test_flux_maps_the_faces_without_a_push(self, monkeypatch, levels,
                                                expected):
        # the boundary faces of T's subdivision are mapped by
        # `Motion.images`; the values are those of the boundary of T
        # pushed by `Motion.push`, bit for bit
        def pushed(*args, **kwargs):
            raise AssertionError("classical_reynolds pushed T")

        monkeypatch.setattr(Motion, "push", pushed)
        m = make_motion("expansion", interval=(-0.5, 1.0))
        density = Cochain(2, 0, {(): _area_cochain().polys[0]})
        assert classical_reynolds(m, SQ, density, 0.3, levels) == expected

    def test_subdivides_the_chain_once(self, monkeypatch):
        # the flux faces are the boundary of the subdivision that the
        # transport derivative pushes: T and its boundary are subdivided
        # once each.  A repeat call returns the subdivision already built,
        # so each distinct chain returned is one build
        built, subdivided = {}, Chain.subdivided

        def counted(chain, levels=1):
            work = subdivided(chain, levels)
            built[id(work)] = (work, (len(chain), levels))
            return work

        monkeypatch.setattr(Chain, "subdivided", counted)
        m = make_motion("expansion", interval=(-0.5, 1.0))
        density = Cochain(2, 0, {(): _area_cochain().polys[0]})
        classical_reynolds(m, SQ, density, 0.3, 4)
        assert sorted(key for _, key in built.values()) == [(len(SQ), 4),
                                                            (len(BSQ), 4)]

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("order, sign", [([0, 1, 2, 3], 1.0),
                                             ([1, 0, 2, 3], -1.0)])
    def test_expanding_tetrahedron(self, order, sign, tau):
        # the flux normals in R^3: the Kuhn tetrahedron has volume
        # (1 + t)^3 / 6 under expansion, all of whose rate is flux; the
        # normals were planar only, a ValueError
        kuhn = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])
        m = make_motion("expansion", 3, interval=(-0.5, 1.0))
        density = Cochain(3, 0, {(): Polynomial.constant(4, 1.0)})
        lhs, vol, flux = classical_reynolds(
            m, Chain(kuhn[None, order], [1.0]), density, tau)
        assert lhs == pytest.approx(sign * (1 + tau) ** 2 / 2, abs=1e-15)
        assert vol == 0.0
        assert flux == pytest.approx(lhs, abs=1e-15)

    def test_translated_segment(self):
        # on a line the faces are the end points: density x on [0, 1]
        # moved at speed 0.7 has rate 0.7 * (1 + 0.7 t) - 0.7 * 0.7 t
        m = make_motion("translation", 1, velocity=[0.7])
        x = Polynomial.variable(1, 2)
        lhs, vol, flux = classical_reynolds(
            m, unit_interval_chain(), Cochain(1, 0, {(): x}), 0.0)
        assert lhs == pytest.approx(0.7, abs=1e-15)
        assert (vol, flux) == (0.0, pytest.approx(0.7, abs=1e-15))

    @pytest.mark.parametrize("scale", [1e-16, 1e8])
    def test_expanding_box_at_scale(self, scale):
        # no boundary face is too short or too long to carry its flux
        m = make_motion("expansion", interval=(-0.5, 1.0))
        density = Cochain(2, 0, {(): Polynomial.constant(3, 1.0)})
        T = pushforward_chain(LipMap.affine(scale * np.eye(2)), SQ)
        lhs, vol, flux = classical_reynolds(m, T, density, 0.0)
        assert lhs == pytest.approx(2.0 * scale ** 2, rel=1e-12, abs=0.0)
        assert vol == 0.0
        assert flux == pytest.approx(lhs, rel=1e-12, abs=0.0)


class TestContinuityAndBalance:
    def test_translation_linear_modulus(self):
        rng = np.random.default_rng(3)
        m = make_motion("translation", velocity=[0.3, 0.1])
        box = Box.unit(2, resolution=4)
        family = [FormField.random_polynomial(2, 2, rng, max_degree=1)
                  for _ in range(4)]
        eps = [0.1, 0.05, 0.025]
        ests = continuity_modulus(m, SQ, 0.0, eps, family, box)
        slope = np.log(ests[0] / ests[2]) / np.log(eps[0] / eps[2])
        assert slope == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("family", [
        [], [FormField.from_polynomials(2, 2, {})]], ids=["empty", "zero"])
    def test_modulus_needs_a_form_of_positive_seminorm(self, family):
        # both ended in "max() arg is an empty sequence"
        m = make_motion("rotation", rate=0.7)
        with pytest.raises(ValueError, match="empty or has no form with a "
                                             "positive comass seminorm"):
            continuity_modulus(m, SQ, 0.0, [0.1], family,
                               Box.unit(2, resolution=4))
