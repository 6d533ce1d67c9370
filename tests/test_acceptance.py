"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) and asserts the same condition.
"""

import numpy as np
import pytest

from currentkit.chains import (Chain, boundary, evaluate, mass_chain,
                               triangle_chain, unit_interval_chain,
                               unit_square_chain)
from currentkit.complexes import freudenthal_complex
from currentkit.flatnorm import (dual_flat_lower_bound, flat_norm_lp,
                                 sharp_lower_bound)
from currentkit.forms import (Box, Cochain, FormField, VectorField,
                              exterior_derivative, lie_derivative,
                              lie_derivative_components)
from currentkit.lipschitz import (LipMap, lipschitz_constant,
                                  pushforward_chain)
from currentkit.motion import (classical_reynolds, continuity_modulus,
                               homotopy_residual, make_motion,
                               reynolds_operator, transport_derivative,
                               transport_derivative_fd)
from currentkit.polynomial import Polynomial


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}"
          + (f"  ({detail})" if detail else ""))
    return ok


def _area_cochain():
    t, x, y = (Polynomial.variable(i, 3) for i in range(3))
    return Cochain(2, 2, {(0, 1): x * x + t * y
                          + Polynomial.constant(3, 1.0)})


def test_criterion_01_exterior_identities():
    rng = np.random.default_rng(42)
    worst = 0.0
    pairs = 0
    while pairs < 50:
        n = int(rng.integers(2, 5))
        r = int(rng.integers(0, n))
        phi = FormField.random_polynomial(n, r, rng, max_degree=2)
        v = VectorField.random_polynomial(n, rng, max_degree=2)
        if r + 2 <= n:
            dd = exterior_derivative(exterior_derivative(phi))
            worst = max(worst, max(p.max_abs_coeff() for p in dd.polys))
        cartan = lie_derivative(phi, v) - lie_derivative_components(phi, v)
        worst = max(worst, max(p.max_abs_coeff() for p in cartan.polys))
        pairs += 1
    ok = worst == 0.0
    assert _report(1, "d.d = 0 and Cartan identity exact on 50 pairs", ok,
                   f"worst residual {worst:g}")


def test_criterion_02_boundary_adjointness():
    rng = np.random.default_rng(7)
    tet = Chain(np.vstack([np.zeros(3), np.eye(3)])[None], [1.0])
    worst = 0.0
    for T, r in ((triangle_chain(), 2), (tet, 3)):
        phi = FormField.random_polynomial(T.ambient, r - 1, rng, max_degree=3)
        worst = max(worst, abs(evaluate(boundary(T), phi)
                               - evaluate(T, exterior_derivative(phi))))
    # convergence order of the centroid-rule residual under subdivision
    phi = FormField.random_polynomial(2, 1, rng, max_degree=5)
    resid = []
    for lv in range(4):
        Tl = triangle_chain().subdivided(lv)
        resid.append(abs(evaluate(boundary(Tl), phi, s_order=0)
                         - evaluate(Tl, exterior_derivative(phi),
                                    s_order=0)))
    orders = [np.log(resid[i] / resid[i + 1]) / np.log(2.0) for i in range(3)]
    ok = worst <= 1e-8 and min(orders) >= 2.0 - 1e-6
    assert _report(2, "boundary adjointness <= 1e-8, order >= 2", ok,
                   f"residual {worst:.2e}, order {min(orders):.2f}")


def test_criterion_03_flat_norm_lp():
    comp = freudenthal_complex((0, 0), (1, 1), 4)
    T = boundary(unit_square_chain()).subdivided(2)
    value, *_ = flat_norm_lp(T, comp)
    analytic = min(4.0, 1.0)  # min(perimeter, area)
    ok = abs(value - analytic) <= 1e-8

    # exhaustive-search oracle on the resolution-1 complex
    small = freudenthal_complex((0, 0), (1, 1), 1)
    Ts = boundary(small.full_chain())
    ts = small.chain_vector(Ts)
    bmat = small.boundary_matrix(2)
    grid = np.arange(-2.0, 2.5, 0.5)
    brute = min(small.volumes(1) @ np.abs(ts - bmat @ np.array([s0, s1]))
                + small.volumes(2) @ np.abs([s0, s1])
                for s0 in grid for s1 in grid)
    v_small, *_ = flat_norm_lp(Ts, small)
    ok = ok and abs(v_small - brute) <= 1e-8

    rng = np.random.default_rng(3)
    comp3 = freudenthal_complex((0, 0), (1, 1), 3)
    checked = 0
    while checked < 20:
        if checked % 2 == 0:
            coeffs = rng.integers(-2, 3, comp3.n_simplices(1)).astype(float)
            Tr = comp3.simplex_chain(1, coeffs)
        else:
            coeffs = rng.integers(-1, 2, comp3.n_simplices(2)).astype(float)
            Tr = comp3.simplex_chain(2, coeffs)
        if not len(Tr):
            continue
        f_t, *_ = flat_norm_lp(Tr, comp3)
        ok = ok and f_t <= mass_chain(Tr) + 1e-8
        if Tr.degree >= 1:
            bt = boundary(Tr)
            if len(bt):
                f_bt, *_ = flat_norm_lp(bt, comp3)
                ok = ok and f_bt <= f_t + 1e-8
        checked += 1
    assert _report(3, "flat norm LP: F(bnd square) = 1, F <= M, "
                   "F(bnd T) <= F(T)", ok, f"F = {value:.10f}")


def test_criterion_04_pushforward_bounds():
    rng = np.random.default_rng(11)
    box = Box.unit(2, resolution=4)
    ok = True
    worst_slack = 0.0
    for k in range(20):
        mat = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        f = LipMap.affine(mat, rng.standard_normal(2))
        T = unit_square_chain() if k % 2 == 0 else triangle_chain()
        lip, _ = lipschitz_constant(f, box)
        slack = mass_chain(pushforward_chain(f, T)) \
            - lip ** T.degree * mass_chain(T)
        worst_slack = max(worst_slack, slack)
        ok = ok and slack <= 1e-6
        diff = (boundary(pushforward_chain(f, T))
                - pushforward_chain(f, boundary(T))).simplify()
        ok = ok and len(diff) == 0
    assert _report(4, "pushforward mass bound and affine boundary "
                   "commutation", ok, f"worst slack {worst_slack:.2e}")


def test_criterion_05_reynolds_duality():
    rng = np.random.default_rng(5)
    chains = [unit_square_chain(), triangle_chain(),
              boundary(unit_square_chain())]
    worst = 0.0
    for k in range(30):
        T = chains[k % 3]
        v = VectorField.random_polynomial(2, rng, max_degree=2)
        phi = FormField.random_polynomial(2, T.degree, rng, max_degree=2)
        resid = abs(evaluate(reynolds_operator(v, T), phi)
                    - evaluate(T, lie_derivative(phi, v)))
        worst = max(worst, resid)
    ok = worst <= 1e-8
    assert _report(5, "Reynolds duality on 30 pairs <= 1e-8", ok,
                   f"worst residual {worst:.2e}")


def test_criterion_06_homotopy_formula():
    rng = np.random.default_rng(0)
    sq = unit_square_chain()
    worst = 0.0
    for family in ("translation", "rotation", "shear"):
        m = make_motion(family)
        phi = FormField.random_polynomial(2, 2, rng, max_degree=2)
        worst = max(worst, homotopy_residual(m, (0.0, 0.5), sq, phi))
    # refinement order with midpoint time quadrature
    m = make_motion("rotation", rate=0.7)
    phi = FormField.random_polynomial(2, 2, rng, max_degree=3)
    res = [homotopy_residual(m, (0.0, 0.4), sq, phi, panels=p,
                             gauss_order=1) for p in (2, 4, 8)]
    orders = [np.log(res[i] / res[i + 1]) / np.log(2.0) for i in range(2)]
    ok = worst <= 1e-6 and min(orders) >= 2.0
    assert _report(6, "homotopy formula <= 1e-6, refinement order >= 2", ok,
                   f"worst residual {worst:.2e}, order {min(orders):.2f}")


def test_criterion_07_transport_theorem():
    sq = unit_square_chain()
    psi = _area_cochain()
    m = make_motion("rotation", rate=0.7)
    an = transport_derivative(m, sq, psi, 0.2)
    eps = [1e-2, 1e-3, 1e-4]
    errs = [abs(transport_derivative_fd(m, sq, psi, 0.2, e) - an)
            for e in eps]
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(10.0) for i in range(2)]
    smooth_ok = min(orders) >= 1.9 and errs[-1] <= 1e-5

    mt = make_motion("tent", amplitude=0.3)
    an_t = transport_derivative(mt, sq, psi, 0.2, levels=3)
    errs_t = [abs(transport_derivative_fd(mt, sq, psi, 0.2, e, levels=3,
                                          one_sided=True) - an_t)
              for e in eps]
    orders_t = [np.log(errs_t[i] / errs_t[i + 1]) / np.log(10.0)
                for i in range(2)]
    tent_ok = min(orders_t) >= 0.9
    ok = smooth_ok and tent_ok
    assert _report(7, "transport derivative vs central FD: order >= 1.9 "
                   "smooth / >= 0.9 tent", ok,
                   f"smooth order {min(orders):.2f}, "
                   f"err(1e-4) {errs[-1]:.2e}, "
                   f"tent order {min(orders_t):.2f}")


def test_criterion_08_classical_reynolds():
    m = make_motion("expansion", interval=(-0.5, 1.0))
    density = Cochain(2, 0, {(): Polynomial.constant(3, 1.0)})
    lhs, vol, flux = classical_reynolds(m, unit_square_chain(), density, 0.0)
    ok = abs(lhs - 2.0) <= 1e-6 and abs(lhs - (vol + flux)) <= 1e-6
    assert _report(8, "expanding box: derivative = 2, flux agreement", ok,
                   f"lhs {lhs:.10f}, vol+flux {vol + flux:.10f}")


def test_criterion_09_continuity_modulus():
    sq = unit_square_chain()
    box = Box.unit(2, resolution=4)
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    # fixed family with genuine dependence on both coordinates
    family = [FormField.from_polynomials(2, 2, {(0, 1): c})
              for c in (x + y, x * y, y * y - x, x * x + y)]
    eps = [0.1, 0.05, 0.025]
    mt = make_motion("translation", velocity=[0.3, 0.1])
    ests = continuity_modulus(mt, sq, 0.0, eps, family, box)
    slope = np.log(ests[0] / ests[2]) / np.log(eps[0] / eps[2])
    trans_ok = abs(slope - 1.0) <= 0.1

    mtt = make_motion("tent", amplitude=0.3)
    ests_t = continuity_modulus(mtt, sq, 0.0, eps, family, box, levels=3)
    tent_ok = ests_t[0] > ests_t[1] > ests_t[2] and ests_t[2] < 0.05
    ok = trans_ok and tent_ok
    assert _report(9, "continuity modulus: slope 1 +/- 0.1, tent decays",
                   ok, f"slope {slope:.3f}, tent tail {ests_t[2]:.2e}")


def test_criterion_10_norm_ladder():
    rng = np.random.default_rng(10)
    box = Box.unit(2, resolution=4)
    comp = freudenthal_complex((0, 0), (1, 1), 4)
    kuhn_triangle = triangle_chain([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    bundles = [
        unit_square_chain().subdivided(2),
        boundary(unit_square_chain()).subdivided(2),
        unit_interval_chain(2).subdivided(2),
        kuhn_triangle.subdivided(2),
        boundary(kuhn_triangle).subdivided(2),
    ]
    ok = True
    detail = []
    for T in bundles:
        family = [FormField.random_polynomial(2, T.degree, rng, max_degree=1)
                  for _ in range(4)]
        sharp = sharp_lower_bound(T, family, box)
        dual = dual_flat_lower_bound(T, family, box)
        flat, *_ = flat_norm_lp(T, comp)
        m = mass_chain(T)
        ok = ok and (sharp <= dual + 1e-6 and dual <= flat + 1e-6
                     and flat <= m + 1e-6)
        detail.append(f"{sharp:.3f}<={dual:.3f}<={flat:.3f}<={m:.3f}")
    assert _report(10, "norm ladder sharp <= flat-dual <= flat-LP <= mass",
                   ok, "; ".join(detail))
