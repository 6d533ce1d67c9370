"""Motions as curves of Lipschitz embeddings: Eulerian velocity fields,
deformation chains, the Reynolds operator, and the transport
derivative with its finite-difference oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (Boundary, Chain, Current, Leaf, Sum, VWedge,
                     _edge_wedges, boundary, evaluate)
from .forms import (Box, FormField, TimePolynomialForm, VectorField, contract,
                    exterior_derivative, seminorm_comass)
from .lipschitz import LipMap, _planar_rotation, _tent, pushforward_chain
from .polynomial import Polynomial
from .quadrature import grundmann_moller, integrate_interval, simplex_volumes

__all__ = [
    "Motion",
    "Cochain",
    "make_motion",
    "velocity_field",
    "reynolds_operator",
    "deformation_chain",
    "homotopy_residual",
    "transport_derivative",
    "transport_derivative_fd",
    "classical_reynolds",
    "continuity_modulus",
    "balance_transport",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAX = 60


@dataclass(frozen=True)
class Motion:
    """Time-indexed Lipschitz embedding kappa_t with its material velocity.

    `velocity_factory`, `inverse` and `map_factory` are optional exact
    backends; anything missing is recovered numerically.
    """

    interval: tuple
    kappa: object                 # (t, x) -> point
    kappa_dot: object             # (t, x) -> velocity of the material point
    k_m: Box                      # compact set carrying the motion
    inverse: object = None        # (t, y) -> x with kappa(t, x) = y
    velocity_factory: object = None   # t -> VectorField (Eulerian, exact)
    map_factory: object = None        # t -> LipMap for kappa_t
    name: str = ""

    def check_time(self, t: float):
        a, b = self.interval
        if not a <= t <= b:
            raise ValueError(f"time {t} outside the motion interval {self.interval}")

    def map_at(self, t: float) -> LipMap:
        self.check_time(t)
        if self.map_factory is not None:
            return self.map_factory(t)
        return LipMap(self.k_m.dim, lambda x, t=t: self.kappa(t, x),
                      name=f"{self.name}@{t:g}")

    def push(self, T: Chain, t: float, levels: int = 0) -> Chain:
        return pushforward_chain(self.map_at(t), T, levels=levels)


def _invert_newton(m: Motion, t: float, y: np.ndarray) -> np.ndarray:
    if m.inverse is not None:
        return np.asarray(m.inverse(t, y), dtype=float)
    y = np.asarray(y, dtype=float)
    x = y.copy()
    n = y.size
    h = 1e-6
    for _ in range(_NEWTON_MAX):
        fx = np.asarray(m.kappa(t, x), dtype=float)
        res = y - fx
        if np.linalg.norm(res) < _NEWTON_TOL:
            return x
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (np.asarray(m.kappa(t, x + e), float)
                         - np.asarray(m.kappa(t, x - e), float)) / (2 * h)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            raise ValueError("motion inversion failed: singular Jacobian")
        lam = 1.0
        base = np.linalg.norm(res)
        while lam > 1e-6:
            cand = x + lam * step
            if np.linalg.norm(y - np.asarray(m.kappa(t, cand), float)) < base:
                x = cand
                break
            lam *= 0.5
        else:
            raise ValueError("motion inversion failed: no descent")
    raise ValueError("motion inversion did not converge")


def velocity_field(m: Motion, t: float) -> VectorField:
    """Eulerian velocity v_t = kappa_dot_t o (kappa_t)^-1, extended by zero
    outside the moving support."""
    m.check_time(t)
    if m.velocity_factory is not None:
        return m.velocity_factory(t)

    n = m.k_m.dim

    def v(ys, m=m, t=t):
        return np.array([m.kappa_dot(t, _invert_newton(m, t, y))
                         for y in ys], dtype=float).reshape(len(ys), n)

    return VectorField(n, func=v)


# ----------------------------------------------------------------------
# cochains
# ----------------------------------------------------------------------

class Cochain:
    """Sharp r-cochain represented by a (time-dependent) form field.

    Action on a current is evaluation against the representing form.
    """

    def __init__(self, rep: TimePolynomialForm, name: str = ""):
        self.rep = rep
        self.degree = rep.degree
        self.ambient = rep.ambient
        self.name = name

    @classmethod
    def static(cls, phi: FormField, name: str = "") -> "Cochain":
        return cls(TimePolynomialForm.static(phi), name)

    def form_at(self, t: float) -> FormField:
        return self.rep.at_time(t)

    def dot_at(self, t: float) -> FormField:
        return self.rep.time_derivative().at_time(t)

    def __call__(self, t: float, T) -> float:
        return evaluate(T, self.form_at(t))


# ----------------------------------------------------------------------
# current-level kinematic operators
# ----------------------------------------------------------------------

def reynolds_operator(v: VectorField, T: Current) -> Current:
    """R_v(T) = v wedge bnd(T) + bnd(v wedge T), the dual of the Lie
    derivative: evaluate(R_v(T), phi) = evaluate(T, L_v phi)."""
    if isinstance(T, Chain):
        T = Leaf(T)
    parts = []
    if T.degree >= 1:
        parts.append(VWedge(v, Boundary(T)))
    if T.degree + 1 <= T.ambient:
        parts.append(Boundary(VWedge(v, T)))
    if not parts:
        raise ValueError("Reynolds operator vanishes identically here")
    return Sum(parts)


@dataclass
class Deformation(Current):
    """The (r+1)-current swept by a chain under a motion over [a, b],
    evaluated as the time integral of (v_tau wedge kappa_tau# T)."""

    motion: Motion
    interval: tuple
    chain: Chain
    levels: int = 0
    panels: int = 8
    gauss_order: int = 5

    def __post_init__(self):
        a, b = self.interval
        self.motion.check_time(a)
        self.motion.check_time(b)
        if self.chain.degree + 1 > self.chain.ambient:
            raise ValueError("deformation chain overflows the ambient degree")
        self.degree = self.chain.degree + 1
        self.ambient = self.chain.ambient

    def _evaluate(self, phi: FormField, s_order: int):
        a, b = self.interval
        if a == b:
            return 0.0
        work = self.chain.subdivided(self.levels)

        def integrand(tau):
            pushed = self.motion.push(work, tau)
            v = velocity_field(self.motion, tau)
            return evaluate(pushed, contract(phi, v), s_order)

        return integrate_interval(integrand, a, b, panels=self.panels,
                                  order=self.gauss_order)


def deformation_chain(m: Motion, interval, T: Chain, levels: int = 0,
                      panels: int = 8, gauss_order: int = 5) -> Current:
    return Deformation(m, tuple(interval), T, levels, panels, gauss_order)


def homotopy_residual(m: Motion, interval, T: Chain, phi: FormField,
                      levels: int = 0, panels: int = 8,
                      gauss_order: int = 5) -> float:
    """Residual of the homotopy formula
    (kappa_b# T - kappa_a# T) = bnd(deformation) + deformation of bnd(T)."""
    a, b = interval
    work = T.subdivided(levels)
    lhs = evaluate(m.push(work, b), phi) - evaluate(m.push(work, a), phi)
    rhs = 0.0
    if T.degree + 1 <= T.ambient:
        deform = deformation_chain(m, interval, T, levels, panels,
                                   gauss_order)
        rhs += evaluate(Boundary(deform), phi)
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            rhs += evaluate(deformation_chain(m, interval, bt, levels,
                                              panels, gauss_order), phi)
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# the transport derivative and its oracles
# ----------------------------------------------------------------------

def _transport_terms(m: Motion, T: Chain, psi: Cochain, tau: float,
                     levels: int):
    """The parts of the transport identity after the rate term: the pushed
    chain kappa_tau# T; the wedge term psi(bnd(v wedge kappa_tau# T)), or
    None when T has top degree and it vanishes identically; and the pushed
    boundary kappa_tau#(bnd T) with psi -| v, the form that
    v wedge kappa_tau#(bnd T) is evaluated on, or None when bnd T is
    empty."""
    m.check_time(tau)
    pushed = m.push(T, tau, levels)
    v = velocity_field(m, tau)
    phi = psi.form_at(tau)
    wedge = boundary_part = None
    # bnd(v wedge pushed) acts on phi through d(phi) -| v
    if T.degree + 1 <= T.ambient:
        wedge = evaluate(pushed, contract(exterior_derivative(phi), v))
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            boundary_part = (m.push(bt, tau, levels), contract(phi, v))
    return pushed, wedge, boundary_part


def transport_derivative(m: Motion, T: Chain, psi: Cochain, tau: float,
                         levels: int = 0) -> float:
    """d/dt of psi(t)(kappa_t# T) at tau:
    psi_dot(kappa_tau# T) + psi(bnd(v wedge kappa_tau# T)
                                + v wedge kappa_tau#(bnd T))."""
    pushed, wedge, boundary_part = _transport_terms(m, T, psi, tau, levels)
    total = evaluate(pushed, psi.dot_at(tau))
    if wedge is not None:
        total += wedge
    if boundary_part is not None:
        total += evaluate(*boundary_part)
    return total


def transport_derivative_fd(m: Motion, T: Chain, psi: Cochain, tau: float,
                            eps: float, levels: int = 0,
                            one_sided: bool = False) -> float:
    """Finite-difference oracle for the transport derivative."""
    work = T.subdivided(levels)

    def total(t):
        return psi(t, m.push(work, t))

    if one_sided:
        return (total(tau + eps) - total(tau)) / eps
    return (total(tau + eps) - total(tau - eps)) / (2 * eps)


def classical_reynolds(m: Motion, T: Chain, density: TimePolynomialForm,
                       tau: float, levels: int = 0):
    """Classical transport theorem for a full-dimensional chain.

    `density` is a time-dependent 0-form; the transported property is
    density times the volume form.  Returns (lhs, volume_term, flux_term)
    with lhs the transport derivative and the right side split into the
    local-rate volume integral and the boundary flux of density * (v . nu).
    """
    n = T.ambient
    if T.degree != n:
        raise ValueError("classical transport needs a full-dimensional chain")
    if n != 2:
        raise ValueError("flux normals implemented for the planar case")
    if density.degree != 0:
        raise ValueError("density must be a 0-form")
    vol_index = tuple(range(n))
    psi = Cochain(TimePolynomialForm(
        n, n, {vol_index: density.polys[0]}), name="density.volume")
    lhs = transport_derivative(m, T, psi, tau, levels)

    pushed = m.push(T, tau, levels)
    ddt = density.time_derivative().at_time(tau)
    volume_term = evaluate(pushed, FormField.from_polynomials(
        n, n, {vol_index: ddt.polys[0]}))

    # all faces and points at once; the terms are summed face by face,
    # point by point, from 0.0
    verts, signs, mults = boundary(pushed).stacked()
    tangents, lengths, _ = _edge_wedges(verts)
    keep = lengths >= 1e-15
    verts, signs, mults = verts[keep], signs[keep], mults[keep]
    tangents = tangents[keep] / lengths[keep, None] * signs[:, None]
    nu = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)  # outward, ccw
    bary, w = grundmann_moller(1, 2)
    pts = np.matmul(bary, verts).reshape(-1, n)
    wts = w * simplex_volumes(verts)[:, None]
    rho = density.at_time(tau).coefficients_at(pts)[:, 0]
    normal_v = np.matmul(np.repeat(nu, len(w), axis=0)[:, None, :],
                         velocity_field(m, tau).values_at(pts)[:, :, None])
    terms = (mults[:, None] * wts).ravel() * rho * normal_v[:, 0, 0]
    flux_term = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    return lhs, volume_term, flux_term


def continuity_modulus(m: Motion, T: Chain, t: float, eps_list, family,
                       box: Box, levels: int = 0):
    """Dual M-norm estimates of kappa_{t+eps}# T - kappa_t# T over a test
    family, one per epsilon."""
    work = T.subdivided(levels)
    base = m.push(work, t)
    norms = [seminorm_comass(phi, box) for phi in family]
    out = []
    for eps in eps_list:
        moved = m.push(work, t + eps)
        est = max(abs(evaluate(moved, phi) - evaluate(base, phi)) / nn
                  for phi, nn in zip(family, norms) if nn > 0)
        out.append(est)
    return out


def balance_transport(m: Motion, T: Chain, psi: Cochain, xi: Cochain,
                      tau: float, source: Cochain = None, levels: int = 0,
                      balance_tol: float = 1e-8, box: Box = None):
    """Transport derivative re-expressed through a differential balance law
    psi_dot + d(xi) = phi with source phi and flux xi.

    Returns a report dict with both pipelines and their agreement.
    """
    if source is None:
        rep = psi.rep.time_derivative()
        dxi = xi.rep.exterior_derivative()
        merged = TimePolynomialForm(psi.ambient, psi.degree, {})
        merged.polys = [a + b for a, b in zip(rep.polys, dxi.polys)]
        source = Cochain(merged, name="manufactured-source")
    else:
        # verify the balance residual on the grid
        if box is None:
            box = Box.unit(T.ambient)
        resid_form = (psi.dot_at(tau) + exterior_derivative(xi.form_at(tau))
                      - source.form_at(tau))
        resid = seminorm_comass(resid_form, box)
        if resid > balance_tol:
            raise ValueError(f"balance residual {resid:g} exceeds "
                             f"{balance_tol:g}")
    # psi_dot = source - d(xi) moves xi onto the boundary term
    pushed, wedge, boundary_part = _transport_terms(m, T, psi, tau, levels)
    direct = evaluate(pushed, psi.dot_at(tau))
    rewritten = evaluate(pushed, source.form_at(tau))
    if wedge is not None:
        direct += wedge
        rewritten += wedge
    if boundary_part is not None:
        pushed_b, phi_v = boundary_part
        direct += evaluate(pushed_b, phi_v)
        rewritten += evaluate(pushed_b, phi_v - xi.form_at(tau))
    return {
        "transport_derivative": direct,
        "balance_form": rewritten,
        "difference": abs(direct - rewritten),
    }


# ----------------------------------------------------------------------
# built-in motion families
# ----------------------------------------------------------------------

def make_motion(name: str, ambient: int = 2, interval=(-1.0, 1.0),
                k_m: Box = None, **params) -> Motion:
    """Named motion families: identity, translation, rotation, expansion,
    shear, tent."""
    if k_m is None:
        k_m = Box.unit(ambient)
    iv = tuple(float(t) for t in interval)

    if name == "identity":
        zero = VectorField.constant(np.zeros(ambient))
        return Motion(iv, lambda t, x: np.asarray(x, float),
                      lambda t, x: np.zeros(ambient), k_m,
                      inverse=lambda t, y: np.asarray(y, float),
                      velocity_factory=lambda t: zero,
                      map_factory=lambda t: LipMap.identity(ambient),
                      name="identity")

    if name == "translation":
        c = np.asarray(params.get("velocity", [0.25] + [0.0] * (ambient - 1)),
                       dtype=float)
        vf = VectorField.constant(c)
        return Motion(iv, lambda t, x: np.asarray(x, float) + t * c,
                      lambda t, x: c, k_m,
                      inverse=lambda t, y: np.asarray(y, float) - t * c,
                      velocity_factory=lambda t: vf,
                      map_factory=lambda t: LipMap.affine(
                          np.eye(ambient), t * c, name="translation"),
                      name="translation")

    if name == "rotation":
        if ambient != 2:
            raise ValueError("rotation family is planar")
        w = float(params.get("rate", 1.0))
        x0, x1 = (Polynomial.variable(i, 2) for i in (0, 1))
        vf = VectorField.from_polynomials([(-w) * x1, w * x0])
        return Motion(iv, lambda t, x: _planar_rotation(w * t) @ np.asarray(x, float),
                      lambda t, x: w * np.array([
                          -np.sin(w * t) * x[0] - np.cos(w * t) * x[1],
                          np.cos(w * t) * x[0] - np.sin(w * t) * x[1]]),
                      k_m,
                      inverse=lambda t, y: _planar_rotation(-w * t) @ np.asarray(y, float),
                      velocity_factory=lambda t: vf,
                      map_factory=lambda t: LipMap.affine(
                          _planar_rotation(w * t), name="rotation"),
                      name="rotation")

    if name == "expansion":
        # kappa_t(x) = (1 + t) x; Eulerian velocity y / (1 + t)
        def vfac(t, ambient=ambient):
            return VectorField.from_polynomials(
                [Polynomial.variable(i, ambient) * (1.0 / (1.0 + t))
                 for i in range(ambient)])
        return Motion(iv, lambda t, x: (1.0 + t) * np.asarray(x, float),
                      lambda t, x: np.asarray(x, float), k_m,
                      inverse=lambda t, y: np.asarray(y, float) / (1.0 + t),
                      velocity_factory=vfac,
                      map_factory=lambda t: LipMap.affine(
                          (1.0 + t) * np.eye(ambient), name="expansion"),
                      name="expansion")

    if name == "shear":
        s = float(params.get("rate", 0.5))
        x1 = Polynomial.variable(1, ambient)
        comps = [Polynomial.zero(ambient) for _ in range(ambient)]
        comps[0] = s * x1
        vf = VectorField.from_polynomials(comps)

        def mat(t, s=s, ambient=ambient):
            out = np.eye(ambient)
            out[0, 1] = s * t
            return out

        return Motion(iv, lambda t, x: mat(t) @ np.asarray(x, float),
                      lambda t, x: np.array(
                          [s * np.asarray(x, float)[1]] + [0.0] * (ambient - 1)),
                      k_m,
                      inverse=lambda t, y: mat(-t) @ np.asarray(y, float),
                      velocity_factory=lambda t: vf,
                      map_factory=lambda t: LipMap.affine(mat(t), name="shear"),
                      name="shear")

    if name == "tent":
        # piecewise-linear vertical lift growing linearly in time;
        # genuinely non-smooth Lipschitz motion
        c = float(params.get("center", 0.5))
        w = float(params.get("width", 0.5))
        amp = float(params.get("amplitude", 0.3))
        axis = int(params.get("axis", 1))

        def kap(t, x):
            y = np.array(x, dtype=float)
            y[axis] += t * amp * _tent(x[0], c, w)
            return y

        def field(ys):
            out = np.zeros(ys.shape)
            out[:, axis] = amp * _tent(ys[:, 0], c, w)
            return out

        def kap_dot(t, x):
            return field(np.asarray(x, float)[None])[0]

        def inv(t, y):
            x = np.array(y, dtype=float)
            x[axis] -= t * amp * _tent(y[0], c, w)  # first axis is unchanged
            return x

        def vfac(t):
            return VectorField(ambient, func=field, lipschitz=amp / w)

        return Motion(iv, kap, kap_dot, k_m, inverse=inv,
                      velocity_factory=vfac, name="tent")

    raise ValueError(f"unknown motion family: {name}")
