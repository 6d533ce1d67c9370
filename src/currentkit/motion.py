"""Motions as curves of Lipschitz embeddings: Eulerian velocity fields,
deformation chains, the Reynolds operator, and the transport
derivative with its finite-difference oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused `evaluate` stays motion.evaluate, which perfbench's tests read
from .chains import (Boundary, Chain, Current, Leaf, Sum, VWedge,
                     _check_forms, _edge_wedges, boundary, evaluate,
                     evaluate_copies, simplex_geometry)
from .forms import (Box, Cochain, FormField, VectorField, contract,
                    exterior_derivative, seminorm_comass)
from .lipschitz import (_TENT, LipMap, _affine_frames, _family_params,
                        _tent, _tent_lift, pushforward_chain)
from .polynomial import Polynomial
from .quadrature import (gauss_nodes, gauss_quadrature, gauss_sum,
                         simplex_rule)

__all__ = [
    "Motion",
    "make_motion",
    "velocity_field",
    "reynolds_operator",
    "deformation_chain",
    "homotopy_residual",
    "homotopy_residuals",
    "transport_derivative",
    "transport_derivative_fd",
    "transport_derivative_fd_ladder",
    "classical_reynolds",
    "continuity_modulus",
]


@dataclass(frozen=True)
class Motion:
    """A curve t -> kappa_t of Lipschitz embeddings of R^`ambient` over
    `interval`, stated once: `maps(times, points)` is kappa_t at each time
    of an array (K,), of points (m, n), shape (K, m, n), and
    `velocity_factory(t)` the Eulerian velocity
    v_t = (d/dt kappa_t) o kappa_t^-1 as a VectorField.  Every map goes
    through `images`."""

    interval: tuple
    ambient: int
    maps: object              # (times (K,), points (m, n)) -> (K, m, n)
    velocity_factory: object  # t -> VectorField v_t
    name: str = ""

    def check_time(self, t: float):
        a, b = self.interval
        if not a <= t <= b:
            raise ValueError(f"time {t} outside the motion interval {self.interval}")

    def map_at(self, t: float) -> LipMap:
        """kappa_t as a LipMap: `images` at t alone."""
        self.check_time(t)
        return LipMap(self.ambient, lambda x: self.images([t], x)[0],
                      name=self.name)

    def images(self, times, points) -> np.ndarray:
        """kappa_t(points) at each of `times`, shape (K, m, n) for points
        (m, n), from one `maps` call.  A ValueError, before that call, for
        a time outside the interval or points whose width is not
        `ambient`; and after it, for images that are not (K, m, n) or not
        finite."""
        for t in times:
            self.check_time(t)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ambient:
            raise ValueError(f"a motion in {self.ambient} dimensions maps "
                             f"points of shape (m, {self.ambient}); got "
                             f"shape {points.shape}")
        times = np.asarray(times, dtype=float)
        out = np.asarray(self.maps(times, points), dtype=float)
        if out.shape != (len(times), *points.shape):
            raise ValueError(f"the maps of a motion must give images of "
                             f"shape (K, m, n) = {(len(times), *points.shape)}"
                             f"; got shape {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError("non-finite map images")
        return out

    def push(self, T: Chain, t: float, levels: int = 0) -> Chain:
        return pushforward_chain(self.map_at(t), T, levels=levels)


def velocity_field(m: Motion, t: float) -> VectorField:
    """Eulerian velocity v_t = (d/dt kappa_t) o kappa_t^-1, extended by
    zero outside the moving support."""
    m.check_time(t)
    return m.velocity_factory(t)


# the most simplices that one stacked evaluation of pushes takes at once;
# the time nodes go in chunks of as many as fit.  It bounds a chunk's
# temporaries: about 0.8 MB for 2048 edges in the plane
_STACK_SIMPLICES = 2048


def _pushed_values(m: Motion, work: Chain, times, form_rows,
                   s_order: int = 2) -> list:
    """evaluate(m.push(work, t_k), row[k], s_order) for every time t_k and
    every row of forms, one form per time; a list per row.  The pushes
    are stacked, in chunks of at most `_STACK_SIMPLICES` simplices (at
    least one push a chunk).  A chunk's maps take the vertex table in
    one `Motion.images` call, and each push's simplices are gathered from
    its images by the chain's ids, without a vertex table of their own:
    every per-simplex step reads the coordinates `Motion.push` would
    give, so the values are the same bits, and a degenerate image raises
    the same ValueError before any form is checked.  A chunk's geometry
    (`chains.simplex_geometry`) is built once and serves every row."""
    step = max(1, _STACK_SIMPLICES // max(len(work), 1))
    out = [[] for _ in form_rows]
    for lo in range(0, len(times), step):
        images = m.images(times[lo:lo + step], work.table)
        geometry = simplex_geometry(
            images[:, work.ids].reshape(-1, work.degree + 1, work.ambient),
            s_order, pushed=True)
        for row, values in zip(form_rows, out):
            forms = row[lo:lo + step]
            _check_forms(forms, work.degree, work.ambient)
            values += evaluate_copies(geometry, work.mults, forms)
    return out


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
    evaluated as the time integral of (v_tau wedge kappa_tau# T) by
    `quadrature.gauss_quadrature`.  All time nodes are evaluated as one
    stack of pushes, in chunks of at most `_STACK_SIMPLICES` simplices;
    phi -| v_tau is formed once per distinct velocity field.

    `homotopy_residuals` forms this integrand itself, for the deformation
    of T against d(phi) and of bnd(T) against phi, so that one stack of
    pushes serves every panel count: a change to `_values` (or to how
    `chains.Boundary` acts on phi) is made there too."""

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
        return gauss_quadrature(
            lambda times: self._values(phi, times, s_order), *self.interval,
            self.panels, self.gauss_order)

    def _values(self, phi: FormField, times, s_order: int) -> list:
        """The integrand evaluate(kappa_t# T, phi -| v_t) at every time."""
        forms = _contracted(phi, [velocity_field(self.motion, t)
                                  for t in times])
        work = self.chain.subdivided(self.levels)
        return _pushed_values(self.motion, work, times, [forms], s_order)[0]


def _contracted(phi: FormField, fields) -> list:
    """phi -| v for each velocity field of `fields`, formed once per run
    of consecutive fields that are one object."""
    forms = []
    for k, v in enumerate(fields):
        forms.append(forms[-1] if k and v is fields[k - 1]
                     else contract(phi, v))
    return forms


def deformation_chain(m: Motion, interval, T: Chain, levels: int = 0,
                      panels: int = 8, gauss_order: int = 5) -> Current:
    return Deformation(m, tuple(interval), T, levels, panels, gauss_order)


def homotopy_residual(m: Motion, interval, T: Chain, phi: FormField,
                      levels: int = 0, panels: int = 8,
                      gauss_order: int = 5) -> float:
    """Residual of the homotopy formula
    (kappa_b# T - kappa_a# T) = bnd(deformation) + deformation of bnd(T):
    the one-rung case of `homotopy_residuals`."""
    return homotopy_residuals(m, interval, T, phi, [panels], levels,
                              gauss_order)[0]


def homotopy_residuals(m: Motion, interval, T: Chain, phi: FormField,
                       panel_counts, levels: int = 0,
                       gauss_order: int = 5) -> list:
    """The residual of the homotopy formula at each count of time panels
    in `panel_counts`, from one stack of pushes: T's subdivision is pushed
    once, at both ends and at every count's Gauss nodes, and bnd(T)'s
    subdivision once at the same nodes.  d(phi), bnd(T), the subdivisions
    and the velocity fields are formed once.  Each residual is summed as
    one deformation chain per term sums it, so it has the bits of
    `homotopy_residual` at its count alone.  All 0.0, without a push,
    when the interval is empty."""
    a, b = interval
    work = T.subdivided(levels)
    m.check_time(b)
    m.check_time(a)
    rules = [gauss_nodes(a, b, panels, gauss_order)
             for panels in panel_counts]
    if a == b or not rules:
        return [0.0] * len(rules)
    nodes = np.concatenate([rule[0] for rule in rules])
    fields = [velocity_field(m, t) for t in nodes]
    times, row = [b, a], [phi, phi]
    # bnd(deformation) acts on phi through d(phi) -| v; this and the
    # integrand on bnd(T) below are `Deformation._values`, stacked
    sweeps = T.degree + 1 <= T.ambient
    if sweeps:
        times += list(nodes)
        row += _contracted(exterior_derivative(phi), fields)
    values, = _pushed_values(m, work, times, [row])
    lhs = values[0] - values[1]
    integrands = [values[2:]] if sweeps else []
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            integrands += _pushed_values(m, bt.subdivided(levels), nodes,
                                         [_contracted(phi, fields)])
    out, lo = [], 0
    for rule in rules:
        hi = lo + len(rule[0])
        rhs = 0.0
        for integrand in integrands:
            rhs += gauss_sum(integrand[lo:hi], rule)
        out.append(abs(lhs - rhs))
        lo = hi
    return out


# ----------------------------------------------------------------------
# the transport derivative and its oracles
# ----------------------------------------------------------------------

def _transport_terms(m: Motion, T: Chain, work: Chain, psi: Cochain,
                     tau: float, levels: int):
    """(psi_dot(kappa_tau# T), the transport derivative), the second
    summed from the first as `transport_derivative` states it, on `work`
    = T.subdivided(levels)."""
    m.check_time(tau)
    v = velocity_field(m, tau)
    phi = psi.form_at(tau)
    forms = [[psi.dot_at(tau)]]
    # bnd(v wedge pushed) acts on phi through d(phi) -| v
    if T.degree + 1 <= T.ambient:
        forms.append([contract(exterior_derivative(phi), v)])
    values = _pushed_values(m, work, [tau], forms)
    total = values[0][0]
    if len(values) > 1:
        total += values[1][0]
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            total += _pushed_values(m, bt.subdivided(levels), [tau],
                                    [[contract(phi, v)]])[0][0]
    return values[0][0], total


def transport_derivative(m: Motion, T: Chain, psi: Cochain, tau: float,
                         levels: int = 0) -> float:
    """d/dt of psi(t)(kappa_t# T) at tau:
    psi_dot(kappa_tau# T) + psi(bnd(v wedge kappa_tau# T)
                                + v wedge kappa_tau#(bnd T)).
    The wedge term vanishes identically when T has top degree.  Both
    terms on kappa_tau# T come from one push (`_pushed_values`), and so
    does the term on the pushed boundary."""
    return _transport_terms(m, T, T.subdivided(levels), psi, tau,
                            levels)[1]


def transport_derivative_fd(m: Motion, T: Chain, psi: Cochain, tau: float,
                            eps: float, levels: int = 0,
                            one_sided: bool = False) -> float:
    """Finite-difference oracle for the transport derivative: the
    difference of psi(t)(kappa_t# T) at tau + eps and at tau (one-sided)
    or tau - eps, over its step.  The one-rung case of
    `transport_derivative_fd_ladder`."""
    return transport_derivative_fd_ladder(m, T, psi, tau, [eps], levels,
                                          one_sided)[0]


def transport_derivative_fd_ladder(m: Motion, T: Chain, psi: Cochain,
                                   tau: float, eps_ladder, levels: int = 0,
                                   one_sided: bool = False) -> list:
    """`transport_derivative_fd` at each step of `eps_ladder`, from one
    stack of pushes of T's subdivision at every distinct time tau + eps
    and tau - eps (tau, pushed once, when `one_sided`).  Each quotient has
    the bits of `transport_derivative_fd` at its step alone."""
    pairs = [(tau + eps, tau if one_sided else tau - eps)
             for eps in eps_ladder]
    index = {}
    for pair in pairs:
        for t in pair:
            index.setdefault(t, len(index))
    values, = _pushed_values(m, T.subdivided(levels), list(index),
                             [[psi.form_at(t) for t in index]])
    out = []
    for eps, (ahead, behind) in zip(eps_ladder, pairs):
        diff = values[index[ahead]] - values[index[behind]]
        out.append(diff / eps if one_sided else diff / (2 * eps))
    return out


def classical_reynolds(m: Motion, T: Chain, density: Cochain,
                       tau: float, levels: int = 0):
    """Classical transport theorem for a full-dimensional chain in R^n.

    `density` is a 0-cochain; the transported property is
    density times the volume form.  Returns (lhs, volume_term, flux_term)
    with lhs the transport derivative and the right side split into the
    local-rate volume integral and the boundary flux of density * (v . nu).
    A boundary face degenerate by the rule of `chains._edge_wedges` raises
    a ValueError.
    """
    n = T.ambient
    if T.degree != n:
        raise ValueError("classical transport needs a full-dimensional chain")
    if density.degree != 0:
        raise ValueError("density must be a 0-form")
    vol_index = tuple(range(n))
    psi = Cochain(n, n, {vol_index: density.polys[0]})
    # the volume term is the transport derivative's psi_dot term
    work = T.subdivided(levels)
    volume_term, lhs = _transport_terms(m, T, work, psi, tau, levels)

    # the faces of T's subdivision, mapped as one table; all faces and
    # points at once, the terms summed face by face, point by point, from
    # 0.0
    faces = boundary(work)
    verts = m.images([tau], faces.table)[0][faces.ids]
    mults = faces.mults
    tangents, lengths, degenerate = _edge_wedges(verts)
    if np.any(degenerate):
        raise ValueError("degenerate boundary face in classical_reynolds")
    tangents = tangents / lengths[:, None]
    # the outward normal of a face of unit (n-1)-vector xi,
    # nu_i = (-1)^i xi_{n-1-i}: nu ^ xi = e_0 ^ ... ^ e_{n-1}
    nu = tangents[:, ::-1] * (-1.0) ** np.arange(n)
    pts, wts = simplex_rule(verts)
    pts = pts.reshape(-1, n)
    rho = density.form_at(tau).coefficients_at(pts)[:, 0]
    normal_v = np.matmul(np.repeat(nu, wts.shape[1], axis=0)[:, None, :],
                         velocity_field(m, tau).values_at(pts)[:, :, None])
    terms = (mults[:, None] * wts).ravel() * rho * normal_v[:, 0, 0]
    flux_term = float(np.cumsum(np.concatenate(([0.0], terms)))[-1])
    return lhs, volume_term, flux_term


def continuity_modulus(m: Motion, T: Chain, t: float, eps_list, family,
                       box: Box, levels: int = 0):
    """Dual M-norm estimates of kappa_{t+eps}# T - kappa_t# T over a test
    family, one per epsilon.  The pushes at t and at every t + eps are one
    stack, in chunks of at most `_STACK_SIMPLICES` simplices, evaluated
    once per form of the family.  A ValueError when no form of the family
    has a positive comass seminorm on `box`."""
    work = T.subdivided(levels)
    norms = [seminorm_comass(phi, box) for phi in family]
    if not any(nn > 0 for nn in norms):
        raise ValueError("continuity_modulus: the test family is empty or "
                         "has no form with a positive comass seminorm")
    times = [t] + [t + eps for eps in eps_list]
    values = _pushed_values(m, work, times,
                            [[phi] * len(times) for phi in family])
    return [max(abs(vals[k] - vals[0]) / nn
                for vals, nn in zip(values, norms) if nn > 0)
            for k in range(1, len(times))]


# ----------------------------------------------------------------------
# built-in motion families
# ----------------------------------------------------------------------

# each family's parameters, with their kinds and defaults, as
# `lipschitz._MAP_FAMILIES` states a map family's; make_motion and
# scenario files take no others
_MOTION_FAMILIES = {
    "identity": {},
    "translation": {"velocity": ("vector", lambda n: 0.25 * np.eye(n)[0])},
    "rotation": {"rate": ("number", 1.0)},
    "expansion": {},
    "shear": {"rate": ("number", 0.5)},
    "tent": _TENT,
}


def _affine_maps(kind: str, ambient: int, parameter):
    """The maps of the affine family kappa_t(x) = A_t x + b_t, with (A, b)
    the `_affine_frames` of `kind` at parameter(times): one matmul of the
    stack, each point's the product that `AffineMap` forms at one time."""
    def maps(times, points):
        mats, shifts = _affine_frames(kind, ambient, parameter(times))
        out = np.matmul(mats[:, None], points[None, :, :, None])[..., 0]
        out += shifts[:, None]
        return out

    return maps


def make_motion(name: str, ambient: int = 2, interval=(-1.0, 1.0),
                **params) -> Motion:
    """Named motion families: identity, translation, rotation, expansion,
    shear, tent.  Each is the `make_map` family of the same kind at a
    parameter scaled by time, its maps stated for an array of times, with
    its exact Eulerian velocity.  A ValueError names a bad parameter or
    `interval`."""
    params = _family_params("motion", _MOTION_FAMILIES, name, params, ambient)
    iv = tuple(float(t) for t in interval)
    if not (len(iv) == 2 and -np.inf < iv[0] < iv[1] < np.inf):
        raise ValueError(f"motion parameter 'interval' must be two finite "
                         f"increasing numbers, got {interval!r}")

    if name == "identity":
        # the translation by 0, as `make_map` states it
        zero = VectorField.constant(np.zeros(ambient))
        return Motion(iv, ambient, _affine_maps(
            "translation", ambient, lambda ts: np.zeros((len(ts), ambient))),
            lambda t: zero, name)

    if name == "translation":
        c = np.asarray(params["velocity"], dtype=float)
        vf = VectorField.constant(c)
        return Motion(iv, ambient, _affine_maps(
            "translation", ambient, lambda ts: ts[:, None] * c),
            lambda t: vf, name)

    if name == "rotation":
        w = float(params["rate"])
        x0, x1 = (Polynomial.variable(i, 2) for i in (0, 1))
        vf = VectorField.from_polynomials([(-w) * x1, w * x0])
        return Motion(iv, 2, _affine_maps("rotation", 2, lambda ts: w * ts),
                      lambda t: vf, name)

    if name == "expansion":
        # kappa_t(x) = (1 + t) x; Eulerian velocity y / (1 + t)
        def vfac(t, ambient=ambient):
            return VectorField.from_polynomials(
                [Polynomial.variable(i, ambient) * (1.0 / (1.0 + t))
                 for i in range(ambient)])
        return Motion(iv, ambient, _affine_maps(
            "scaling", ambient, lambda ts: 1.0 + ts), vfac, name)

    if name == "shear":
        s = float(params["rate"])
        x1 = Polynomial.variable(1, ambient)
        comps = [Polynomial.zero(ambient) for _ in range(ambient)]
        comps[0] = s * x1
        vf = VectorField.from_polynomials(comps)
        return Motion(iv, ambient, _affine_maps(
            "shear", ambient, lambda ts: s * ts), lambda t: vf, name)

    # tent: piecewise-linear lift along `axis`, growing linearly in time, a
    # non-smooth Lipschitz motion; its velocity at y is amp times the hat at
    # y's preimage: of y0 if axis != 0, and along axis 0 the hat whose peak
    # has moved to c + s, s = t * amp, which holds while |s| < w
    c = float(params["center"])
    w = float(params["width"])
    amp = float(params["amplitude"])
    axis = int(params["axis"])
    if axis == 0 and abs(amp) * max(abs(iv[0]), abs(iv[1])) >= w:
        raise ValueError(f"motion parameter 'amplitude' of a tent along "
                         f"axis 0 must keep |amplitude * t| below the width "
                         f"{w} on the interval {iv}, got {amp}")

    def field(ys, s=0.0):
        out = np.zeros(ys.shape)
        if axis:
            out[:, axis] = amp * _tent(ys[:, 0], c, w)
        else:
            u = ys[:, 0] - c
            out[:, 0] = amp * np.maximum(0.0, np.minimum(
                (u + w) / (w + s), (w - u) / (w - s)))
        return out

    vf = VectorField(ambient, func=field)
    return Motion(iv, ambient,
                  lambda ts, x: _tent_lift(x, ts * amp, c, w, axis),
                  lambda t: vf if axis else VectorField(
                      ambient, func=lambda ys: field(ys, t * amp)), name)
