"""Motions as curves of Lipschitz embeddings: Eulerian velocity fields,
the Reynolds operator, the homotopy formula's residual, and the
transport derivative with its finite-difference oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused `evaluate` stays motion.evaluate, which perfbench's tests read
from .chains import (Boundary, Chain, Current, Sum, VWedge,
                     _check_forms, _edge_wedges, boundary, evaluate,
                     evaluate_copies, simplex_geometry)
from .forms import (Box, Cochain, FormField, VectorField, contract,
                    exterior_derivative, seminorm_comass)
from .lipschitz import LipMap, pushforward_chain
from .polynomial import Polynomial, _is_finite, _is_real, _real_array
from .quadrature import _shown, gauss_nodes, gauss_sum, simplex_rule

__all__ = [
    "Motion",
    "make_motion",
    "velocity_field",
    "reynolds_operator",
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


def _pushed_values(m: Motion, work: Chain, times, form_rows) -> list:
    """evaluate(m.push(work, t_k), row[k]) for every time t_k and
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
            pushed=True)
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
    parts = []
    if T.degree >= 1:
        parts.append(VWedge(v, Boundary(T)))
    if T.degree + 1 <= T.ambient:
        parts.append(Boundary(VWedge(v, T)))
    if not parts:
        raise ValueError("Reynolds operator vanishes identically here")
    return Sum(parts)


def _contracted(phi: FormField, fields) -> list:
    """phi -| v for each velocity field of `fields`, formed once per run
    of consecutive fields that are one object."""
    forms = []
    for k, v in enumerate(fields):
        forms.append(forms[-1] if k and v is fields[k - 1]
                     else contract(phi, v))
    return forms


def homotopy_residual(m: Motion, interval, T: Chain, phi: FormField,
                      levels: int = 0, panels: int = 8,
                      gauss_order: int = 5) -> float:
    """The one-rung case of `homotopy_residuals`."""
    return homotopy_residuals(m, interval, T, phi, [panels], levels,
                              gauss_order)[0]


def homotopy_residuals(m: Motion, interval, T: Chain, phi: FormField,
                       panel_counts, levels: int = 0,
                       gauss_order: int = 5) -> list:
    """The residual of the homotopy formula (Federer 4.1.9)
    kappa_b# T - kappa_a# T = bnd h#([a,b] x T) + h#([a,b] x bnd T)
    against phi on [a, b] = `interval`, at each count of time panels in
    `panel_counts`.  The library's one deformation integrand:
    h#([a,b] x S)(omega) is the time integral of (kappa_t# S)(omega -| v_t)
    by composite Gauss-Legendre quadrature (`gauss_nodes`, `gauss_sum`),
    and bnd h acts on phi through d(phi).  One stack of pushes serves
    every count: T's subdivision is pushed once, at both ends and at every
    count's Gauss nodes, and bnd(T)'s subdivision once at the same nodes;
    d(phi) and the velocity fields are formed once, and bnd(T) and the
    subdivisions once per chain object (`boundary`, `Chain.subdivided`).
    Each residual has the bits of `homotopy_residual` at its count
    alone.  All 0.0, without a push, when the interval is empty."""
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
    # bnd h#([a,b] x T) acts on phi through d(phi) -| v
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

def _transport_terms(m: Motion, T: Chain, psi: Cochain, tau: float,
                     levels: int):
    """(psi_dot(kappa_tau# T), the transport derivative), the second
    summed from the first as `transport_derivative` states it, on
    T.subdivided(levels).  bnd(T) and each subdivision are formed once
    per chain object (`boundary`, `Chain.subdivided`)."""
    m.check_time(tau)
    v = velocity_field(m, tau)
    phi = psi.form_at(tau)
    forms = [[psi.dot_at(tau)]]
    # bnd(v wedge pushed) acts on phi through d(phi) -| v
    if T.degree + 1 <= T.ambient:
        forms.append([contract(exterior_derivative(phi), v)])
    values = _pushed_values(m, T.subdivided(levels), [tau], forms)
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
    return _transport_terms(m, T, psi, tau, levels)[1]


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
    a ValueError.  T's subdivision and its boundary are formed once per
    chain object (`Chain.subdivided`, `boundary`), shared with the
    transport derivative's terms.
    """
    n = T.ambient
    if T.degree != n:
        raise ValueError("classical transport needs a full-dimensional chain")
    if density.degree != 0:
        raise ValueError("density must be a 0-form")
    vol_index = tuple(range(n))
    psi = Cochain(n, n, {vol_index: density.polys[0]})
    # the volume term is the transport derivative's psi_dot term
    volume_term, lhs = _transport_terms(m, T, psi, tau, levels)

    # the faces of T's subdivision, mapped as one table; all faces and
    # points at once, the terms summed face by face, point by point, from
    # 0.0
    faces = boundary(T.subdivided(levels))
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

def _affine(n: int, frames, velocity) -> tuple:
    """The maps and velocity factory of kappa_t(x) = A_t x + b_t in R^n
    with (A (K, n, n), b (K, n)) = frames(times), one matmul of the stack,
    and v_t(y) = L y + c with (L, c) = `velocity`, one field at every
    time, or = velocity(t) when they depend on t."""
    def maps(times, points):
        mats, shifts = frames(times)
        out = np.matmul(mats[:, None], points[None, :, :, None])[..., 0]
        out += shifts[:, None]
        return out

    # component i: row i of L, then c_i, less the zeros `_of` drops
    expos = [*map(tuple, np.eye(n, dtype=int).tolist()), (0,) * n]

    def field(mat, shift):
        return VectorField.from_polynomials(
            [Polynomial._of(n, dict(zip(expos, [*row, c])))
             for row, c in zip(np.asarray(mat).tolist(),
                               np.asarray(shift).tolist())])

    if callable(velocity):
        return maps, lambda t: field(*velocity(t))
    fixed = field(*velocity)
    return maps, lambda t: fixed


def _translation(n: int, interval, velocity):
    c = np.asarray(velocity, dtype=float)
    return _affine(n, lambda ts: (np.broadcast_to(np.eye(n), (len(ts), n, n)),
                                  ts[:, None] * c), (np.zeros((n, n)), c))


def _rotation(n: int, interval, rate):
    if n != 2:
        raise ValueError("rotation family is planar")
    w = float(rate)

    def frames(ts):
        c, s = np.cos(w * ts), np.sin(w * ts)
        return (np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2),
                np.zeros((len(ts), 2)))

    return _affine(n, frames, ([[0.0, -w], [w, 0.0]], np.zeros(2)))


def _expansion(n: int, interval):
    # kappa_t(x) = (1 + t) x; Eulerian velocity y / (1 + t)
    if interval[0] < -1.0 < interval[1]:
        raise ValueError(f"motion parameter 'interval' of an expansion "
                         f"must not have -1 inside it, where the map "
                         f"(1 + t) x is zero; got {interval}")

    def velocity(t):
        if t == -1.0:
            raise ValueError("an expansion has no velocity at t = -1, "
                             "where the map (1 + t) x is zero")
        return np.eye(n) * (1.0 / (1.0 + t)), np.zeros(n)

    return _affine(n, lambda ts: ((1.0 + ts)[:, None, None] * np.eye(n),
                                  np.zeros((len(ts), n))), velocity)


def _shear(n: int, interval, rate):
    if n < 2:
        raise ValueError("shear family needs at least 2 dimensions")
    s = float(rate)
    mat = s * np.outer(*np.eye(n)[:2])  # s e_0 e_1^T

    def frames(ts):
        mats = np.repeat(np.eye(n)[None], len(ts), axis=0)
        mats[:, 0, 1] = s * ts
        return mats, np.zeros((len(ts), n))

    return _affine(n, frames, (mat, np.zeros(n)))


def _tent_motion(n: int, interval, center, width, amplitude, axis):
    # x lifted along `axis` by amp * t times the hat of x_0, a non-smooth
    # Lipschitz motion; its velocity at y is amp times the hat at y's
    # preimage: of y0 if axis != 0, and along axis 0 the hat whose peak
    # has moved to c + s, s = t * amp, which holds while |s| < w
    c, w, amp, axis = float(center), float(width), float(amplitude), int(axis)
    if axis == 0 and abs(amp) * max(abs(interval[0]), abs(interval[1])) >= w:
        raise ValueError(f"motion parameter 'amplitude' of a tent along "
                         f"axis 0 must keep |amplitude * t| below the width "
                         f"{w} on the interval {interval}, got {amp}")

    def hat(u):
        return np.maximum(0.0, 1.0 - np.abs(u - c) / w)

    def maps(ts, x):
        # the lift is added through the (K * m, n) view of the stack
        lift = (ts * amp)[:, None] * hat(x[:, 0])
        out = np.repeat(x[None], len(ts), axis=0)
        out.reshape(-1, n)[:, axis] += lift.ravel()
        return out

    def field(ys, s=0.0):
        out = np.zeros(ys.shape)
        if axis:
            out[:, axis] = amp * hat(ys[:, 0])
        else:
            u = ys[:, 0] - c
            out[:, 0] = amp * np.maximum(0.0, np.minimum(
                (u + w) / (w + s), (w - u) / (w - s)))
        return out

    vf = VectorField(n, func=field)
    return maps, lambda t: vf if axis else VectorField(
        n, func=lambda ys: field(ys, t * amp))


# each kind of family parameter: what a value must be, and the test of
# its array of numbers a (`polynomial._real_array`) in n dimensions
_KINDS = {
    "number": ("a finite number",
               lambda a, n: a.shape == () and np.isfinite(a)),
    "positive": ("a finite positive number",
                 lambda a, n: a.shape == () and 0 < a < np.inf),
    "vector": ("{n} finite numbers",
               lambda a, n: a.shape == (n,) and np.all(np.isfinite(a))),
    "axis": ("an axis in range({n})",
             lambda a, n: a.shape == () and a in range(n)),
}

# each family: its parameters, each with its kind and default (a vector's
# default is a function of the ambient dimension), which make_motion and
# scenario files take and no others; and its statement, which takes the
# ambient dimension, the interval and the parameters in force, keeps the
# family's rules, and gives its maps and velocity factory
_MOTION_FAMILIES = {
    "identity": ({}, lambda n, interval: _translation(n, interval,
                                                      np.zeros(n))),
    "translation": ({"velocity": ("vector", lambda n: 0.25 * np.eye(n)[0])},
                    _translation),
    "rotation": ({"rate": ("number", 1.0)}, _rotation),
    "expansion": ({}, _expansion),
    "shear": ({"rate": ("number", 0.5)}, _shear),
    "tent": ({"center": ("number", 0.5), "width": ("positive", 0.5),
              "amplitude": ("number", 0.3), "axis": ("axis", 1)},
             _tent_motion),
}


def _family_params(name: str, params: dict, ambient: int) -> dict:
    """The parameters in force of the motion family `name`: `params` over
    the family's defaults.  A ValueError unless `name` is a family of
    `_MOTION_FAMILIES`, every item of `params` one of its parameters and
    every parameter in force of its kind in `ambient` dimensions,
    defaults too."""
    if not isinstance(name, str) or name not in _MOTION_FAMILIES:
        raise ValueError(f"unknown motion family: {name}")
    takes = _MOTION_FAMILIES[name][0]
    for key in params:
        if key not in takes:
            raise ValueError(f"motion family {name!r} has no parameter "
                             f"{key!r}; it takes {list(takes)}")
    out = {}
    for key, (kind, default) in takes.items():
        if key in params:
            value = params[key]
        else:
            value = default(ambient) if callable(default) else default
        text, test = _KINDS[kind]
        try:
            ok = test(_real_array(value), ambient)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"motion parameter {key!r} of family {name!r} "
                             f"must be {text.format(n=ambient)}, got "
                             f"{_shown(value)}")
        out[key] = value
    return out


def make_motion(name: str, ambient: int = 2, interval=(-1.0, 1.0),
                **params) -> Motion:
    """The motion family `name` of `_MOTION_FAMILIES` over `interval`, as
    its entry there states it; a named map is its family's `map_at(t)`.
    A ValueError names a bad parameter (`_family_params`), `interval`, or
    a rule of the family."""
    params = _family_params(name, params, ambient)
    iv = tuple(interval) if isinstance(interval, (list, tuple,
                                                   np.ndarray)) else ()
    if not (len(iv) == 2 and all(map(_is_real, iv))
            and all(map(_is_finite, iv)) and iv[0] < iv[1]):
        raise ValueError(f"motion parameter 'interval' must be two finite "
                         f"increasing numbers, got {_shown(interval)}")
    iv = (float(iv[0]), float(iv[1]))
    maps, velocity = _MOTION_FAMILIES[name][1](ambient, iv, **params)
    return Motion(iv, ambient, maps, velocity, name)
