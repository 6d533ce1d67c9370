"""Reference computations the tests compare the library against: an
independent transport-derivative pipeline, a Lagrangian FD pipeline, a
Richardson error estimate, interval quadrature with an error estimate, the
product-current evaluation, the strong-Lipschitz distance, kernel
mollification, and the per-point evaluators of the sampled contraction,
exterior derivative and pullback.  They are not part of the library's
API."""

from dataclasses import dataclass
from math import comb

import numpy as np

from currentkit.chains import Chain, _leaf_evaluate, evaluate
from currentkit.exterior import multi_indices
from currentkit.forms import (AffineMap, Box, FormField, VectorField,
                              lie_derivative, pullback, time_slice_contract)
from currentkit.lipschitz import LipMap, lipschitz_constant
from currentkit.motion import Cochain, Motion, velocity_field
from currentkit.quadrature import integrate_interval


def transport_derivative_betounes(m: Motion, T: Chain, psi: Cochain,
                                  tau: float, levels: int = 0) -> float:
    """Equivalent smooth-data form: evaluate(kappa_tau# T,
    psi_dot + L_v psi); used as an independent pipeline."""
    pushed = m.push(T, tau, levels)
    v = velocity_field(m, tau)
    form = psi.dot_at(tau) + lie_derivative(psi.form_at(tau), v)
    return evaluate(pushed, form)


def transport_derivative_lagrangian_fd(m: Motion, T: Chain, psi: Cochain,
                                       tau: float, eps: float) -> float:
    """Lagrangian pipeline: FD of t -> T(kappa_t^# psi(t)) using exact
    affine pullbacks of the representing form."""
    def pulled(t):
        lm = m.map_at(t)
        amap = getattr(lm, "func", None)
        if isinstance(amap, AffineMap):
            return evaluate(T, pullback(psi.form_at(t), amap))
        return evaluate(T, pullback(psi.form_at(t), lm,
                                    source_dim=T.ambient))

    return (pulled(tau + eps) - pulled(tau - eps)) / (2 * eps)


def evaluate_with_error(T: Chain, phi: FormField, s_order: int = 2,
                        subdivision: int = 1):
    """Evaluation plus a Richardson-style error estimate from one extra
    subdivision level."""
    coarse = evaluate(T.subdivided(subdivision), phi, s_order)
    fine = evaluate(T.subdivided(subdivision + 1), phi, s_order)
    return fine, abs(fine - coarse)


def adaptive_interval(f, a: float, b: float, tol: float = 1e-9,
                      order: int = 5, max_panels: int = 256):
    """Panel-doubling Gauss quadrature; returns (value, error_estimate)."""
    panels = 2
    prev = integrate_interval(f, a, b, panels, order)
    while panels < max_panels:
        panels *= 2
        cur = integrate_interval(f, a, b, panels, order)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return cur, err
        prev = cur
    return prev, abs(cur - prev) if panels > 2 else 0.0


def interval_product_evaluate(interval, T: Chain, omega: FormField,
                              panels: int = 8, s_order: int = 2) -> float:
    """Evaluate ([a,b] x T) against a form on R x R^n: the time integral of
    T applied to the e_t-contraction of the time slice."""
    a, b = float(interval[0]), float(interval[1])
    if omega.ambient != T.ambient + 1 or omega.degree != T.degree + 1:
        raise ValueError("product form must live on R x R^n one degree up")
    if a == b:
        return 0.0

    def integrand(t):
        return _leaf_evaluate(T, time_slice_contract(omega, t), s_order)

    return integrate_interval(integrand, a, b, panels=panels)


def strong_lip_distance(f: LipMap, g: LipMap, box: Box,
                        n_pairs: int = 20_000, seed: int = 0) -> float:
    """Strong-Lipschitz seminorm of f - g on K:
    max(sup |f-g|, Lip(f-g))."""
    diff = LipMap(f.ambient, lambda x, a=f, b=g: a(x) - b(x))
    sup = max(float(np.linalg.norm(diff(x))) for x in box.grid())
    lip, _ = lipschitz_constant(diff, box, n_pairs, seed)
    return max(sup, lip)


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass smoothing kernel of radius rho."""

    rho: float
    kind: str = "gaussian"
    order: int = 7

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("kernel radius must be positive")
        if self.kind not in ("gaussian", "truncated"):
            raise ValueError(f"unknown kernel {self.kind}")

    def nodes_weights(self, dim: int):
        """Tensor quadrature for the kernel; weights sum to 1 to 1e-10."""
        if self.kind == "gaussian":
            x, w = np.polynomial.hermite_e.hermegauss(self.order)
            w = w / w.sum()
            x = x * self.rho
        else:
            x, w = np.polynomial.legendre.leggauss(self.order)
            # bump-free truncated kernel: cosine taper on [-rho, rho]
            dens = (1.0 + np.cos(np.pi * x)) / 2.0
            w = w * dens
            w = w / w.sum()
            x = x * self.rho
        nodes = np.stack(np.meshgrid(*([x] * dim), indexing="ij"),
                         axis=-1).reshape(-1, dim)
        wts = np.prod(np.stack(np.meshgrid(*([w] * dim), indexing="ij"),
                               axis=-1).reshape(-1, dim), axis=1)
        return nodes, wts


def mollify(f: LipMap, rho: float, kind: str = "gaussian",
            order: int = 7) -> LipMap:
    """Smooth approximation by convolution against a unit-mass kernel.

    Linear (in particular affine) maps are fixed points up to quadrature
    tolerance; the Lipschitz constant never increases."""
    kernel = Mollifier(rho, kind, order)
    nodes, wts = kernel.nodes_weights(f.ambient)

    def smoothed(x, f=f, nodes=nodes, wts=wts):
        x = np.asarray(x, dtype=float)
        vals = np.stack([f(x + dx) for dx in nodes])
        return wts @ vals

    return LipMap(f.ambient, smoothed, name=f"mollified({f.name},{rho:g})")


# ----------------------------------------------------------------------
# per-point evaluators of the sampled backend, one point x at a time,
# each with its own basis-sign rule
# ----------------------------------------------------------------------

def contract_at(phi: FormField, v: VectorField, x) -> np.ndarray:
    """Coefficients of phi -| v at x: the interior-product loop, skipping
    zero coefficients and zero vector components."""
    r, n = phi.degree, phi.ambient
    coeffs, vec = phi(x).coefficients, v(x)
    ranks = {idx: k for k, idx in enumerate(multi_indices(r - 1, n))}
    out = np.zeros(comb(n, r - 1))
    for k, lam in enumerate(multi_indices(r, n)):
        if coeffs[k] == 0.0:
            continue
        for pos, i in enumerate(lam):
            if vec[i] == 0.0:
                continue
            sign = -1.0 if pos % 2 else 1.0
            out[ranks[lam[:pos] + lam[pos + 1:]]] += sign * coeffs[k] * vec[i]
    return out


def derivative_at(phi: FormField, x) -> np.ndarray:
    """Coefficients of the central-difference d(phi) at x, with step
    phi.h: for each j, then each lam, dx^j wedge dx^lam is (-1)^pos times
    the sorted index, pos the number of entries of lam below j."""
    r, n, h = phi.degree, phi.ambient, phi.h
    ranks = {idx: k for k, idx in enumerate(multi_indices(r + 1, n))}
    out = np.zeros(comb(n, r + 1))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        dcoef = (phi(x + e).coefficients - phi(x - e).coefficients) / (2 * h)
        for k, lam in enumerate(multi_indices(r, n)):
            if j in lam:
                continue
            pos = sum(1 for i in lam if i < j)
            out[ranks[tuple(sorted((j,) + lam))]] += (
                (-1 if pos % 2 else 1) * dcoef[k])
    return out


def pullback_at(phi: FormField, f, x, source_dim: int, jacobian=None,
                h: float = 1e-6) -> np.ndarray:
    """Coefficients of f^#(phi) at x: the r-minors of the Jacobian of f
    (given, or by central differences with step h) against phi(f(x))."""
    r = phi.degree
    x = np.asarray(x, dtype=float)
    if jacobian is not None:
        jac = np.asarray(jacobian(x), dtype=float)
    else:
        cols = []
        for j in range(source_dim):
            e = np.zeros(source_dim)
            e[j] = h
            cols.append((np.asarray(f(x + e), float)
                         - np.asarray(f(x - e), float)) / (2 * h))
        jac = np.stack(cols, axis=-1)
    cov = phi(f(x)).coefficients

    def minor(rows, cols):
        if len(rows) == 0:
            return 1.0
        return float(np.linalg.det(jac[np.ix_(rows, cols)]))

    return np.array([
        sum(cov[k] * minor(lam, mu)
            for k, lam in enumerate(multi_indices(r, phi.ambient)))
        for mu in multi_indices(r, source_dim)])
