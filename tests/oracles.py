"""Reference computations the tests compare the library against: an
independent transport-derivative pipeline, a Lagrangian FD pipeline, a
Richardson error estimate, interval quadrature with an error estimate, the
product-current evaluation, the strong-Lipschitz distance, kernel
mollification, the per-point evaluators of the sampled contraction,
exterior derivative and pullback, and the tuple and dict loops that build
permutation signs, the wedge sign table, the Kuhn children and the
Freudenthal complex one simplex at a time.  They are not part of the
library's API."""

from dataclasses import dataclass
from itertools import combinations, permutations, product
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
        return evaluate(T, pullback(psi.form_at(t), lm))

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
                        n_pairs: int = 20_000) -> float:
    """Strong-Lipschitz seminorm of f - g on K:
    max(sup |f-g|, Lip(f-g))."""
    diff = LipMap(f.ambient,
                  lambda x, a=f, b=g: a.values_at(x) - b.values_at(x))
    sup = max(float(np.linalg.norm(diff(x))) for x in box.grid())
    lip, _ = lipschitz_constant(diff, box, n_pairs)
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
        vals = np.stack([f.values_at(x + dx) for dx in nodes])
        return np.tensordot(wts, vals, axes=1)

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


# ----------------------------------------------------------------------
# sign tables, Kuhn children and the Freudenthal complex on tuples and
# dicts, one simplex at a time
# ----------------------------------------------------------------------

def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), by its cycles: +1 if
    even, -1 if odd."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def merge_sign(a: tuple, b: tuple):
    """Sorted union of two disjoint increasing tuples and the merge sign,
    the parity of the inversions of a + b; (None, 0) when they
    intersect."""
    if set(a) & set(b):
        return None, 0
    inversions = sum(1 for x in a for y in b if x > y)
    return tuple(sorted(a + b)), -1 if inversions % 2 else 1


def wedge_terms(p: int, q: int, n: int) -> tuple:
    """(index in a, index in b, output rank, sign) of every term of a
    p-vector wedge a q-vector over R^n that alternation keeps, looping
    over the indices of a, then of b."""
    ranks = {idx: k for k, idx in enumerate(multi_indices(p + q, n))}
    terms = []
    for i, la in enumerate(multi_indices(p, n)):
        for j, lb in enumerate(multi_indices(q, n)):
            merged, sign = merge_sign(la, lb)
            if sign:
                terms.append((i, j, ranks[merged], sign))
    return tuple(terms)


def kuhn_children(dim: int, k: int = 2) -> tuple:
    """The Kuhn simplices of the k-scaled path simplex
    k >= y_1 >= ... >= y_dim >= 0, walking every cell, then every
    permutation: (vertex tuples in y-coordinates, path sign) pairs."""
    children = []
    for g in product(range(k), repeat=dim):
        for perm in permutations(range(dim)):
            cur = list(g)
            verts = [tuple(cur)]
            for j in perm:
                cur[j] += 1
                verts.append(tuple(cur))
            if all(all(v[i] >= v[i + 1] for i in range(dim - 1))
                   and v[0] <= k and v[-1] >= 0 for v in verts):
                children.append((tuple(verts), perm_sign(perm)))
    assert len(children) == k ** dim
    return tuple(children)


def loop_freudenthal(lower, upper, resolution: int):
    """The Freudenthal complex of a box as its vertices (row-major grid),
    simplices per degree (lists of sorted tuples: the top ones in
    cell-then-permutation order, the faces in lexicographic order) and
    the top orientations keyed by simplex, each the path sign times the
    sign of sorting the path's vertex ids."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n, m = lower.size, resolution
    axes = [np.linspace(lower[i], upper[i], m + 1) for i in range(n)]

    def vid(g):
        out = 0
        for gi in g:
            out = out * (m + 1) + gi
        return out

    verts = np.array([[axes[i][g[i]] for i in range(n)]
                      for g in product(range(m + 1), repeat=n)])
    tops, orientation = [], {}
    for cell in product(range(m), repeat=n):
        for perm in permutations(range(n)):
            g = list(cell)
            ids = [vid(g)]
            for j in perm:
                g[j] += 1
                ids.append(vid(g))
            order = sorted(range(len(ids)), key=lambda i: ids[i])
            key = tuple(sorted(ids))
            tops.append(key)
            orientation[key] = perm_sign(perm) * perm_sign(order)
    simplices = {n: tops}
    for r in range(n - 1, -1, -1):
        simplices[r] = sorted({f for s in simplices[r + 1]
                               for f in combinations(s, r + 1)})
    return verts, simplices, {n: orientation}


def loop_boundary_matrix(simplices: dict, r: int) -> np.ndarray:
    """Signed incidence of the (r-1)-faces against the r-simplices, filled
    one face of one simplex at a time."""
    rows = {s: k for k, s in enumerate(simplices[r - 1])}
    mat = np.zeros((len(simplices[r - 1]), len(simplices[r])))
    for j, s in enumerate(simplices[r]):
        for i in range(r + 1):
            mat[rows[s[:i] + s[i + 1:]], j] = -1.0 if i % 2 else 1.0
    return mat
