"""Quadrature on simplices and intervals, plus uniform simplex subdivision.

Simplex rules are Grundmann-Moller symmetric rules of odd polynomial
exactness degree 2s+1; interval integration uses composite Gauss-Legendre
panels with adaptive splitting.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial

import numpy as np

from .exterior import perm_sign

__all__ = [
    "grundmann_moller",
    "simplex_rule",
    "simplex_volume",
    "simplex_volumes",
    "integrate_interval",
    "adaptive_interval",
    "subdivide_barycentric",
    "subdivide_simplices",
]


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def grundmann_moller(dim: int, s: int):
    """Grundmann-Moller rule on the standard dim-simplex, degree 2s+1.

    Returns (points, weights) in barycentric coordinates (dim+1 columns);
    weights sum to 1 (reference measure normalized to the simplex volume).
    """
    d = 2 * s + 1
    n = dim
    pts, wts = [], []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = ((-1) ** i * 2 ** (-2 * s) * denom ** d
             / (factorial(i) * factorial(d + n - i)))
        for beta in _compositions(s - i, n + 1):
            pts.append([(2 * b + 1) / denom for b in beta])
            wts.append(w)
    pts = np.array(pts)
    wts = np.array(wts)
    # normalize to unit total weight; the classical rule carries the
    # reference-volume factor which we keep separate
    wts = wts / wts.sum()
    return pts, wts


def simplex_volumes(vertices: np.ndarray) -> np.ndarray:
    """r-volumes of a stack of simplices, shape (N, r+1, n) -> (N,), by
    the Gram determinant of each simplex's edges from its first vertex."""
    v = np.asarray(vertices, dtype=float)
    r = v.shape[1] - 1
    if r == 0:
        return np.ones(v.shape[0])
    edges = v[:, 1:] - v[:, :1]
    det = np.linalg.det(np.matmul(edges, edges.transpose(0, 2, 1)))
    return np.sqrt(np.where(det < 0.0, 0.0, det)) / factorial(r)


def simplex_volume(vertices: np.ndarray) -> float:
    """r-volume of a simplex with r+1 vertices in R^n (Gram determinant)."""
    v = np.asarray(vertices, dtype=float)
    return float(simplex_volumes(v[None])[0])


def simplex_rule(vertices: np.ndarray, s: int = 2):
    """Quadrature points and weights on a geometric simplex.

    Weights sum to the simplex r-volume; exact for polynomials of
    degree <= 2s+1.
    """
    v = np.asarray(vertices, dtype=float)
    r = v.shape[0] - 1
    if r == 0:
        return v.copy(), np.array([1.0])
    bary, w = grundmann_moller(r, s)
    pts = bary @ v
    return pts, w * simplex_volume(v)


# ----------------------------------------------------------------------
# interval quadrature
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def integrate_interval(f, a: float, b: float, panels: int = 4,
                       order: int = 5) -> float:
    """Composite Gauss-Legendre quadrature of a scalar function."""
    if a == b:
        return 0.0
    xs, ws = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * sum(w * f(mid + half * x) for x, w in zip(xs, ws))
    return total


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


# ----------------------------------------------------------------------
# uniform (edgewise) subdivision
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kuhn_children(dim: int, k: int = 2):
    """Kuhn-simplex tiling of the k-scaled reference path simplex.

    Reference coordinates: k >= y_1 >= ... >= y_dim >= 0.  Each child is a
    (vertex list in y-coordinates, orientation sign) pair; there are k^dim
    children, each congruent to the reference simplex scaled by 1.
    """
    if dim == 0:
        return (((np.zeros((1, 0)),), 1),)
    children = []
    for g in product(range(k), repeat=dim):
        base = np.array(g, dtype=float)
        for perm in permutations(range(dim)):
            verts = [base.copy()]
            ok = True
            cur = base.copy()
            for j in perm:
                cur = cur.copy()
                cur[j] += 1.0
                verts.append(cur)
            arr = np.array(verts)
            # inside the path simplex: k >= y_1 >= ... >= y_dim >= 0
            for vtx in arr:
                if vtx[0] > k + 1e-9 or vtx[-1] < -1e-9:
                    ok = False
                    break
                if any(vtx[i] < vtx[i + 1] - 1e-9 for i in range(dim - 1)):
                    ok = False
                    break
            if not ok:
                continue
            # permutation parity gives the orientation relative to the parent
            sign = perm_sign(perm)
            children.append((tuple(map(tuple, arr)), sign))
    assert len(children) == k ** dim
    return tuple(children)


def subdivide_barycentric(vertices: np.ndarray, k: int = 2):
    """Split a geometric simplex into k^r congruent children.

    Yields (child_vertices, orientation_sign) with sign relative to the
    parent's vertex order.
    """
    v = np.asarray(vertices, dtype=float)
    r = v.shape[0] - 1
    if r == 0:
        yield v.copy(), 1
        return
    # affine chart: y in path simplex (k >= y_1 >= ... >= y_r >= 0) maps to
    # v0 + sum (y_i / k) (v_i - v_{i-1}); path vertices hit the parent's
    edges = np.array([v[i + 1] - v[i] for i in range(r)])
    for yverts, sign in _kuhn_children(r, k):
        y = np.array(yverts)
        child = v[0] + (y / k) @ edges
        yield child, sign


@lru_cache(maxsize=None)
def _halving_children(dim: int):
    """Children of the k = 2 Kuhn tiling as edge weights, shape
    (2^dim, dim+1, dim): child vertex j of a simplex v is
    v[0] + weights[c, j] @ (v[1:] - v[:-1]).  Plus their signs."""
    kids = _kuhn_children(dim, 2)
    weights = np.array([yverts for yverts, _ in kids]) / 2
    weights.flags.writeable = False
    return weights, np.array([sign for _, sign in kids])


def subdivide_simplices(vertices: np.ndarray, signs, levels: int = 1):
    """`levels` rounds of subdivide_barycentric (k = 2) on a stack of
    simplices, shape (N, r+1, n), with their orientation signs (N,).

    Returns the children, shape (N 2^(r levels), r+1, n), and their signs
    (parent sign times child sign).  The children of a parent are
    consecutive, in subdivide_barycentric's order, and their coordinates
    equal its output bit for bit.
    """
    v = np.asarray(vertices, dtype=float)
    signs = np.asarray(signs)
    r, n = v.shape[1] - 1, v.shape[2]
    if r == 0:
        return v, signs
    weights, child_signs = _halving_children(r)
    for _ in range(levels):
        edges = v[:, 1:] - v[:, :-1]
        v = (v[:, None, :1] + np.matmul(weights, edges[:, None])).reshape(
            -1, r + 1, n)
        signs = (signs[:, None] * child_signs).ravel()
    return v, signs
