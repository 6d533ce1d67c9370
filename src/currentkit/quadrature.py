"""Quadrature on simplices and intervals, plus uniform simplex subdivision.

Rules on simplices are Grundmann-Moller symmetric rules of odd polynomial
exactness degree 2s+1; interval integration uses composite Gauss-Legendre
panels.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, log10

import numpy as np

from .exterior import sort_parity

__all__ = [
    "grundmann_moller",
    "simplex_rule",
    "simplex_volumes",
    "integrate_interval",
    "subdivide_barycentric",
]


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None, typed=True)  # typed: True is not the order 1
def grundmann_moller(dim: int, s: int):
    """Grundmann-Moller rule on the standard dim-simplex, degree 2s+1.

    Returns (points, weights) in barycentric coordinates (dim+1 columns);
    weights sum to 1 (reference measure normalized to the simplex volume).
    The 0-simplex is a point: one node of weight 1.  The arrays are cached,
    so they are read-only.  A ValueError unless s is a whole number >= 0.
    """
    s = _whole_number("quadrature order", s, 0)
    if dim == 0:
        return _read_only(np.ones((1, 1)), np.ones(1))
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
    return _read_only(pts, wts)


def simplex_volumes(vertices: np.ndarray) -> np.ndarray:
    """r-volumes of a stack of simplices, shape (N, r+1, n) -> (N,), by
    the Gram determinant of each simplex's edges from its first vertex.
    The transposed edges are a contiguous copy: the product then takes the
    general kernel, not the symmetric one a view of the same buffer
    selects, at less than half the cost and with the same bits."""
    v = np.asarray(vertices, dtype=float)
    r = v.shape[1] - 1
    if r == 0:
        return np.ones(v.shape[0])
    edges = v[:, 1:] - v[:, :1]
    det = np.linalg.det(np.matmul(
        edges, np.ascontiguousarray(edges.transpose(0, 2, 1))))
    return np.sqrt(np.where(det < 0.0, 0.0, det)) / factorial(r)


def simplex_rule(vertices: np.ndarray, s: int = 2):
    """Quadrature points and weights on a stack of geometric simplices
    (N, r+1, n): points (N, q, n) and weights (N, q), which sum to each
    simplex's r-volume.  Exact for polynomials of degree <= 2s+1.  A
    ValueError unless the order s is a whole number >= 0."""
    v = np.asarray(vertices, dtype=float)
    bary, w = grundmann_moller(v.shape[1] - 1, s)
    return np.matmul(bary, v), w * simplex_volumes(v)[:, None]


# ----------------------------------------------------------------------
# interval quadrature
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(order))


def _shown(value) -> str:
    """repr(value) for an error message, but an int of more digits than
    Python writes out (`sys.get_int_max_str_digits()`), alone or inside a
    list, tuple or array, by its count of digits."""
    try:
        return repr(value)
    except ValueError:
        pass
    if isinstance(value, int):
        size = abs(value)
        # log10 is off by at most one next to a power of ten
        digits = int(log10(size)) + 1
        digits += (size >= 10 ** digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
    inner = ", ".join(map(_shown, value))
    return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"


def _whole_number(name: str, value, low: int) -> int:
    """`value` as an int; a ValueError naming `name` unless it is an
    integer (a Python or numpy integer, not a bool) of at least `low`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be a whole number >= {low}, got "
                         f"{_shown(value)}")
    return int(value)


# the most simplices or grid points that one subdivision, complex or box
# grid may build; a square at 7 levels of subdivision has 32 768
_SIZE_CAP = 2 ** 22


def _check_size(name: str, value, factors, what: str):
    """A ValueError naming the parameter `name` when its `value` asks for
    more than `_SIZE_CAP` `what`, the product of the whole numbers
    `factors`.  The product is taken in integers and stops at the first
    factor that passes the cap, so that a huge `value` costs nothing."""
    count = 1
    for factor in factors:
        count *= factor
        if count > _SIZE_CAP:
            raise ValueError(f"{name} {_shown(value)} asks for more than "
                             f"{_SIZE_CAP} {what}")


def gauss_nodes(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre quadrature on [a, b] as a rule that
    `gauss_sum` takes whole: its nodes, panel by panel the times
    mid + half * x of each of `panels` equal panels (panels * order,);
    each panel's half-width (panels,); and `order`.  A ValueError unless
    `panels` and `order` are whole numbers >= 1."""
    panels = _whole_number("panels", panels, 1)
    order = _whole_number("order", order, 1)
    xs, _ = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * xs).ravel(), half, order


def gauss_sum(values, rule) -> float:
    """The `rule` of `gauss_nodes` applied to the `values` at its nodes:
    each panel adds its half-width times the weighted sum of its values
    to a total that starts at 0.0.  A ValueError unless there is one
    value per node."""
    nodes, half, order = rule
    if len(values) != len(nodes):
        raise ValueError(f"{len(values)} values for {len(nodes)} "
                         f"quadrature nodes")
    _, ws = _leggauss(order)
    total = 0.0
    for k, h in enumerate(half):
        total += h * sum(w * f for w, f in
                         zip(ws, values[k * order:(k + 1) * order]))
    return total


def integrate_interval(f, a: float, b: float, panels: int = 4,
                       order: int = 5) -> float:
    """Composite Gauss-Legendre quadrature of a scalar function on [a, b],
    called once per node: `gauss_sum` over the nodes of `gauss_nodes`.
    0.0 when a == b, without a call; a ValueError unless `panels` and
    `order` are whole numbers >= 1."""
    rule = gauss_nodes(a, b, panels, order)
    return gauss_sum([f(t) for t in rule[0]], rule) if a != b else 0.0


# ----------------------------------------------------------------------
# uniform (edgewise) subdivision
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def kuhn_simplices(dim: int, cells: int):
    """The Kuhn triangulation of the grid {0, ..., cells}^dim: each simplex
    is a path from the lower corner of a cell that adds 1 to coordinates
    perm[0], perm[1], ... in turn.  Returns the grid coordinates of the
    path vertices (cells^dim * dim!, dim+1, dim), cells in row-major order
    and, within a cell, permutations in `itertools.permutations` order;
    and each path's orientation, the parity of its permutation."""
    perms = np.array(list(permutations(range(dim))),
                     dtype=np.intp).reshape(-1, dim)
    steps = np.zeros((len(perms), dim + 1, dim), dtype=np.intp)
    for k in range(dim):
        steps[np.arange(len(perms)), k + 1:, perms[:, k]] = 1
    corners = np.indices((cells,) * dim).reshape(dim, -1).T
    coords = (corners[:, None, None, :] + steps).reshape(-1, dim + 1, dim)
    signs = np.tile(sort_parity(perms)[1], len(corners))
    return _read_only(coords, signs)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _kuhn_children(dim: int):
    """Kuhn-simplex tiling of the doubled reference path simplex
    2 >= y_1 >= ... >= y_dim >= 0: the simplices of `kuhn_simplices(dim,
    2)` inside it, in that order.  Returns their vertices in
    y-coordinates (2^dim, dim+1, dim), each child congruent to the
    reference simplex, and their orientations relative to the parent."""
    coords, signs = kuhn_simplices(dim, 2)
    inside = np.all(coords[..., :-1] >= coords[..., 1:], axis=(1, 2))
    return _read_only(coords[inside], signs[inside])


def subdivide_barycentric(vertices: np.ndarray):
    """Split a geometric simplex into 2^r congruent children.

    Yields (child_vertices, orientation_sign) with sign relative to the
    parent's vertex order.
    """
    v = np.asarray(vertices, dtype=float)
    r = v.shape[0] - 1
    if r == 0:
        yield v.copy(), 1
        return
    # affine chart: y in path simplex (2 >= y_1 >= ... >= y_r >= 0) maps to
    # v0 + sum (y_i / 2) (v_i - v_{i-1}); path vertices hit the parent's
    edges = np.array([v[i + 1] - v[i] for i in range(r)])
    ys, signs = _kuhn_children(r)
    for y, sign in zip(ys, signs.tolist()):
        yield v[0] + (y / 2) @ edges, sign


@lru_cache(maxsize=None)
def _halving_indices(dim: int):
    """The children of `subdivide_barycentric` on vertex indices.

    A simplex's vertices 0..dim are followed by the midpoints of its edges
    (p, q), p < q, in lexicographic order: `edges` (C(dim+1, 2), 2).
    `children` (2^dim, dim+1) lists each child's vertices as positions in
    that extended list; plus the children's signs (2^dim,), all three
    cached read-only."""
    y, signs = _kuhn_children(dim)
    # child vertex y is the midpoint of v[p] and v[q], or v[p] if p == q
    p, q = (y == 2).sum(axis=2), (y >= 1).sum(axis=2)
    edges = np.array(list(combinations(range(dim + 1), 2)),
                     dtype=np.intp).reshape(-1, 2)
    position = np.diag(np.arange(dim + 1))
    position[edges[:, 0], edges[:, 1]] = dim + 1 + np.arange(len(edges))
    return _read_only(edges, position[p, q], signs)
