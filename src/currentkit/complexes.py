"""Simplicial complexes hosting chains for the flat-norm linear program.

The default builder is the Freudenthal/Kuhn triangulation of a box, which
is consistently orientable and reproducible at any resolution.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from .chains import Chain, lex_ranks, sort_parity
from .exterior import perm_sign
from .quadrature import simplex_volumes

__all__ = ["SimplicialComplex", "freudenthal_complex"]

_LATTICE_TOL = 1e-6


class SimplicialComplex:
    """Vertex table plus sorted-index simplices per degree.

    Reference orientation of every simplex is its sorted vertex order;
    `orientation` stores, for full-dimensional simplices, the sign of the
    sorted order relative to a globally positive orientation.  A complex
    whose vertices are a box's grid, row-major, carries the grid as
    `lattice`, (lower corner, cell widths, cells per axis).
    """

    def __init__(self, vertices: np.ndarray, top_simplices, top_orientations,
                 lattice=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.lattice = lattice
        self.dim = len(top_simplices[0]) - 1 if top_simplices else 0
        self.simplices = {self.dim: [tuple(sorted(s)) for s in top_simplices]}
        self.orientation = {
            self.dim: {tuple(sorted(s)): o
                       for s, o in zip(top_simplices, top_orientations)}
        }
        for r in range(self.dim - 1, -1, -1):
            faces = set()
            for s in self.simplices[r + 1]:
                for f in combinations(s, r + 1):
                    faces.add(f)
            self.simplices[r] = sorted(faces)
        self._rank = {
            r: {s: k for k, s in enumerate(self.simplices[r])}
            for r in self.simplices
        }

    def n_simplices(self, r: int) -> int:
        return len(self.simplices.get(r, []))

    def _index_array(self, r: int) -> np.ndarray:
        """The r-simplices as rows of sorted vertex indices, (count, r+1);
        none above the complex's dimension."""
        return np.array(self.simplices.get(r, []),
                        dtype=np.intp).reshape(-1, r + 1)

    def volumes(self, r: int) -> np.ndarray:
        return simplex_volumes(self.vertices[self._index_array(r)])

    def boundary_matrix(self, r: int) -> np.ndarray:
        """Signed incidence of (r-1)-faces (rows) against r-simplices
        (columns), in the sorted-order reference orientation."""
        rows = self._rank[r - 1]
        mat = np.zeros((self.n_simplices(r - 1), self.n_simplices(r)))
        for j, s in enumerate(self.simplices[r]):
            for i in range(r + 1):
                face = s[:i] + s[i + 1:]
                mat[rows[face], j] = -1.0 if i % 2 else 1.0
        return mat

    def simplex_chain(self, r: int, coeffs, tol: float = 1e-12) -> Chain:
        """Chain from a coefficient vector over the r-simplices; the
        simplices with |coefficient| <= tol drop."""
        coeffs = np.asarray(coeffs, dtype=float)
        keep = np.abs(coeffs) > tol
        verts = self.vertices[self._index_array(r)[keep]]
        return Chain.from_stacked(verts, np.ones(len(verts), dtype=int),
                                  coeffs[keep], r, self.vertices.shape[1])

    def _vertex_positions(self, points: np.ndarray) -> np.ndarray:
        """The complex vertex of each row of `points` (m, n), -1 where
        there is none.  On a lattice a point is the grid vertex
        round((x - lower) / h) when it lies within `_LATTICE_TOL` cell
        widths of it, a rule that reads the same at any scale; otherwise a
        point is the vertex with exactly its coordinates."""
        if self.lattice is None:
            return _positions(lex_ranks(np.concatenate([self.vertices,
                                                        points])),
                              len(self.vertices))
        lower, h, cells = self.lattice
        steps = (points - lower) / h
        grid = np.rint(steps)
        on = np.all((np.abs(steps - grid) <= _LATTICE_TOL) & (grid >= 0)
                    & (grid <= cells), axis=1)
        index = np.ravel_multi_index(
            tuple(np.where(on[:, None], grid, 0).astype(np.intp).T),
            (cells + 1,) * len(h))
        return np.where(on, index, -1)

    def chain_vector(self, T: Chain) -> np.ndarray:
        """Coefficients of a chain over the complex's r-skeleton, summed in
        chain order.

        Raises if any vertex (by `_vertex_positions`) or simplex of the
        chain is not one of the complex.
        """
        r = T.degree
        where = self._vertex_positions(T.table)
        if np.any(where < 0):
            row = T.table[np.argmax(where < 0)]
            raise ValueError(f"vertex {row} not in complex")
        idx = where[T.ids]
        perm, parity = sort_parity(idx)
        ordered = np.take_along_axis(idx, perm, axis=1)
        table = self._index_array(r)
        rows = _positions(lex_ranks(np.concatenate([table, ordered])),
                          len(table))
        if np.any(rows < 0):
            missing = tuple(ordered[np.argmax(rows < 0)].tolist())
            raise ValueError(f"simplex {missing} not in complex")
        return np.bincount(rows, weights=T.signs * parity * T.mults,
                           minlength=len(table))

    def full_chain(self) -> Chain:
        """The positively oriented full-dimensional chain of the complex."""
        coeffs = np.array([self.orientation[self.dim][s]
                           for s in self.simplices[self.dim]])
        return self.simplex_chain(self.dim, coeffs)


def _positions(ranks: np.ndarray, size: int) -> np.ndarray:
    """Ranks of `size` table rows followed by query rows: the table
    position of each query row, -1 where no table row shares its rank."""
    where = np.full(len(ranks), -1)
    where[ranks[:size]] = np.arange(size)
    return where[ranks[size:]]


def freudenthal_complex(lower, upper, resolution: int) -> SimplicialComplex:
    """Kuhn triangulation of a box at `resolution` cells per axis."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    m = resolution
    axes = [np.linspace(lower[i], upper[i], m + 1) for i in range(n)]
    shape = (m + 1,) * n

    def vid(g):
        out = 0
        for gi in g:
            out = out * (m + 1) + gi
        return out

    verts = np.array([[axes[i][g[i]] for i in range(n)]
                      for g in product(range(m + 1), repeat=n)])
    tops, orients = [], []
    for cell in product(range(m), repeat=n):
        for perm in permutations(range(n)):
            ids = []
            g = list(cell)
            ids.append(vid(g))
            for j in perm:
                g = list(g)
                g[j] += 1
                ids.append(vid(g))
            # parity of the path permutation gives the simplex orientation;
            # sorted-order reference sign folds in the sorting parity
            path_sign = perm_sign(perm)
            order = sorted(range(len(ids)), key=lambda i: ids[i])
            orients.append(path_sign * perm_sign(order))
            tops.append(tuple(ids))
    return SimplicialComplex(verts, tops, orients,
                             lattice=(lower, (upper - lower) / m, m))

