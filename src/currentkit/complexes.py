"""Simplicial complexes hosting chains for the flat-norm linear program.

The default builder is the Freudenthal/Kuhn triangulation of a box, which
is consistently orientable and reproducible at any resolution.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from .chains import Chain, Simplex
from .exterior import perm_sign

__all__ = ["SimplicialComplex", "freudenthal_complex"]


class SimplicialComplex:
    """Vertex table plus sorted-index simplices per degree.

    Reference orientation of every simplex is its sorted vertex order;
    `orientation` stores, for full-dimensional simplices, the sign of the
    sorted order relative to a globally positive orientation.
    """

    def __init__(self, vertices: np.ndarray, top_simplices, top_orientations):
        self.vertices = np.asarray(vertices, dtype=float)
        self.dim = len(top_simplices[0]) - 1 if top_simplices else 0
        self.simplices = {self.dim: [tuple(sorted(s)) for s in top_simplices]}
        self.orientation = {
            self.dim: {tuple(sorted(s)): o
                       for s, o in zip(top_simplices, top_orientations)}
        }
        self._vertex_lookup = {
            tuple(np.round(v, 10)): i for i, v in enumerate(self.vertices)
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

    def volumes(self, r: int) -> np.ndarray:
        return np.array([Simplex(self.vertices[list(s)]).volume
                         for s in self.simplices[r]])

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
        """Chain from a coefficient vector over the r-simplices."""
        terms = []
        for k, c in enumerate(coeffs):
            if abs(c) > tol:
                verts = self.vertices[list(self.simplices[r][k])]
                terms.append((Simplex(verts), float(c)))
        return Chain(terms, r, self.vertices.shape[1])

    def chain_vector(self, T: Chain) -> np.ndarray:
        """Coefficients of a chain over the complex's r-skeleton.

        Raises if any simplex of the chain is not a face of the complex.
        """
        r = T.degree
        vec = np.zeros(self.n_simplices(r))
        for s, m in T.terms:
            idxs = []
            for row in s.vertices:
                key = tuple(np.round(row, 10))
                if key not in self._vertex_lookup:
                    raise ValueError(f"vertex {row} not in complex")
                idxs.append(self._vertex_lookup[key])
            order = sorted(range(len(idxs)), key=lambda i: idxs[i])
            sorted_tuple = tuple(idxs[i] for i in order)
            if sorted_tuple not in self._rank[r]:
                raise ValueError(f"simplex {sorted_tuple} not in complex")
            rel = perm_sign(order) * s.sign
            vec[self._rank[r][sorted_tuple]] += rel * m
        return vec

    def full_chain(self) -> Chain:
        """The positively oriented full-dimensional chain of the complex."""
        coeffs = np.array([self.orientation[self.dim][s]
                           for s in self.simplices[self.dim]])
        return self.simplex_chain(self.dim, coeffs)


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
    return SimplicialComplex(verts, tops, orients)

