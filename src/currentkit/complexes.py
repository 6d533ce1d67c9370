"""Simplicial complexes hosting chains for the flat-norm linear program.

The default builder is the Freudenthal/Kuhn triangulation of a box, which
is consistently orientable and reproducible at any resolution.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .chains import Chain, _lex_groups, face_rows, lex_ranks, vertex_table
from .exterior import sort_parity
from .quadrature import (_check_size, _read_only, _shown, _whole_number,
                         kuhn_simplices, simplex_volumes)

__all__ = ["SimplicialComplex", "freudenthal_complex"]

_LATTICE_TOL = 1e-6


class SimplicialComplex:
    """Vertex table plus sorted-index simplices per degree.

    `ids[r]` holds the r-simplices as rows of sorted vertex indices
    (count, r+1): the top simplices in the given order, every lower degree
    the distinct faces in lexicographic order.  The reference orientation
    of every simplex is its sorted vertex order; `top_orientations` holds,
    for each top simplex, the sign of that order relative to a globally
    positive orientation.  `simplices` and `orientation` are tuple and
    dict views of these arrays, built on first use and kept; the library
    reads only the arrays, the benchmark's workload writer the views.  A
    complex whose vertices are a box's grid, row-major, carries the grid
    as `lattice`, (lower corner, cell widths, cells per axis).

    Three more tables are built once and kept: `top_faces`, the row in
    `ids[dim - 1]` of each face of each top simplex, face i without
    vertex i, as `face_rows` lists them (empty at dim 0); the vertices
    as one chain vertex table (`vertex_table`), on which `simplex_chain`
    builds its chains; and the vector of each chain `chain_vector` has
    placed, keyed weakly by the chain object, so the entry goes with the
    chain.
    """

    def __init__(self, vertices: np.ndarray, top_simplices, top_orientations,
                 lattice=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.lattice = lattice
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise ValueError(f"vertex {self.vertices[~finite][0]} is not "
                             f"finite")
        tops = np.sort(np.array(top_simplices, dtype=np.intp), axis=1)
        low, high = tops.min(initial=0), tops.max(initial=0)
        if low < 0 or high >= len(self.vertices):
            raise ValueError(f"top simplex vertex index "
                             f"{low if low < 0 else high} outside "
                             f"range({len(self.vertices)})")
        self.dim = tops.shape[1] - 1
        self.top_orientations = np.asarray(top_orientations)
        if (self.top_orientations.shape != (len(tops),)
                or np.any(np.abs(self.top_orientations) != 1)):
            raise ValueError(f"top_orientations needs one sign, +1 or -1, "
                             f"per top simplex ({len(tops)})")
        self.ids, self.top_faces = [tops], np.zeros(0, dtype=np.intp)
        for r in range(self.dim, 0, -1):
            faces = face_rows(self.ids[0])
            ranks, first = _lex_groups(faces)
            self.ids.insert(0, faces[first])
            if r == self.dim:
                self.top_faces = ranks
        self._table, self._table_ids = vertex_table(self.vertices)
        self._vectors = weakref.WeakKeyDictionary()

    @cached_property
    def simplices(self) -> dict:
        """The r-simplices per degree as sorted vertex-index tuples."""
        return {r: [tuple(s) for s in ids.tolist()]
                for r, ids in enumerate(self.ids)}

    @cached_property
    def orientation(self) -> dict:
        """`top_orientations` keyed by the top simplices' tuples."""
        return {self.dim: dict(zip(self.simplices[self.dim],
                                   self.top_orientations.tolist()))}

    def _ids(self, r: int) -> np.ndarray:
        """`ids[r]`; none below degree 0 or above the complex's
        dimension."""
        if 0 <= r <= self.dim:
            return self.ids[r]
        return np.zeros((0, max(r + 1, 0)), dtype=np.intp)

    def n_simplices(self, r: int) -> int:
        return len(self._ids(r))

    def volumes(self, r: int) -> np.ndarray:
        return simplex_volumes(self.vertices[self._ids(r)])

    def boundary_matrix(self, r: int) -> np.ndarray:
        """Signed incidence of (r-1)-faces (rows) against r-simplices
        (columns), in the sorted-order reference orientation: face i of a
        simplex, without vertex i, with sign (-1)^i."""
        if r < 1:
            raise ValueError("boundary undefined at degree 0: a 0-simplex "
                             "has no boundary")
        simplices = self._ids(r)
        rows = _lookup(self._ids(r - 1), face_rows(simplices))
        mat = np.zeros((self.n_simplices(r - 1), len(simplices)))
        mat[rows, np.repeat(np.arange(len(simplices)), r + 1)] = np.tile(
            (-1) ** np.arange(r + 1), len(simplices))
        return mat

    def simplex_chain(self, r: int, coeffs) -> Chain:
        """Chain from a coefficient vector over the r-simplices, each in
        its sorted vertex order; zero coefficients drop.  It equals
        `Chain(vertices[ids[r]], coeffs)`, built on the complex's vertex
        table, which is sorted once: of vertices equal by the vertex rule
        the table keeps the complex's first."""
        ids = self._ids(r)
        mults = np.array(coeffs, dtype=float)
        if r < 0 or mults.shape != ids.shape[:1]:
            raise ValueError(f"simplex_chain needs a degree >= 0 and one "
                             f"coefficient per simplex of it, got degree "
                             f"{r} and coefficients of shape {mults.shape}")
        return Chain._of(self._table, self._table_ids[ids], mults)

    def _vertex_positions(self, points: np.ndarray) -> np.ndarray:
        """The complex vertex of each row of `points` (m, n), -1 where
        there is none.  On a lattice a point is the grid vertex
        round((x - lower) / h) when it lies within `_LATTICE_TOL` cell
        widths of it, a rule that reads the same at any scale; otherwise a
        point is the vertex with exactly its coordinates."""
        if self.lattice is None:
            return _lookup(self.vertices, points)
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
        chain order, as a read-only array.  The complex keeps it for as
        long as the chain object lives, so a second call reads it.

        A ValueError, before any lookup, unless the chain lies in the
        dimension of the complex's vertices; and if any vertex (by
        `_vertex_positions`) or simplex of the chain is not one of the
        complex.
        """
        vector = self._vectors.get(T)
        if vector is not None:
            return vector
        r, n = T.degree, self.vertices.shape[1]
        if T.ambient != n:
            raise ValueError(f"the chain lies in R^{T.ambient} and the "
                             f"complex in R^{n}")
        where = self._vertex_positions(T.table)
        if np.any(where < 0):
            row = T.table[np.argmax(where < 0)]
            raise ValueError(f"vertex {row} not in complex")
        idx = where[T.ids]
        perm, parity = sort_parity(idx)
        ordered = np.take_along_axis(idx, perm, axis=1)
        rows = _lookup(self._ids(r), ordered)
        if np.any(rows < 0):
            missing = tuple(ordered[np.argmax(rows < 0)].tolist())
            raise ValueError(f"simplex {missing} not in complex")
        vector = np.bincount(rows, weights=parity * T.mults,
                             minlength=self.n_simplices(r))
        self._vectors[T] = _read_only(vector)[0]
        return vector

    def full_chain(self) -> Chain:
        """The positively oriented full-dimensional chain of the complex."""
        return self.simplex_chain(self.dim, self.top_orientations)


def _lookup(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The position of each row of `queries` among the rows of `table`
    (equal entry by entry), -1 where no table row equals it."""
    ranks = lex_ranks(np.concatenate([table, queries]))
    where = np.full(len(ranks), -1)
    where[ranks[:len(table)]] = np.arange(len(table))
    return where[ranks[len(table):]]


def _check_resolution(dim: int, resolution) -> int:
    """`resolution` as an int: a ValueError naming it unless it is a whole
    number >= 1 at which the `dim`-dimensional `freudenthal_complex` has
    at most `_SIZE_CAP` top simplices, dim! * resolution^dim of them."""
    m = _whole_number("resolution", resolution, 1)
    _check_size("resolution", m, (k * m for k in range(1, dim + 1)),
                "top simplices")
    return m


def freudenthal_complex(lower, upper, resolution: int) -> SimplicialComplex:
    """Kuhn triangulation of a box at `resolution` cells per axis.  Its
    vertices are the grid points in row-major order; a Kuhn path's
    vertices rise in that order, so each top simplex's orientation is the
    parity of its path.  A ValueError, before anything is built, unless
    the bounds are finite, one number per axis with lower < upper on each,
    and `_check_resolution` admits `resolution`."""
    shown = f"{_shown(lower)} and {_shown(upper)}"
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape or not lower.size:
        raise ValueError(f"complex bounds must be one number per axis, as "
                         f"many in each, got {shown}")
    if not np.all(np.isfinite(lower) & np.isfinite(upper)):
        raise ValueError(f"complex bounds must be finite, got {shown}")
    if not np.all(lower < upper):
        raise ValueError(f"complex bounds must have lower < upper on every "
                         f"axis, got {shown}")
    n = lower.size
    m = _check_resolution(n, resolution)
    axes = [np.linspace(lower[i], upper[i], m + 1) for i in range(n)]
    verts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    coords, signs = kuhn_simplices(n, m)
    tops = np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)),
                                (m + 1,) * n)
    return SimplicialComplex(verts, tops, signs,
                             lattice=(lower, (upper - lower) / m, m))
