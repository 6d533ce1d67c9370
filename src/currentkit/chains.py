"""Simplicial r-chains as currents, plus a composable current expression
algebra (boundary, v wedge T, pushforwards, deformation chains) evaluated
against forms by quadrature."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exterior import sort_parity, wedge_rows
from .forms import FormField, VectorField, contract, exterior_derivative
from .quadrature import (_halving_indices, _read_only, _whole_number,
                         simplex_rule, simplex_volumes)

__all__ = [
    "Chain",
    "Current",
    "Leaf",
    "Boundary",
    "VWedge",
    "Sum",
    "evaluate",
    "boundary",
    "mass_chain",
    "unit_square_chain",
    "unit_interval_chain",
    "triangle_chain",
]

_DEGENERACY_TOL = 1e-13
_CANCEL_TOL = 1e-12


def _edge_wedges(vertices: np.ndarray):
    """Wedges of the edges from the first vertex of a stack of r-simplices,
    shape (N, r+1, n) -> (N, C(n, r)); their norms (N,); and which
    simplices are degenerate (N,).

    The degeneracy rule: a wedge norm at most `_DEGENERACY_TOL` times the
    product of the edge lengths.  That ratio lies in [0, 1] and does not
    change when the simplex is scaled, so the rule reads the same at any
    coordinate scale; an exactly flat simplex has ratio 0.  A 0-simplex
    has the empty wedge 1 and is never degenerate."""
    edges = vertices[:, 1:] - vertices[:, :1]
    xi = wedge_rows(edges)
    norms = np.sqrt(np.matmul(xi[:, None, :], xi[:, :, None]))[:, 0, 0]
    lengths = np.prod(np.linalg.norm(edges, axis=2), axis=1)
    return xi, norms, norms <= _DEGENERACY_TOL * lengths


def _unit_tangents(vertices: np.ndarray, pushed: bool = False) -> np.ndarray:
    """Orienting unit r-vectors of a stack of r-simplices: the normalized
    wedge of the edges from the first vertex (1 at r = 0).  Shape
    (N, r+1, n) -> (N, C(n, r)).  One `_edge_wedges` call gives the
    wedges and the degeneracy test; for `pushed` simplices a degenerate
    one raises the pushforward's error, before the check for non-finite
    wedges."""
    xi, norms, degenerate = _edge_wedges(vertices)
    if pushed and np.any(degenerate):
        raise ValueError("degenerate image simplex in pushforward")
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite simplex: vertices or edge wedge "
                         "not finite")
    if np.any(degenerate):
        raise ValueError("degenerate simplex: vertices affinely dependent")
    return xi * (1.0 / norms)[:, None]


def _is_int(value, low: int, high: int = None) -> bool:
    """Whether `value` is a Python int (not a bool, not a float) with
    low <= value, and value < high when `high` is given."""
    return (type(value) is int and value >= low
            and (high is None or value < high))


def _lex_groups(rows: np.ndarray):
    """Dense lexicographic rank of each row of an (m, k) array, (m,): rows
    that compare equal, entry by entry, share a rank (for floats,
    -0.0 == 0.0).  And the index of the first row of each rank."""
    if len(rows) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.concatenate(([True], np.any(ordered[1:] != ordered[:-1],
                                         axis=1)))
    ranks = np.empty(len(rows), dtype=np.intp)
    ranks[order] = np.cumsum(new) - 1
    return ranks, order[new]


def face_rows(ids: np.ndarray) -> np.ndarray:
    """The faces of index rows (N, r+1), r >= 1, face i without entry i:
    shape (N * (r+1), r), row by row and, within a row, by i."""
    r = ids.shape[1] - 1
    drop = [[j for j in range(r + 1) if j != i] for i in range(r + 1)]
    return ids[:, drop].reshape(-1, r)


def lex_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of each row of an (m, k) array (see
    `_lex_groups`).  Shape (m,)."""
    return _lex_groups(rows)[0]


def first_occurrences(labels: np.ndarray):
    """Groups of equal labels (m,), numbered in order of first occurrence:
    the index of each group's first member, and each label's group."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.arange(len(order))
    return first[order], group[inverse]


def vertex_table(points: np.ndarray):
    """The vertex rule: rows of `points` (m, n) are one vertex when their
    coordinates are equal, exactly (-0.0 == 0.0).  Returns the table of
    distinct rows, in lexicographic order, each the row of its first
    occurrence in `points`; and the table index of each row (m,).  Raises
    ValueError on a non-finite coordinate."""
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite chain vertex")
    ids, first = _lex_groups(points)
    return points[first], ids


class Chain:
    """Simplicial r-chain with real multiplicities.

    A chain is three read-only arrays: `table`, its distinct vertices
    (V, n) in lexicographic order of their coordinates; `ids`, each
    simplex as a row of table indices (N, r+1), oriented by its order; and
    `mults`, the real multiplicities (N,), none zero.  The opposite
    orientation of a simplex is its negated multiplicity.
    Coordinates are compared only where a table is built (`vertex_table`);
    boundary, simplify and subdivision work on ids, and every other form
    (`stacked`, JSON) is derived; `degree` and `ambient` are read off the
    arrays.
    Mass equals the multiplicity-weighted volume; exact when the
    simplices have disjoint interiors, otherwise only an upper bound.
    """

    def __init__(self, vertices, multiplicities):
        """Chain of the simplices `vertices` (N, r+1, n), each oriented by
        its vertex order, with `multiplicities` (N,); zero multiplicities
        drop.  An empty chain is `Chain(np.zeros((0, r + 1, n)), [])`."""
        vertices = np.asarray(vertices, dtype=float)
        mults = np.array(multiplicities, dtype=float)
        if (vertices.ndim != 3 or min(vertices.shape[1:]) < 1
                or mults.shape != vertices.shape[:1]):
            raise ValueError("a chain needs vertices of shape (N, r+1, n) "
                             "and multiplicities of shape (N,)")
        keep = mults != 0.0
        kept = vertices[keep]
        table, ids = vertex_table(kept.reshape(-1, kept.shape[2]))
        self._set(table, ids.reshape(kept.shape[:2]), mults[keep])

    @classmethod
    def _of(cls, table, ids, mults) -> "Chain":
        """Chain on a vertex table (distinct rows in lexicographic order)
        and index rows into it."""
        chain = cls.__new__(cls)
        chain._set(table, ids, mults)
        return chain

    def _set(self, table, ids, mults):
        """Keep the arrays read-only, without the zero multiplicities and
        the table rows no simplex uses."""
        if not np.all(np.isfinite(mults)):
            raise ValueError("non-finite chain multiplicity")
        keep = mults != 0.0
        if not keep.all():
            ids, mults = ids[keep], mults[keep]
        used = np.bincount(ids.ravel(), minlength=len(table)) > 0
        if not used.all():
            table = table[used]
            ids = (np.cumsum(used) - 1)[ids]
        self.table, self.ids, self.mults = _read_only(table, ids, mults)

    @property
    def degree(self) -> int:
        return self.ids.shape[1] - 1

    @property
    def ambient(self) -> int:
        return self.table.shape[1]

    def stacked(self):
        """The simplices as read-only arrays: vertices (N, r+1, n) and
        multiplicities (N,), in chain order."""
        return _read_only(self.table[self.ids])[0], self.mults

    def __len__(self):
        return len(self.mults)

    def __add__(self, other: "Chain") -> "Chain":
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("chain degree/ambient mismatch")
        table, ids = vertex_table(np.concatenate([self.table, other.table]))
        k = len(self.table)
        return Chain._of(table,
                         np.concatenate([ids[:k][self.ids],
                                         ids[k:][other.ids]]),
                         np.concatenate([self.mults, other.mults]))

    def __mul__(self, c: float) -> "Chain":
        return Chain._of(self.table, self.ids, self.mults * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (other * -1.0)

    def simplify(self) -> "Chain":
        """Merge simplices equal up to orientation; drop those that cancel.

        Each simplex's ids are sorted, ties in place (`sort_parity`), and
        the parity of that sort times its multiplicity is its contribution
        to the sorted simplex.  The merged simplices come in order of first
        occurrence, each with its sorted ids and its contributions summed
        in chain order from 0.0.  A sum drops when
        |sum| <= `_CANCEL_TOL` times the sum of its contributions' absolute
        values, a rule that reads the same at any scale of the
        multiplicities; a simplex that merges with nothing never drops."""
        perm, parity = sort_parity(self.ids)
        rows = np.take_along_axis(self.ids, perm, axis=1)
        first, group = first_occurrences(lex_ranks(rows))
        sums = np.bincount(group, weights=parity * self.mults,
                           minlength=len(first))
        size = np.bincount(group, weights=np.abs(self.mults),
                           minlength=len(first))
        keep = np.abs(sums) > _CANCEL_TOL * size
        return Chain._of(self.table, rows[first][keep], sums[keep])

    def subdivided(self, levels: int = 1) -> "Chain":
        """Every simplex split by `levels` rounds of edgewise subdivision
        (`subdivide_barycentric`).  Each round gives every edge of the
        chain one midpoint, (a + b) / 2, shared by all simplices on it;
        the table is rebuilt once, at the end.  The children of a
        simplex are consecutive, in `subdivide_barycentric`'s order, each
        with its multiplicity times the child's orientation relative to
        it.  A ValueError unless `levels` is a whole number >= 0."""
        levels = _whole_number("levels", levels, 0)
        r = self.degree
        if r == 0 or levels == 0:
            return self
        edges, children, child_signs = _halving_indices(r)
        table, ids, mults = self.table, self.ids, self.mults
        for _ in range(levels):
            size = len(table)
            ends = ids[:, edges]
            codes = (np.minimum(ends[..., 0], ends[..., 1]) * size
                     + np.maximum(ends[..., 0], ends[..., 1]))
            codes, mids = np.unique(codes.ravel(), return_inverse=True)
            table = np.concatenate(
                [table, (table[codes // size] + table[codes % size]) / 2])
            ids = np.concatenate([ids, size + mids.reshape(-1, len(edges))],
                                 axis=1)[:, children].reshape(-1, r + 1)
            mults = (mults[:, None] * child_signs).ravel()
        table, canonical = vertex_table(table)
        return Chain._of(table, canonical[ids], mults)

    # -- serialization ------------------------------------------------
    def to_json_obj(self):
        """JSON object: the vertices the simplices use, in order of first
        occurrence, and the simplices as indices into that table, each
        with its multiplicity."""
        flat = self.ids.ravel()
        first, group = first_occurrences(flat)
        return {"degree": self.degree, "ambient": self.ambient,
                "vertex_table": self.table[flat[first]].tolist(),
                "simplices": [
                    {"vertices": idxs, "multiplicity": m}
                    for idxs, m in zip(group.reshape(self.ids.shape).tolist(),
                                       self.mults.tolist())]}

    @classmethod
    def from_json_obj(cls, obj) -> "Chain":
        """Chain from `to_json_obj`'s object.  A simplex may carry a
        "sign", +1 or -1, which multiplies its multiplicity."""
        degree, ambient = obj["degree"], obj["ambient"]
        if not (_is_int(degree, 0) and _is_int(ambient, 1)):
            raise ValueError('the chain\'s "degree" must be an integer >= 0 '
                             'and its "ambient" an integer >= 1')
        table = np.asarray(obj["vertex_table"], dtype=float)
        if table.size and (table.ndim != 2 or table.shape[1] != ambient):
            raise ValueError("the chain's vertex_table rows do not have "
                             "`ambient` coordinates")
        if not np.all(np.isfinite(table)):
            raise ValueError("non-finite entry in the chain's vertex_table")
        table = table.reshape(-1, ambient)
        records = obj["simplices"]
        for k, rec in enumerate(records):
            for key in ("vertices", "multiplicity"):
                if not isinstance(rec, dict) or key not in rec:
                    raise ValueError(f'simplex {k} of the chain lacks "{key}"')
        rows = [rec["vertices"] for rec in records]
        width, size = degree + 1, len(table)
        for k, row in enumerate(rows):
            if not (isinstance(row, (list, tuple)) and len(row) == width
                    and all(_is_int(i, 0, size) for i in row)):
                raise ValueError(
                    f'simplex {k} of the chain: "vertices" must be {width} '
                    f'integers in range({size}), the rows of its '
                    f'vertex_table; got {row!r}')
        ids = np.array(rows, dtype=np.intp).reshape(-1, width)
        signs = [rec.get("sign", 1) for rec in records]
        if any(sign not in (1, -1) for sign in signs):
            raise ValueError('a simplex\'s "sign" must be +1 or -1')
        mults = np.array([rec["multiplicity"] for rec in records],
                         dtype=float) * np.array(signs, dtype=float)
        return cls(table[ids], mults)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "Chain":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


# ----------------------------------------------------------------------
# current expression algebra
# ----------------------------------------------------------------------

class Current:
    """Abstract current expression; evaluation is linear in the form."""

    degree: int
    ambient: int

    def __call__(self, phi: FormField) -> float:
        return evaluate(self, phi)


@dataclass
class Leaf(Current):
    """A chain as a current expression.  After its first evaluation at an
    `s_order` the Leaf keeps its chain's geometry (`simplex_geometry`) at
    that order, for the chain object it was built from: evaluating one
    Leaf against many forms builds the geometry once, and rebinding
    `chain` starts afresh."""

    chain: Chain
    _geometry: tuple = field(default=(None, None), init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        self.degree = self.chain.degree
        self.ambient = self.chain.ambient

    def _evaluate(self, phi: FormField, s_order: int) -> float:
        chain, memo = self._geometry
        if chain is not self.chain:
            chain, memo = self.chain, {}
            self._geometry = chain, memo
        _check_forms([phi], chain.degree, chain.ambient)
        if not len(chain):
            return 0.0
        if s_order not in memo:
            memo[s_order] = simplex_geometry(chain.stacked()[0], s_order)
        return evaluate_copies(memo[s_order], chain.mults, [phi])[0]


@dataclass
class Boundary(Current):
    inner: Current

    def __post_init__(self):
        if self.inner.degree < 1:
            raise ValueError("boundary undefined at degree 0")
        self.degree = self.inner.degree - 1
        self.ambient = self.inner.ambient


@dataclass
class VWedge(Current):
    field: VectorField
    inner: Current

    def __post_init__(self):
        if self.inner.degree + 1 > self.inner.ambient:
            raise ValueError("degree overflow in v wedge T")
        self.degree = self.inner.degree + 1
        self.ambient = self.inner.ambient


@dataclass
class Sum(Current):
    parts: list

    def __post_init__(self):
        degs = {(p.degree, p.ambient) for p in self.parts}
        if len(degs) != 1:
            raise ValueError("sum of currents with mixed degrees")
        self.degree, self.ambient = next(iter(degs))


class Geometry(NamedTuple):
    """The geometry step of evaluation on a stack of M r-simplices: the
    unit tangents (M, C(n, r)) of `_unit_tangents`, and the quadrature
    points (M, q, n) and weights (M, q) of `quadrature.simplex_rule`, all
    read-only.  It depends on the coordinates and the rule alone, so one
    geometry serves every form evaluated on the same simplices."""

    tangents: np.ndarray
    points: np.ndarray
    weights: np.ndarray


def simplex_geometry(vertices: np.ndarray, s_order: int = 2,
                     pushed: bool = False) -> Geometry:
    """Geometry of a stack of simplices (M, r+1, n).  A degenerate or
    non-finite simplex raises `_unit_tangents`' ValueError (the
    pushforward's for `pushed` simplices)."""
    tangents = _unit_tangents(vertices, pushed)
    points, weights = simplex_rule(vertices, s_order)
    return Geometry(*_read_only(tangents, points, weights))


def _check_forms(forms, degree: int, ambient: int):
    """A ValueError unless every form has the chain's degree and
    ambient dimension."""
    for phi in forms:
        if phi.degree != degree or phi.ambient != ambient:
            raise ValueError("form degree/ambient does not match the chain")


def evaluate_copies(geometry: Geometry, mults: np.ndarray, forms) -> list:
    """The values step: K copies of one chain's N simplices, each against
    its own form, from the geometry of all K * N simplices, copy by copy,
    the multiplicities (N,) the copies share and K forms, which the
    caller has checked (`_check_forms`).  Copy k's value equals
    `evaluate` of that copy against forms[k], bit for bit: each
    per-simplex step is a stacked matmul or an elementwise op, which runs
    the same kernel per item as on one copy, and each copy's total is
    summed in chain order from 0.0.  Consecutive copies that share a form
    object get one `coefficients_at` call."""
    count, size = len(forms), len(mults)
    if not size:
        return [0.0] * count
    n = geometry.points.shape[2]
    pts = geometry.points.reshape(count, -1, n)
    runs = [k for k in range(1, count) if forms[k] is not forms[k - 1]]
    coeffs = np.concatenate([
        forms[lo].coefficients_at(pts[lo:hi].reshape(-1, n))
        for lo, hi in zip([0, *runs], [*runs, count])])
    flat, quad = geometry.weights.shape
    at_points = np.matmul(coeffs.reshape(flat, quad, -1),
                          geometry.tangents[:, :, None])
    values = np.matmul(at_points.reshape(flat, 1, -1),
                       geometry.weights[:, :, None])[:, 0, 0]
    terms = np.concatenate([np.zeros((count, 1)),
                            mults * values.reshape(count, size)], axis=1)
    return np.cumsum(terms, axis=1)[:, -1].tolist()


def _leaf_evaluate(chain: Chain, phi: FormField, s_order: int = 2) -> float:
    return Leaf(chain)._evaluate(phi, s_order)


def evaluate(T: Current, phi: FormField, s_order: int = 2) -> float:
    """Evaluate a current expression against a form.

    Leaf nodes evaluate their chain by quadrature; Boundary nodes
    evaluate the inner current on d(phi); VWedge nodes on phi -| v,
    matching the defining dualities.
    """
    if isinstance(T, Chain):
        T = Leaf(T)
    if isinstance(T, Boundary):
        return evaluate(T.inner, exterior_derivative(phi), s_order)
    if isinstance(T, VWedge):
        return evaluate(T.inner, contract(phi, T.field), s_order)
    if isinstance(T, Sum):
        return sum(evaluate(p, phi, s_order) for p in T.parts)
    if hasattr(T, "_evaluate"):
        return T._evaluate(phi, s_order)
    raise TypeError(f"not a current expression: {type(T)}")


def boundary(T: Chain) -> Chain:
    """Alternating-sum face chain; interior faces of consistently oriented
    complexes cancel exactly.  The faces are those of each simplex in turn,
    face i without vertex i and with sign (-1)^i, on the chain's vertex
    table, merged by `simplify`."""
    if isinstance(T, Leaf):
        T = T.chain
    if T.degree < 1:
        raise ValueError("boundary undefined for 0-chains")
    r = T.degree
    faces = Chain._of(T.table, face_rows(T.ids),
                      (T.mults[:, None] * (-1) ** np.arange(r + 1)).ravel())
    return faces.simplify()


def mass_chain(T: Chain) -> float:
    """Multiplicity-weighted volume, summed in chain order; dual mass under
    disjoint interiors."""
    verts, mults = T.stacked()
    terms = np.abs(mults) * simplex_volumes(verts)
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


# ----------------------------------------------------------------------
# stock chains
# ----------------------------------------------------------------------

def unit_interval_chain(ambient: int = 1) -> Chain:
    """The oriented segment from 0 to e_1."""
    a = np.zeros(ambient)
    b = np.zeros(ambient)
    b[0] = 1.0
    return Chain(np.array([[a, b]]), [1.0])


def unit_square_chain() -> Chain:
    """[0,1]^2 as two positively oriented triangles."""
    p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Chain(p[[[0, 1, 2], [0, 2, 3]]], [1.0, 1.0])


def triangle_chain(vertices=None) -> Chain:
    if vertices is None:
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    return Chain(np.array([vertices], dtype=float), [1.0])
