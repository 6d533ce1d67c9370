"""Simplicial r-chains as currents, plus a composable current expression
algebra (boundary, v wedge T, sums) evaluated against forms by quadrature.
Pushforwards (`lipschitz.pushforward_chain`) and the homotopy formula's
deformations (`motion.homotopy_residuals`) are built on it in their own
modules."""

from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exterior import sort_parity, wedge_rows
from .forms import FormField, VectorField, contract, exterior_derivative
from .polynomial import _is_finite, _real_array, _real_type
from .quadrature import (_check_size, _halving_indices, _read_only,
                         _whole_number, simplex_rule, simplex_volumes)

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

# what is derived from a chain, kept off it and keyed by the chain object:
# its boundary under "boundary", the last subdivision asked, as (levels,
# chain), under "subdivided", and its quadrature geometry at order s under
# ("geometry", s); an entry goes when its chain goes
_DERIVED = weakref.WeakKeyDictionary()

# the keys a simplex record of a chain file may have
_SIMPLEX_KEYS = frozenset(("vertices", "multiplicity", "sign"))


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


def _first_breaking(keys: list, rule) -> int:
    """The index of the first of `keys` for which `rule(key)` is false,
    len(keys) if none; `rule` is asked once per distinct key."""
    broken = {key for key in set(keys) if not rule(key)}
    if not broken:
        return len(keys)
    return next(i for i, key in enumerate(keys) if key in broken)


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


class Current:
    """A current: a `Chain`, or an expression built on chains; evaluation
    is linear in the form."""

    degree: int
    ambient: int

    def __call__(self, phi: FormField) -> float:
        return evaluate(self, phi)


class Chain(Current):
    """Simplicial r-chain with real multiplicities.

    A chain is three read-only arrays: `table`, its distinct vertices
    (V, n) in lexicographic order of their coordinates; `ids`, each
    simplex as a row of table indices (N, r+1), oriented by its order; and
    `mults`, the real multiplicities (N,), none zero.  The opposite
    orientation of a simplex is its negated multiplicity.
    Coordinates are compared only where a table is built (`vertex_table`);
    boundary, simplify and subdivision work on ids, and every other form
    (`stacked`, JSON) is derived; `degree` and `ambient` are read off the
    arrays.  A chain is a `Current`: T(phi), `evaluate` and the
    expressions `Boundary`, `VWedge` and `Sum` take it as it stands.  What
    is derived from a chain, its boundary, its last subdivision asked and
    its quadrature geometry per order, lives in a weak side table keyed
    by the chain object, not on the chain, and goes with it.
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
        it.  A ValueError unless `levels` is a whole number >= 0 that
        makes at most `_SIZE_CAP` simplices.  A repeat call on the same
        chain object at the same level returns the same object; the chain
        keeps only its last subdivision asked, so a call at another level
        releases the one before."""
        levels = _whole_number("levels", levels, 0)
        r = self.degree
        if r == 0 or levels == 0 or not len(self):
            return self
        # N simplices, times 2^r a level
        _check_size("levels", levels, itertools.chain(
            [len(self)], (2 ** r for _ in range(levels))), "simplices")
        memo = _DERIVED.setdefault(self, {})
        if memo.get("subdivided", (None,))[0] == levels:
            return memo["subdivided"][1]
        # the level held before goes before this one is built
        memo.pop("subdivided", None)
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
        work = Chain._of(table, canonical[ids], mults)
        memo["subdivided"] = (levels, work)
        return work

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
        """Chain from `to_json_obj`'s object.  A simplex record has
        "vertices" and "multiplicity" and may carry a "sign", +1 or -1,
        which multiplies its multiplicity; any other key is refused.

        The records are checked all at once, rule by rule: first that
        each is an object with both keys, no other but "sign", and a
        finite number as multiplicity; then that each "vertices" is
        degree + 1 integers in range of the vertex_table; then the signs.
        A ValueError names the first record that breaks a rule of the
        first group broken, and in it the first rule."""
        for key in ("degree", "ambient", "vertex_table", "simplices"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f'the chain lacks "{key}"')
        degree, ambient = obj["degree"], obj["ambient"]
        if not (_is_int(degree, 0) and _is_int(ambient, 1)):
            raise ValueError('the chain\'s "degree" must be an integer >= 0 '
                             'and its "ambient" an integer >= 1')
        try:
            table = _real_array(obj["vertex_table"])
        except ValueError:
            raise ValueError('the chain\'s "vertex_table" must be a list of '
                             'points') from None
        if table.size and (table.ndim != 2 or table.shape[1] != ambient):
            raise ValueError("the chain's vertex_table rows do not have "
                             "`ambient` coordinates")
        if not np.all(np.isfinite(table)):
            raise ValueError("non-finite entry in the chain's vertex_table")
        table = table.reshape(-1, ambient)
        records = obj["simplices"]
        if not isinstance(records, list):
            raise ValueError(f'the chain\'s "simplices" must be a list, got '
                             f'{records!r}')
        n, width, size = len(records), degree + 1, len(table)
        fields = [rec if isinstance(rec, dict) else {} for rec in records]
        mults = [rec.get("multiplicity") for rec in fields]
        # each rule is read for all records at once, and asked once per
        # key order, type or value; `firsts` is the first record to break
        # each, in the order of the messages below.  Finiteness is read
        # only on the records before the first to break another rule,
        # which are numbers
        orders = list(map(tuple, fields))
        firsts = [_first_breaking(orders, lambda keys: "vertices" in keys),
                  _first_breaking(orders,
                                  lambda keys: "multiplicity" in keys),
                  _first_breaking(orders, _SIMPLEX_KEYS.issuperset),
                  _first_breaking(list(map(type, mults)), _real_type)]
        firsts.append(_first_breaking(mults[:min(firsts)], _is_finite))
        k = min(firsts)
        if k < n:
            mult = mults[k]
            extra = next((key for key in fields[k]
                          if key not in _SIMPLEX_KEYS), None)
            raise ValueError(f"simplex {k} of the chain" + (
                ' lacks "vertices"',
                ' lacks "multiplicity"',
                f': unknown key "{extra}"; a simplex has "vertices", '
                f'"multiplicity" and optionally "sign"',
                f': "multiplicity" must be a number, got {mult!r}',
                f': "multiplicity" must be finite, got {mult!r}'
            )[firsts.index(k)])
        # then each "vertices": a list or tuple of `width` ints, each in
        # range(size); `k` is the first record to break a rule
        rows = [rec["vertices"] for rec in fields]
        k = _first_breaking(list(map(type, rows)),
                            lambda kind: issubclass(kind, (list, tuple)))
        k = _first_breaking(list(map(len, rows[:k])),
                            lambda length: length == width)
        flat = list(itertools.chain.from_iterable(rows[:k]))
        at = _first_breaking(list(map(type, flat)), lambda kind: kind is int)
        at = _first_breaking(flat[:at], lambda i: 0 <= i < size)
        k = at // width
        if k < n:
            raise ValueError(
                f'simplex {k} of the chain: "vertices" must be {width} '
                f'integers in range({size}), the rows of its vertex_table; '
                f'got {rows[k]!r}')
        signs = [rec.get("sign", 1) for rec in fields]
        if not (set(map(type, signs)) <= {int} and set(signs) <= {1, -1}):
            raise ValueError('a simplex\'s "sign" must be the integer +1 '
                             'or -1')
        ids = np.array(flat, dtype=np.intp).reshape(-1, width)
        return cls(table[ids], np.array(mults, dtype=float)
                   * np.array(signs, dtype=float))

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

@dataclass
class Leaf(Current):
    """A chain wrapped as a current expression, which `evaluate` and
    `boundary` read as the chain itself.  A chain is a `Current`, so no
    expression needs one; its degree and ambient dimension are read from
    `chain` when asked."""

    chain: Chain

    degree = property(lambda self: self.chain.degree)
    ambient = property(lambda self: self.chain.ambient)


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
        if not self.parts:
            raise ValueError("an empty sum of currents has no degree")
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


def evaluate(T: Current, phi: FormField, s_order: int = 2) -> float:
    """Evaluate a current expression against a form.

    A chain (or a Leaf's) checks the form, then the order, a whole number
    >= 0; an empty chain reads 0.0, any other `evaluate_copies` on its
    geometry at that order, kept in its side table.  Boundary nodes
    evaluate the inner current on d(phi); VWedge nodes on phi -| v,
    matching the defining dualities."""
    if isinstance(T, Leaf):
        T = T.chain
    if isinstance(T, Boundary):
        return evaluate(T.inner, exterior_derivative(phi), s_order)
    if isinstance(T, VWedge):
        return evaluate(T.inner, contract(phi, T.field), s_order)
    if isinstance(T, Sum):
        return sum(evaluate(p, phi, s_order) for p in T.parts)
    if not isinstance(T, Chain):
        raise TypeError(f"not a current expression: {type(T)}")
    _check_forms([phi], T.degree, T.ambient)
    s_order = _whole_number("quadrature order", s_order, 0)
    if not len(T):
        return 0.0
    memo = _DERIVED.setdefault(T, {})
    key = ("geometry", s_order)
    if key not in memo:
        memo[key] = simplex_geometry(T.stacked()[0], s_order)
    return evaluate_copies(memo[key], T.mults, [phi])[0]


def boundary(T: Chain) -> Chain:
    """Alternating-sum face chain; interior faces of consistently oriented
    complexes cancel exactly.  The faces are those of each simplex in turn,
    face i without vertex i and with sign (-1)^i, on the chain's vertex
    table, merged by `simplify`.  A repeat call on the same chain object
    returns the same object."""
    if isinstance(T, Leaf):
        T = T.chain
    if T.degree < 1:
        raise ValueError("boundary undefined for 0-chains")
    memo = _DERIVED.setdefault(T, {})
    if "boundary" not in memo:
        r = T.degree
        faces = Chain._of(T.table, face_rows(T.ids),
                          (T.mults[:, None]
                           * (-1) ** np.arange(r + 1)).ravel())
        memo["boundary"] = faces.simplify()
    return memo["boundary"]


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
