"""Simplicial r-chains as currents, plus a composable current expression
algebra (boundary, v wedge T, pushforwards, deformation chains) evaluated
against forms by quadrature."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exterior import MultiVector, pair, wedge_rows
from .forms import (FormField, VectorField, contract, exterior_derivative,
                    time_slice_contract)
from .quadrature import (grundmann_moller, integrate_interval,
                         simplex_volume, simplex_volumes, subdivide_simplices)

__all__ = [
    "Simplex",
    "Chain",
    "Current",
    "Leaf",
    "Boundary",
    "VWedge",
    "Sum",
    "Scale",
    "evaluate",
    "boundary",
    "mass_chain",
    "interval_product_evaluate",
    "v_wedge",
    "unit_square_chain",
    "unit_interval_chain",
    "triangle_chain",
]

_KEY_DECIMALS = 10
_DEGENERACY_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class Simplex:
    """Oriented r-simplex: r+1 vertices in R^n and an orientation sign."""

    vertices: np.ndarray
    sign: int = 1

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a (r+1, n) array")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        if self.sign not in (-1, 1):
            raise ValueError("orientation sign must be +1 or -1")

    @classmethod
    def _trusted(cls, vertices: np.ndarray, sign: int) -> "Simplex":
        """Simplex on a read-only (r+1, n) float array and a sign of +-1,
        without the copy and the checks of the constructor."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vertices)
        object.__setattr__(s, "sign", sign)
        return s

    @property
    def degree(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def ambient(self) -> int:
        return self.vertices.shape[1]

    @property
    def volume(self) -> float:
        return simplex_volume(self.vertices)

    def unit_tangent(self) -> MultiVector:
        """Orienting unit r-vector: normalized wedge of edge vectors."""
        r = self.degree
        if r == 0:
            return MultiVector(0, self.ambient, np.array([float(self.sign)]))
        coeffs = _unit_tangents(self.vertices[None], np.array([self.sign]))
        return MultiVector(r, self.ambient, coeffs[0])

    def subdivided(self, levels: int = 1):
        """Uniform edgewise subdivision into 2^(r*levels) children."""
        verts, signs = subdivide_simplices(self.vertices[None], [self.sign],
                                           levels)
        return [Simplex(v, s) for v, s in zip(verts, signs.tolist())]


def _edge_wedges(vertices: np.ndarray):
    """Wedges of the edges from the first vertex of a stack of r-simplices,
    r >= 1, shape (N, r+1, n) -> (N, C(n, r)); their norms (N,); and which
    simplices are degenerate (N,).

    The degeneracy rule: a wedge norm at most `_DEGENERACY_TOL` times the
    product of the edge lengths.  That ratio lies in [0, 1] and does not
    change when the simplex is scaled, so the rule reads the same at any
    coordinate scale; an exactly flat simplex has ratio 0."""
    edges = vertices[:, 1:] - vertices[:, :1]
    xi = wedge_rows(edges)
    norms = np.sqrt(np.matmul(xi[:, None, :], xi[:, :, None]))[:, 0, 0]
    lengths = np.prod(np.linalg.norm(edges, axis=2), axis=1)
    return xi, norms, norms <= _DEGENERACY_TOL * lengths


def _unit_tangents(vertices: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Orienting unit r-vectors of a stack of r-simplices, r >= 1: the
    normalized wedge of the edges from the first vertex, times the sign.
    Shape (N, r+1, n) -> (N, C(n, r))."""
    xi, norms, degenerate = _edge_wedges(vertices)
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite simplex: vertices or edge wedge "
                         "not finite")
    if np.any(degenerate):
        raise ValueError("degenerate simplex: vertices affinely dependent")
    return xi * (signs / norms)[:, None]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def lex_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of each row of an (m, k) array: rows that
    compare equal, entry by entry, share a rank (for floats, -0.0 == 0.0).
    Shape (m,)."""
    if len(rows) == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    step = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks = np.empty(len(rows), dtype=np.intp)
    ranks[order] = np.concatenate(([0], np.cumsum(step)))
    return ranks


def first_occurrences(labels: np.ndarray):
    """Groups of equal labels (m,), numbered in order of first occurrence:
    the index of each group's first member, and each label's group."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.arange(len(order))
    return first[order], group[inverse]


def vertex_ranks(points: np.ndarray):
    """The vertex rule: a vertex is its coordinates rounded to
    `_KEY_DECIMALS` decimals, and 0.0 and -0.0 are one vertex.  Returns
    the rounded rows of `points` (m, n), -0.0 kept as it rounds, and their
    dense lexicographic ranks (m,): rows that are one vertex share a
    rank."""
    rounded = np.round(points, _KEY_DECIMALS)
    return rounded, lex_ranks(rounded)


def sort_parity(keys: np.ndarray):
    """Stable sort of each row of an (N, k) key array: the sorting
    permutations (N, k), ties kept in place, and their parities (N,), +1
    for even and -1 for odd."""
    perm = np.argsort(keys, axis=1, kind="stable")
    k = keys.shape[1]
    inversions = np.zeros(len(keys), dtype=int)
    for i in range(k):
        for j in range(i + 1, k):
            inversions += perm[:, i] > perm[:, j]
    return perm, 1 - 2 * (inversions % 2)


class Chain:
    """Simplicial r-chain with real multiplicities.

    A chain holds either its terms, `(Simplex, multiplicity)` pairs, or
    its stacked arrays (see `stacked`), and builds the other form on first
    use, so chains passed between array operations never build `Simplex`
    objects.  Mass equals the multiplicity-weighted volume; exact when the
    simplices have disjoint interiors, otherwise only an upper bound.
    """

    def __init__(self, terms, degree=None, ambient=None):
        terms = tuple((s, float(m)) for s, m in terms if m != 0.0)
        if not all(math.isfinite(m) for _, m in terms):
            raise ValueError("non-finite chain multiplicity")
        if terms:
            degree = terms[0][0].degree
            ambient = terms[0][0].ambient
            for s, _ in terms:
                if s.degree != degree or s.ambient != ambient:
                    raise ValueError("mixed degrees/ambients in chain")
        elif degree is None or ambient is None:
            raise ValueError("empty chain needs explicit degree and ambient")
        self._terms = terms
        self._stacked = None
        self.degree = degree
        self.ambient = ambient

    @classmethod
    def from_stacked(cls, vertices, signs, multiplicities, degree: int,
                     ambient: int) -> "Chain":
        """Chain from the arrays `stacked` returns, kept as read-only
        copies; zero multiplicities drop."""
        vertices = np.array(vertices, dtype=float)
        signs = np.asarray(signs)
        mults = np.array(multiplicities, dtype=float)
        if (vertices.ndim != 3
                or not vertices.shape[0] == len(signs) == len(mults)
                or vertices.shape[1:] != (degree + 1, ambient)):
            raise ValueError("stacked chain arrays do not match")
        if not np.all(np.isfinite(mults)):
            raise ValueError("non-finite chain multiplicity")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("orientation sign must be +1 or -1")
        signs = signs.astype(int)
        keep = mults != 0.0
        if not keep.all():
            vertices, signs, mults = vertices[keep], signs[keep], mults[keep]
        chain = cls.__new__(cls)
        chain._terms = None
        chain._stacked = _read_only(vertices, signs, mults)
        chain.degree = degree
        chain.ambient = ambient
        return chain

    @property
    def terms(self) -> tuple:
        """The `(Simplex, multiplicity)` pairs, in chain order."""
        if self._terms is None:
            verts, signs, mults = self._stacked
            self._terms = tuple(
                (Simplex._trusted(v, s), m)
                for v, s, m in zip(verts, signs.tolist(), mults.tolist()))
        return self._terms

    def stacked(self):
        """The simplices as read-only arrays: vertices (N, r+1, n),
        orientation signs (N,) of an integer dtype and multiplicities (N,),
        in chain order."""
        if self._stacked is None:
            if self._terms:
                arrays = (np.stack([s.vertices for s, _ in self._terms]),
                          np.array([s.sign for s, _ in self._terms],
                                   dtype=int),
                          np.array([m for _, m in self._terms]))
            else:
                arrays = (np.zeros((0, self.degree + 1, self.ambient)),
                          np.zeros(0, dtype=int), np.zeros(0))
            self._stacked = _read_only(*arrays)
        return self._stacked

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        if self._stacked is None:
            return len(self._terms)
        return len(self._stacked[2])

    def __add__(self, other: "Chain") -> "Chain":
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("chain degree/ambient mismatch")
        return Chain.from_stacked(
            *(np.concatenate(pair)
              for pair in zip(self.stacked(), other.stacked())),
            self.degree, self.ambient)

    def __mul__(self, c: float) -> "Chain":
        verts, signs, mults = self.stacked()
        return Chain.from_stacked(verts, signs, mults * float(c),
                                  self.degree, self.ambient)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (other * -1.0)

    def simplify(self, tol: float = 1e-12) -> "Chain":
        """Merge simplices equal up to orientation; drop tiny multiplicities.

        Vertices are identified by `vertex_ranks`.  Each simplex's rows are
        sorted lexicographically, ties in place (`sort_parity`), and the
        parity of that sort times the simplex's sign gives the sign of its
        multiplicity.  The merged simplices come in order of first
        occurrence, each with the first occurrence's rounded, sorted rows,
        sign +1 and its multiplicities summed in chain order from 0.0;
        those with |sum| <= tol drop."""
        verts, signs, mults = self.stacked()
        count, k = verts.shape[:2]
        rounded, ranks = vertex_ranks(verts.reshape(-1, self.ambient))
        rounded = rounded.reshape(verts.shape)
        ranks = ranks.reshape(count, k)
        perm, parity = sort_parity(ranks)
        first, group = first_occurrences(
            lex_ranks(np.take_along_axis(ranks, perm, axis=1)))
        sums = np.bincount(group, weights=signs * parity * mults,
                           minlength=len(first))
        reps = np.take_along_axis(rounded[first], perm[first][:, :, None],
                                  axis=1)
        keep = np.abs(sums) > tol
        return Chain.from_stacked(reps[keep], np.ones(keep.sum(), dtype=int),
                                  sums[keep], self.degree, self.ambient)

    def subdivided(self, levels: int = 1) -> "Chain":
        """Every simplex split by `levels` rounds of edgewise subdivision;
        the children of a simplex are consecutive and keep its
        multiplicity."""
        verts, signs, mults = self.stacked()
        verts, signs = subdivide_simplices(verts, signs, levels)
        return Chain.from_stacked(
            verts, signs, np.repeat(mults, 2 ** (self.degree * levels)),
            self.degree, self.ambient)

    def support_points(self) -> np.ndarray:
        """All vertex rows, simplex by simplex: a read-only (N (r+1), n)
        view of the stacked vertices."""
        return self.stacked()[0].reshape(-1, self.ambient)

    # -- serialization ------------------------------------------------
    def to_json_obj(self):
        """JSON object: a table of the distinct vertices (`vertex_ranks`)
        in order of first occurrence, each with its first occurrence's
        unrounded coordinates, and the simplices as indices into it."""
        verts, signs, mults = self.stacked()
        points = verts.reshape(-1, self.ambient)
        first, group = first_occurrences(vertex_ranks(points)[1])
        indices = group.reshape(verts.shape[:2]).tolist()
        return {"degree": self.degree, "ambient": self.ambient,
                "vertex_table": points[first].tolist(),
                "simplices": [
                    {"vertices": idxs, "multiplicity": m, "sign": sign}
                    for idxs, m, sign in zip(indices, mults.tolist(),
                                             signs.tolist())]}

    @classmethod
    def from_json_obj(cls, obj) -> "Chain":
        table = np.asarray(obj["vertex_table"], dtype=float)
        if not np.all(np.isfinite(table)):
            raise ValueError("non-finite entry in the chain's vertex_table")
        terms = []
        for rec in obj["simplices"]:
            verts = table[rec["vertices"]]
            terms.append((Simplex(verts, rec.get("sign", 1)),
                          rec["multiplicity"]))
        return cls(terms, obj["degree"], obj["ambient"])

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
    chain: Chain

    def __post_init__(self):
        self.degree = self.chain.degree
        self.ambient = self.chain.ambient


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


@dataclass
class Scale(Current):
    factor: float
    inner: Current

    def __post_init__(self):
        self.degree = self.inner.degree
        self.ambient = self.inner.ambient


def _leaf_evaluate(chain: Chain, phi: FormField, s_order: int = 2,
                   subdivision: int = 0) -> float:
    if phi.degree != chain.degree or phi.ambient != chain.ambient:
        raise ValueError("form degree/ambient does not match the chain")
    work = chain.subdivided(subdivision) if subdivision else chain
    if work.degree == 0:
        total = 0.0
        for simplex, mult in work:
            total += mult * pair(phi(simplex.vertices[0]),
                                 simplex.unit_tangent())
        return total
    if not len(work):
        return 0.0
    # All simplices at once.  Each per-simplex step is a stacked matmul or
    # an elementwise op, which runs the same kernel per item as the call
    # on one simplex did, so each simplex's value is bit-identical to it;
    # the total is summed sequentially in chain order, as before.
    verts, signs, mults = work.stacked()
    bary, w = grundmann_moller(work.degree, s_order)
    tangents = _unit_tangents(verts, signs)
    pts = np.matmul(bary, verts)
    wts = w * simplex_volumes(verts)[:, None]
    coeffs = phi.coefficients_at(pts.reshape(-1, work.ambient))
    count = len(mults)
    at_points = np.matmul(coeffs.reshape(count, len(w), -1),
                          tangents[:, :, None])
    values = np.matmul(at_points.reshape(count, 1, -1),
                       wts[:, :, None])[:, 0, 0]
    return float(np.cumsum(np.concatenate(([0.0], mults * values)))[-1])


def evaluate(T: Current, phi: FormField, s_order: int = 2,
             subdivision: int = 0) -> float:
    """Evaluate a current expression against a form.

    Boundary nodes evaluate the inner current on d(phi); VWedge nodes on
    phi -| v, matching the defining dualities.
    """
    if isinstance(T, Chain):
        T = Leaf(T)
    if isinstance(T, Leaf):
        return _leaf_evaluate(T.chain, phi, s_order, subdivision)
    if isinstance(T, Boundary):
        return evaluate(T.inner, exterior_derivative(phi), s_order,
                        subdivision)
    if isinstance(T, VWedge):
        return evaluate(T.inner, contract(phi, T.field), s_order, subdivision)
    if isinstance(T, Sum):
        return sum(evaluate(p, phi, s_order, subdivision) for p in T.parts)
    if isinstance(T, Scale):
        return T.factor * evaluate(T.inner, phi, s_order, subdivision)
    if hasattr(T, "_evaluate"):
        return T._evaluate(phi, s_order, subdivision)
    raise TypeError(f"not a current expression: {type(T)}")


def evaluate_with_error(T: Current, phi: FormField, s_order: int = 2,
                        subdivision: int = 1):
    """Evaluation plus a Richardson-style error estimate from one extra
    subdivision level."""
    coarse = evaluate(T, phi, s_order, subdivision)
    fine = evaluate(T, phi, s_order, subdivision + 1)
    return fine, abs(fine - coarse)


def boundary(T: Chain) -> Chain:
    """Alternating-sum face chain; interior faces of consistently oriented
    complexes cancel exactly.  The faces are those of each simplex in turn,
    face i without vertex i and with sign (-1)^i, merged by `simplify`."""
    if isinstance(T, Leaf):
        T = T.chain
    if T.degree < 1:
        raise ValueError("boundary undefined for 0-chains")
    r, n = T.degree, T.ambient
    verts, signs, mults = T.stacked()
    drop = [[j for j in range(r + 1) if j != i] for i in range(r + 1)]
    faces = Chain.from_stacked(
        verts[:, drop].reshape(-1, r, n),
        (signs[:, None] * (-1) ** np.arange(r + 1)).ravel(),
        np.repeat(mults, r + 1), r - 1, n)
    return faces.simplify()


def mass_chain(T: Chain) -> float:
    """Multiplicity-weighted volume, summed in chain order; dual mass under
    disjoint interiors."""
    verts, _, mults = T.stacked()
    terms = np.abs(mults) * simplex_volumes(verts)
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def v_wedge(v: VectorField, T: Current) -> Current:
    """Symbolic v wedge T; evaluation only (the result is generally not a
    simplicial chain)."""
    if isinstance(T, Chain):
        T = Leaf(T)
    return VWedge(v, T)


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


# ----------------------------------------------------------------------
# stock chains
# ----------------------------------------------------------------------

def unit_interval_chain(ambient: int = 1) -> Chain:
    """The oriented segment from 0 to e_1."""
    a = np.zeros(ambient)
    b = np.zeros(ambient)
    b[0] = 1.0
    return Chain([(Simplex(np.array([a, b])), 1.0)])


def unit_square_chain() -> Chain:
    """[0,1]^2 as two positively oriented triangles."""
    p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Chain([
        (Simplex(p[[0, 1, 2]]), 1.0),
        (Simplex(p[[0, 2, 3]]), 1.0),
    ])


def triangle_chain(vertices=None) -> Chain:
    if vertices is None:
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    return Chain([(Simplex(np.array(vertices, dtype=float)), 1.0)])
