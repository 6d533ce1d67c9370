"""Simplicial r-chains as currents, plus a composable current expression
algebra (boundary, v wedge T, pushforwards, deformation chains) evaluated
against forms by quadrature."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exterior import MultiVector, pair, perm_sign, wedge_rows
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

    def faces(self):
        """Boundary faces with the alternating-sum signs."""
        r = self.degree
        if r == 0:
            raise ValueError("a point has no boundary")
        out = []
        for i in range(r + 1):
            keep = [j for j in range(r + 1) if j != i]
            s = self.sign * (-1 if i % 2 else 1)
            out.append(Simplex(self.vertices[keep], 1) if s == 1
                       else Simplex(self.vertices[keep], -1))
        return out

    def subdivided(self, levels: int = 1):
        """Uniform edgewise subdivision into 2^(r*levels) children."""
        verts, signs = subdivide_simplices(self.vertices[None], [self.sign],
                                           levels)
        return [Simplex(v, s) for v, s in zip(verts, signs.tolist())]

    def canonical_key(self):
        """Hashable key identifying the unoriented simplex, plus the sign of
        this simplex relative to the vertex-sorted representative."""
        rows = [tuple(np.round(row, _KEY_DECIMALS)) for row in self.vertices]
        order = sorted(range(len(rows)), key=lambda i: rows[i])
        return tuple(rows[i] for i in order), self.sign * perm_sign(order)


def _unit_tangents(vertices: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Orienting unit r-vectors of a stack of r-simplices, r >= 1: the
    normalized wedge of the edges from the first vertex, times the sign.
    Shape (N, r+1, n) -> (N, C(n, r))."""
    xi = wedge_rows(vertices[:, 1:] - vertices[:, :1])
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite simplex: vertices or edge wedge "
                         "not finite")
    norms = np.sqrt(np.matmul(xi[:, None, :], xi[:, :, None]))[:, 0, 0]
    if np.any(norms <= _DEGENERACY_TOL):
        raise ValueError("degenerate simplex: vertices affinely dependent")
    return xi * (signs / norms)[:, None]


class Chain:
    """Simplicial r-chain with real multiplicities.

    Mass equals the multiplicity-weighted volume; exact when the simplices
    have disjoint interiors, otherwise only an upper bound.
    """

    def __init__(self, terms, degree=None, ambient=None):
        terms = [(s, float(m)) for s, m in terms if m != 0.0]
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
        self.terms = terms
        self.degree = degree
        self.ambient = ambient

    @classmethod
    def from_stacked(cls, vertices, signs, multiplicities, degree: int,
                     ambient: int) -> "Chain":
        """Chain from the arrays `stacked` returns.  The simplices are rows
        of one read-only copy of `vertices`; zero multiplicities drop."""
        vertices = np.array(vertices, dtype=float)
        signs = np.asarray(signs)
        mults = np.asarray(multiplicities, dtype=float)
        if (vertices.ndim != 3
                or not vertices.shape[0] == len(signs) == len(mults)
                or vertices.shape[1:] != (degree + 1, ambient)):
            raise ValueError("stacked chain arrays do not match")
        if not np.all(np.isfinite(mults)):
            raise ValueError("non-finite chain multiplicity")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("orientation sign must be +1 or -1")
        vertices.flags.writeable = False
        keep = mults != 0.0
        chain = cls.__new__(cls)
        chain.terms = [(Simplex._trusted(v, s), m) for v, s, m in
                       zip(vertices[keep], signs[keep].tolist(),
                           mults[keep].tolist())]
        chain.degree = degree
        chain.ambient = ambient
        return chain

    def stacked(self):
        """The simplices as arrays: vertices (N, r+1, n), orientation signs
        (N,) and multiplicities (N,), in chain order."""
        if not self.terms:
            return (np.zeros((0, self.degree + 1, self.ambient)),
                    np.zeros(0, dtype=int), np.zeros(0))
        return (np.stack([s.vertices for s, _ in self.terms]),
                np.array([s.sign for s, _ in self.terms]),
                np.array([m for _, m in self.terms]))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "Chain") -> "Chain":
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("chain degree/ambient mismatch")
        return Chain(self.terms + other.terms, self.degree, self.ambient)

    def __mul__(self, c: float) -> "Chain":
        return Chain([(s, m * c) for s, m in self.terms],
                     self.degree, self.ambient)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (other * -1.0)

    def simplify(self, tol: float = 1e-12) -> "Chain":
        """Merge simplices equal up to orientation; drop tiny multiplicities."""
        acc: dict = {}
        reps: dict = {}
        for s, m in self.terms:
            key, rel = s.canonical_key()
            acc[key] = acc.get(key, 0.0) + rel * m
            if key not in reps:
                reps[key] = Simplex(np.array(key), 1)
        terms = [(reps[k], c) for k, c in acc.items() if abs(c) > tol]
        return Chain(terms, self.degree, self.ambient)

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
        if not self.terms:
            return np.zeros((0, self.ambient))
        return np.vstack([s.vertices for s, _ in self.terms])

    # -- serialization ------------------------------------------------
    def to_json_obj(self):
        vert_table = []
        vert_index = {}
        simplices = []
        for s, m in self.terms:
            idxs = []
            for row in s.vertices:
                key = tuple(np.round(row, _KEY_DECIMALS))
                if key not in vert_index:
                    vert_index[key] = len(vert_table)
                    vert_table.append([float(x) for x in row])
                idxs.append(vert_index[key])
            simplices.append({"vertices": idxs, "multiplicity": m,
                              "sign": s.sign})
        return {"degree": self.degree, "ambient": self.ambient,
                "vertex_table": vert_table, "simplices": simplices}

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
    if not work.terms:
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
    complexes cancel exactly."""
    if isinstance(T, Leaf):
        T = T.chain
    if T.degree < 1:
        raise ValueError("boundary undefined for 0-chains")
    terms = []
    for s, m in T.terms:
        for face in s.faces():
            terms.append((face, m))
    return Chain(terms, T.degree - 1, T.ambient).simplify()


def mass_chain(T: Chain) -> float:
    """Multiplicity-weighted volume; dual mass under disjoint interiors."""
    return sum(abs(m) * s.volume for s, m in T.terms)


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
