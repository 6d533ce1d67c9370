"""Simplicial r-chains as currents, plus a composable current expression
algebra (boundary, v wedge T, pushforwards, deformation chains) evaluated
against forms by quadrature."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exterior import MultiVector, frame_to_multivector, pair
from .forms import (FormField, VectorField, contract, exterior_derivative,
                    time_slice_contract)
from .quadrature import (integrate_interval, simplex_rule, simplex_volume,
                         subdivide_barycentric)

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
        edges = (self.vertices[1:] - self.vertices[0]).T  # n x r
        xi = frame_to_multivector(edges)
        m = xi.norm()
        if m <= _DEGENERACY_TOL:
            raise ValueError("degenerate simplex: vertices affinely dependent")
        return xi * (self.sign / m)

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
        current = [(self.vertices, self.sign)]
        for _ in range(levels):
            nxt = []
            for verts, sgn in current:
                for child, csign in subdivide_barycentric(verts):
                    nxt.append((child, sgn * csign))
            current = nxt
        return [Simplex(v, s) for v, s in current]

    def canonical_key(self):
        """Hashable key identifying the unoriented simplex, plus the sign of
        this simplex relative to the vertex-sorted representative."""
        rows = [tuple(np.round(row, _KEY_DECIMALS)) for row in self.vertices]
        order = sorted(range(len(rows)), key=lambda i: rows[i])
        parity = _sort_parity(order)
        return tuple(rows[i] for i in order), self.sign * parity


def _sort_parity(order) -> int:
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


class Chain:
    """Simplicial r-chain with real multiplicities.

    Mass equals the multiplicity-weighted volume; exact under the
    disjoint-interior convention, otherwise only an upper bound (flagged).
    """

    def __init__(self, terms, degree=None, ambient=None,
                 disjoint_interiors=True):
        terms = [(s, float(m)) for s, m in terms if m != 0.0]
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
        self.disjoint_interiors = disjoint_interiors

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "Chain") -> "Chain":
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("chain degree/ambient mismatch")
        return Chain(self.terms + other.terms, self.degree, self.ambient,
                     self.disjoint_interiors and other.disjoint_interiors)

    def __mul__(self, c: float) -> "Chain":
        return Chain([(s, m * c) for s, m in self.terms],
                     self.degree, self.ambient, self.disjoint_interiors)

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
        return Chain(terms, self.degree, self.ambient,
                     self.disjoint_interiors)

    def subdivided(self, levels: int = 1) -> "Chain":
        terms = []
        for s, m in self.terms:
            for child in s.subdivided(levels):
                terms.append((child, m))
        return Chain(terms, self.degree, self.ambient,
                     self.disjoint_interiors)

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
    total = 0.0
    for simplex, mult in work:
        if simplex.degree == 0:
            total += mult * pair(phi(simplex.vertices[0]),
                                 simplex.unit_tangent())
            continue
        tangent = simplex.unit_tangent()
        pts, wts = simplex_rule(simplex.vertices, s=s_order)
        coeffs = phi.coefficients_at(pts)
        total += mult * float(coeffs @ tangent.coefficients @ wts)
    return total


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
