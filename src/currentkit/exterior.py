"""Finite-dimensional exterior algebra over R^n.

r-vectors and r-covectors are stored densely, indexed by the lexicographic
rank of strictly increasing multi-indices.  All values are immutable and
every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "MultiVector",
    "CoVector",
    "multi_indices",
    "basis_rank",
    "wedge",
    "pair",
    "mass",
    "comass",
    "frame_to_multivector",
    "wedge_rows",
    "contract_rows",
]


@lru_cache(maxsize=None)
def multi_indices(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing r-tuples over {0, ..., n-1}, lexicographic."""
    if not 0 <= r <= n:
        raise ValueError(f"degree {r} out of range for ambient {n}")
    return tuple(combinations(range(n), r))


@lru_cache(maxsize=None)
def _rank_table(r: int, n: int) -> dict[tuple[int, ...], int]:
    return {idx: k for k, idx in enumerate(multi_indices(r, n))}


def basis_rank(index: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a strictly increasing multi-index."""
    return _rank_table(len(index), n)[tuple(index)]


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


def binary_exponent(values) -> int:
    """The power of two k with max|values| * 2**-k in [1, 2); 0 when every
    value is zero.  Scaling by 2**-k is exact, and undone by 2**k."""
    top = np.max(np.abs(values), initial=0.0)
    return int(np.frexp(top)[1]) - 1 if top else 0


def _euclidean(values: np.ndarray, axis=None):
    """np.linalg.norm(values, axis=axis), taken on values * 2**-k for k =
    `binary_exponent(values)` and scaled back by 2**k, so that no square
    underflows or overflows at any scale.  Where every square is a normal
    float with or without the scaling, the bits are np.linalg.norm's."""
    k = binary_exponent(values)
    return np.ldexp(np.linalg.norm(np.ldexp(values, -k), axis=axis), k)


@dataclass(frozen=True)
class MultiVector:
    """Degree-r exterior vector over R^n with dense coefficients."""

    degree: int
    ambient: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        if c.shape != (comb(self.ambient, self.degree),):
            raise ValueError(
                f"expected {comb(self.ambient, self.degree)} coefficients, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def zero(cls, degree: int, ambient: int) -> "MultiVector":
        return cls(degree, ambient, np.zeros(comb(ambient, degree)))

    @classmethod
    def basis(cls, index: tuple[int, ...], ambient: int) -> "MultiVector":
        c = np.zeros(comb(ambient, len(index)))
        c[basis_rank(tuple(index), ambient)] = 1.0
        return cls(len(index), ambient, c)

    @classmethod
    def from_vector(cls, v) -> "MultiVector":
        v = np.asarray(v, dtype=float)
        return cls(1, v.size, v.copy())

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        return type(self)(self.degree, self.ambient,
                          self.coefficients + other.coefficients)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        return type(self)(self.degree, self.ambient,
                          self.coefficients - other.coefficients)

    def __mul__(self, c: float) -> "MultiVector":
        return type(self)(self.degree, self.ambient, self.coefficients * c)

    __rmul__ = __mul__

    def __neg__(self) -> "MultiVector":
        return self * -1.0

    def _check_compatible(self, other):
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError(
                f"degree/ambient mismatch: ({self.degree},{self.ambient}) "
                f"vs ({other.degree},{other.ambient})"
            )

    def norm(self) -> float:
        return float(_euclidean(self.coefficients))


class CoVector(MultiVector):
    """Degree-r covector; same layout as MultiVector, dual interpretation."""

    @classmethod
    def dx(cls, index: tuple[int, ...], ambient: int) -> "CoVector":
        return cls.basis(index, ambient)


@lru_cache(maxsize=None)
def _wedge_terms(p: int, q: int, n: int):
    """The terms of a p-vector wedge a q-vector over R^n that alternation
    does not kill, as (index in a, index in b, output rank, sign), in the
    order of a loop over the indices of a, then of b.  The sign is the
    parity of sorting the concatenated index la + lb."""
    a = np.array(multi_indices(p, n), dtype=np.intp).reshape(comb(n, p), p)
    b = np.array(multi_indices(q, n), dtype=np.intp).reshape(comb(n, q), q)
    i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
    keys = np.concatenate([a[i], b[j]], axis=1)
    perm, parity = sort_parity(keys)
    merged = np.take_along_axis(keys, perm, axis=1)
    live = np.all(merged[:, 1:] != merged[:, :-1], axis=1)
    ranks = _rank_table(p + q, n)
    return tuple((ia, jb, ranks[tuple(lam)], sign) for ia, jb, lam, sign
                 in zip(i[live].tolist(), j[live].tolist(),
                        merged[live].tolist(), parity[live].tolist()))


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    p, q, n = a.degree, b.degree, a.ambient
    if p + q > n:
        raise ValueError(f"degree overflow: {p}+{q} > ambient {n}")
    out = np.zeros(comb(n, p + q))
    ca, cb = a.coefficients.tolist(), b.coefficients.tolist()
    for i, j, k, sign in _wedge_terms(p, q, n):
        if ca[i] != 0.0 and cb[j] != 0.0:
            out[k] += sign * ca[i] * cb[j]
    cls = CoVector if isinstance(a, CoVector) else MultiVector
    return cls(p + q, n, out)


@lru_cache(maxsize=None)
def _contract_terms(r: int, n: int):
    """The terms of an r-covector over R^n contracted with a vector, as
    (index in the covector, vector component, output rank, sign), in the
    order of a loop over the covector's indices, then over the positions
    in each: dx^lam -| e_i = (-1)^pos dx^(lam without i), where i is at
    position pos of lam."""
    ranks = _rank_table(r - 1, n)
    return tuple((k, i, ranks[lam[:pos] + lam[pos + 1:]],
                  -1 if pos % 2 else 1)
                 for k, lam in enumerate(multi_indices(r, n))
                 for pos, i in enumerate(lam))


def contract_rows(coefficients: np.ndarray, vectors: np.ndarray,
                  r: int) -> np.ndarray:
    """Row-wise contraction of r-covector coefficients (N, C(n, r)) with
    vectors (N, n), shape (N, C(n, r-1)).  Every term is added, in the
    order of `_contract_terms`, to a sum that starts at +0.0; a zero term
    leaves such a sum's bits as they are."""
    n = vectors.shape[1]
    out = np.zeros((len(vectors), comb(n, r - 1)))
    for k, i, rest, sign in _contract_terms(r, n):
        out[:, rest] += sign * coefficients[:, k] * vectors[:, i]
    return out


def pair(omega: CoVector, xi: MultiVector) -> float:
    """Duality pairing; dot product in the orthonormal lexicographic basis."""
    if (omega.degree, omega.ambient) != (xi.degree, xi.ambient):
        raise ValueError("degree/ambient mismatch in pairing")
    return float(np.dot(omega.coefficients, xi.coefficients))


def mass(xi: MultiVector) -> float:
    """The Euclidean norm |xi| of the coefficient vector.  That is the
    mass of Federer 1.8.1 only for simple xi, which every chain's tangent
    is: for e0^e1 + e2^e3 in R^4 it reads sqrt(2), where the mass is 2."""
    return xi.norm()


def frame_to_multivector(frame: np.ndarray) -> MultiVector:
    """Wedge of the columns of an n-by-r matrix (a simple r-vector)."""
    n, r = frame.shape
    return MultiVector(r, n, wedge_rows(frame.T[None])[0])


def wedge_rows(rows: np.ndarray) -> np.ndarray:
    """Wedge of the rows of each matrix in a stack of shape (N, r, n), as
    coefficients of shape (N, C(n, r)).

    Row i equals the chained `wedge` of the rows of matrix i bit for bit:
    the same terms are added in the same order, elementwise over N.
    """
    rows = np.asarray(rows, dtype=float)
    count, r, n = rows.shape
    if r == 0:
        return np.ones((count, 1))
    out = rows[:, 0, :].copy()
    for p in range(1, r):
        nxt = np.zeros((count, comb(n, p + 1)))
        col = rows[:, p, :]
        for i, j, k, sign in _wedge_terms(p, 1, n):
            nxt[:, k] += sign * out[:, i] * col[:, j]
        out = nxt
    return out


@lru_cache(maxsize=None)
def _complement_table(n: int):
    """The Hodge star between 2-indices and (n-2)-indices of R^n: for each
    2-index mu in order, the rank of its complement lam and the parity of
    (lam, mu), read-only.  The star maps simple unit vectors onto simple
    unit vectors, and its inverse reads the same table."""
    pairs = multi_indices(2, n)
    rest = [tuple(k for k in range(n) if k not in mu) for mu in pairs]
    ranks = np.array([_rank_table(n - 2, n)[lam] for lam in rest])
    signs = sort_parity(np.hstack([np.array(rest), np.array(pairs)]))[1]
    ranks.flags.writeable = signs.flags.writeable = False
    return ranks, signs


def _skew(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The skew matrices A (m, n, n) of 2-covector coefficient rows
    (m, C(n, 2)), with <omega, u ^ v> = u^T A v."""
    i, j = np.array(multi_indices(2, n)).T
    a = np.zeros((len(coeffs), n, n))
    a[:, i, j] = coeffs
    a[:, j, i] = -coeffs
    return a


def _as_two_covectors(coeffs: np.ndarray, r: int, n: int) -> np.ndarray:
    """2-covector rows of equal comass: the rows themselves at r = 2, their
    complements omega~_ij = sgn(lam, i, j) omega_lam at r = n-2."""
    if r == 2:
        return coeffs
    ranks, signs = _complement_table(n)
    return signs * coeffs[:, ranks]


def _comass_rows(coeffs: np.ndarray, r: int, n: int) -> np.ndarray:
    """The comass of each row of r-covector coefficients (m, C(n, r)),
    shape (m,).

    - r in {0, 1, n-1, n}: every r-vector is simple, and the comass is
      the Euclidean norm (`_euclidean`, at any scale).
    - r = 2: the normal form sum_k lambda_k e^(2k-1) ^ e^(2k) gives
      max |lambda_k|, the largest singular value of the skew matrix.
    - r = n-2: the same on the complement covector, since the Hodge star
      maps simple unit (n-2)-vectors onto simple unit 2-vectors.
    - 3 <= r <= n-3 (n >= 6): the Euclidean norm, an upper bound for the
      comass (Federer 1.8.1), not the comass.
    """
    if r in (0, 1, n - 1, n) or r not in (2, n - 2):
        return _euclidean(coeffs, axis=1)
    two = _as_two_covectors(coeffs, r, n)
    return np.linalg.svd(_skew(two, n), compute_uv=False)[:, 0]


def comass(omega: CoVector):
    """Comass of a covector: sup of the pairing over simple unit r-vectors,
    by `_comass_rows`.  Returns (value, witness), with witness a simple unit
    r-vector that attains it: omega over its norm at r in {0, 1, n-1, n},
    u ^ v from the skew matrix's top singular pair at r = 2, and its Hodge
    star at r = n-2.  A ValueError at 3 <= r <= n-3, where
    `_comass_rows` has only an upper bound."""
    r, n = omega.degree, omega.ambient
    if 3 <= r <= n - 3:
        raise ValueError(f"no exact comass of a {r}-covector in R^{n}: at "
                         f"3 <= r <= n-3 only the Euclidean upper bound is "
                         f"known")
    coeffs = omega.coefficients
    val = float(_comass_rows(coeffs[None], r, n)[0])
    if val == 0.0:
        return 0.0, MultiVector.zero(r, n)
    if r in (0, 1, n - 1, n):
        return val, MultiVector(r, n, coeffs / val)
    u, _, vt = np.linalg.svd(_skew(_as_two_covectors(coeffs[None], r, n),
                                   n)[0])
    eta = wedge_rows(np.stack([u[:, 0], vt[0]])[None])[0]
    if r == 2:
        return val, MultiVector(2, n, eta)
    ranks, signs = _complement_table(n)
    xi = np.empty_like(eta)
    xi[ranks] = signs * eta
    return val, MultiVector(r, n, xi)
