"""Flat norm of simplicial chains by linear programming, plus dual-pairing
lower-bound estimators for the flat and sharp norms of general currents.

The LP minimizes  sum_i vol_i |t_i - (B s)_i| + sum_j vol_j |s_j|  over the
(r+1)-coefficients s of the hosting complex, with the L1 terms split into
nonnegative pairs.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .chains import Chain, Current, evaluate
from .complexes import SimplicialComplex
from .forms import Box, seminorm_flat, seminorm_sharp

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "flat_norm_lp",
    "dual_flat_lower_bound",
    "sharp_lower_bound",
]

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_BLOCK_ELEMENTS = 1 << 16  # entries per band of a pivot's block update


@dataclass
class LPProblem:
    """min c.x  s.t.  A_eq x = b_eq, x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.a_eq))
                and np.all(np.isfinite(self.b_eq))):
            raise ValueError("LP data must be finite")
        m, n = self.a_eq.shape
        if self.c.shape != (n,) or self.b_eq.shape != (m,):
            raise ValueError("LP dimension mismatch")


@dataclass
class LPSolution:
    status: str  # OPTIMAL | INFEASIBLE | UNBOUNDED | NUMERICAL
    objective: float = np.nan
    x: np.ndarray = None
    basis: list = field(default_factory=list)
    iterations: int = 0
    residual: float = 0.0  # max |A x - b| of the returned vertex


def _simplex_phase(tableau, basis, max_iter=200_000):
    """Primal simplex on a dense tableau with Bland's anti-cycling rule.

    tableau rows: m constraint rows then the objective row (reduced costs,
    negated objective value in the last column).  Returns iteration count
    or raises on unboundedness.  Only the nonzeros of the pivot column
    enter the ratio test, so its cost follows the tableau's sparsity.
    """
    m = tableau.shape[0] - 1
    rhs = tableau[:m, -1]
    for it in range(max_iter):
        eligible = np.flatnonzero(tableau[-1, :-1] < -_PIVOT_TOL)
        if not len(eligible):
            return it
        entering = int(eligible[0])  # Bland: smallest eligible index
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        best_ratio, leaving = np.inf, -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if (ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12
                        and (leaving < 0 or basis[i] < basis[leaving]))):
                best_ratio, leaving = ratio, i
        if leaving < 0:
            raise _Unbounded
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise RuntimeError(f"simplex iteration limit reached: {max_iter} pivots "
                       f"on a {m} x {tableau.shape[1] - 1} tableau")


class _Unbounded(Exception):
    pass


def _zeros(shape):
    """Zero float array on an anonymous memory map of its own.  Freeing
    it returns its pages to the system at once, so the peak memory of a
    sequence of LPs is that of the largest one, not a matter of which
    freed heap blocks a later, larger tableau happens to fit into."""
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, max(8 * size, 1))
    return np.frombuffer(buf, dtype=np.float64, count=size).reshape(shape)


def _pivot(tableau, row, col):
    """Gauss-Jordan step on (row, col).  Only the rows with a nonzero in
    the pivot column and the columns with a nonzero in the pivot row
    change, so the update is a block of that size.  It is applied in
    bands of rows of at most `_BLOCK_ELEMENTS` entries, so its temporaries
    stay small however much the tableau has filled in."""
    prow = tableau[row]
    prow /= prow[col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(prow)
    pcols = prow[cols]
    step = max(1, _BLOCK_ELEMENTS // max(len(cols), 1))
    for start in range(0, len(rows), step):
        band = rows[start:start + step]
        tableau[np.ix_(band, cols)] -= np.outer(tableau[band, col], pcols)


def _price(tableau, c, basis):
    """Objective row: costs c reduced against the basis rows."""
    tableau[-1, :len(c)] = c
    for i, j in enumerate(basis):
        tableau[-1] -= c[j] * tableau[i]


def _feasibility_tolerance(problem: LPProblem, x) -> np.ndarray:
    """Per-row bound on |A x - b| for a vertex solved to round-off:
    _FEAS_TOL plus n eps (|A| |x| + |b|).  |A| |x| is summed over the
    nonzero columns of x one at a time, with no copy of A."""
    scale = np.abs(problem.b_eq)
    for j in np.flatnonzero(x).tolist():
        scale += np.abs(problem.a_eq[:, j]) * abs(x[j])
    return _FEAS_TOL + x.size * np.finfo(float).eps * scale


def lp_solve(problem: LPProblem, basis_hint=None) -> LPSolution:
    """Two-phase primal simplex with Bland's rule.

    `basis_hint`: optional starting basis (column indices, one per row)
    that is already primal feasible; skips phase 1.  A vertex that misses
    a row of A x = b by more than the feasibility tolerance, which grows
    with the row's scale (`_feasibility_tolerance`), is returned with
    status NUMERICAL.
    """
    c = problem.c
    m, n = problem.a_eq.shape
    n_artificial = 0 if basis_hint is not None else m
    tableau = _zeros((m + 1, n + n_artificial + 1))
    sign = np.where(problem.b_eq < 0, -1.0, 1.0)  # rows flipped to b >= 0
    np.multiply(problem.a_eq, sign[:, None], out=tableau[:m, :n])
    np.multiply(problem.b_eq, sign, out=tableau[:m, -1])

    iterations = 0
    if basis_hint is not None:
        basis = list(basis_hint)
        # reduce so basis columns are the identity
        for i, j in enumerate(basis):
            _pivot(tableau, i, j)
        if np.any(tableau[:m, -1] < -_FEAS_TOL):
            return lp_solve(problem)  # hint not feasible; fall back
        _price(tableau, c, basis)
    else:
        # phase 1 with artificial variables
        basis = list(range(n, n + m))
        tableau[np.arange(m), basis] = 1.0
        tableau[-1, n:n + m] = 1.0
        for i in range(m):
            tableau[-1] -= tableau[i]
        try:
            iterations += _simplex_phase(tableau, basis)
        except _Unbounded:
            raise RuntimeError("phase-1 LP cannot be unbounded")
        if tableau[-1, -1] < -_FEAS_TOL:
            return LPSolution("INFEASIBLE", iterations=iterations)
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n:
                nz = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
                if len(nz):
                    _pivot(tableau, i, int(nz[0]))
                    basis[i] = int(nz[0])
        keep = [i for i in range(m) if basis[i] < n]
        reduced = _zeros((len(keep) + 1, n + 1))
        np.take(tableau[:, :n], keep, axis=0, out=reduced[:-1, :n])
        reduced[:-1, -1] = tableau[keep, -1]
        tableau = reduced
        basis = [basis[i] for i in keep]
        _price(tableau, c, basis)

    try:
        iterations += _simplex_phase(tableau, basis)
    except _Unbounded:
        return LPSolution("UNBOUNDED", iterations=iterations)

    x = np.zeros(n)
    x[basis] = tableau[:len(basis), -1]
    miss = np.abs(problem.a_eq @ x - problem.b_eq)
    residual = float(np.max(miss, initial=0.0))
    obj = float(c @ x)
    if not np.all(miss <= _feasibility_tolerance(problem, x)) \
            or not np.isfinite(obj):
        return LPSolution("NUMERICAL", obj, x, list(basis), iterations,
                          residual)
    return LPSolution("OPTIMAL", obj, x, list(basis), iterations, residual)


def flat_norm_lp(T: Chain, complex_: SimplicialComplex):
    """Simplicial flat norm of T on the hosting complex.

    Returns (value, S, R, info): the optimal decomposition T = R + bnd(S)
    with value = M(R) + M(S), plus solver metadata.
    """
    r = T.degree
    t = complex_.chain_vector(T)
    n_r, n_s = complex_.n_simplices(r), complex_.n_simplices(r + 1)
    vol_r, vol_s = complex_.volumes(r), complex_.volumes(r + 1)
    bmat = complex_.boundary_matrix(r + 1)
    # variables: [R+, R-, S+, S-]
    c = np.concatenate([vol_r, vol_r, vol_s, vol_s])
    a = _zeros((n_r, 2 * n_r + 2 * n_s))
    diag = np.arange(n_r)
    a[diag, diag] = 1.0
    a[diag, n_r + diag] = -1.0
    a[:, 2 * n_r:2 * n_r + n_s] = bmat
    np.negative(bmat, out=a[:, 2 * n_r + n_s:])
    problem = LPProblem(c, a, t)
    # R = t, S = 0 is feasible: basis of R+ or R- picked by sign of t
    hint = [i if t[i] >= 0 else n_r + i for i in range(n_r)]
    sol = lp_solve(problem, basis_hint=hint)
    if sol.status == "NUMERICAL":
        raise RuntimeError(
            f"flat-norm LP ({n_r} x {len(c)}) lost feasibility: residual "
            f"max|A x - b| = {sol.residual:.3g} exceeds the tolerance "
            f"{_FEAS_TOL:g} after {sol.iterations} pivots (plus n eps "
            f"times the row's |A||x| + |b|)")
    if sol.status != "OPTIMAL":
        raise RuntimeError(f"flat-norm LP terminated with {sol.status}")
    x = sol.x
    r_coeff = x[:n_r] - x[n_r:2 * n_r]
    s_coeff = x[2 * n_r:2 * n_r + n_s] - x[2 * n_r + n_s:]
    r_chain = complex_.simplex_chain(r, r_coeff)
    s_chain = complex_.simplex_chain(r + 1, s_coeff)
    info = {
        "mass_R": float(vol_r @ np.abs(r_coeff)),
        "mass_S": float(vol_s @ np.abs(s_coeff)),
        "iterations": sol.iterations,
    }
    return sol.objective, s_chain, r_chain, info


def _lower_bound(T: Current, family, seminorm, what: str, box: Box,
                 **kw) -> float:
    """max over the test family of T(phi) / seminorm(phi)."""
    if not family:
        raise ValueError("empty test family")
    best = 0.0
    for phi in family:
        denom = seminorm(phi, box, **kw)
        if denom <= 0.0:
            raise ValueError(f"test form with vanishing {what} seminorm")
        best = max(best, evaluate(T, phi) / denom)
    return best


def dual_flat_lower_bound(T: Current, family, box: Box, **kw) -> float:
    """max over the test family of T(phi) / F_K(phi): an estimate of a
    lower bound for the K-flat norm of T, not a certified one.  F_K is a
    sup sampled on the box grid, which can fall short of the true sup, so
    the ratio can exceed the bound it estimates."""
    return _lower_bound(T, family, seminorm_flat, "flat", box, **kw)


def sharp_lower_bound(T: Current, family, box: Box, **kw) -> float:
    """max over the test family of T(phi) / S_K(phi): a sampled estimate of
    a lower bound for the sharp norm, like `dual_flat_lower_bound`; it
    never exceeds the flat estimate on the same family and grid."""
    return _lower_bound(T, family, seminorm_sharp, "sharp", box, **kw)
