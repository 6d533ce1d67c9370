"""Differential r-form fields on an open box in R^n.

Two backends: exact multivariate-polynomial coefficients, and a sampled
(black-box) evaluator differentiated by central differences.  The module
also houses vector fields, pullbacks, contraction, the Lie derivative and
the comass/flat/sharp seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .exterior import (CoVector, basis_rank, comass, interior_product,
                       multi_indices)
from .polynomial import Polynomial

__all__ = [
    "Box",
    "FormField",
    "VectorField",
    "AffineMap",
    "exterior_derivative",
    "pullback",
    "contract",
    "lie_derivative",
    "lie_derivative_components",
    "seminorm_comass",
    "seminorm_flat",
    "seminorm_sharp",
    "form_lipschitz",
    "TimePolynomialForm",
    "time_slice_contract",
]

_MAX_ALL_PAIR_POINTS = 1500
_SAMPLED_PAIRS = 100_000


@dataclass(frozen=True)
class Box:
    """Open box with a compact sub-box K carrying a uniform sample grid."""

    lower: tuple
    upper: tuple
    k_lower: tuple = None
    k_upper: tuple = None
    resolution: int = 9

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))
        klo = lo if self.k_lower is None else np.asarray(self.k_lower, float)
        khi = hi if self.k_upper is None else np.asarray(self.k_upper, float)
        if np.any(klo < lo) or np.any(khi > hi) or np.any(klo >= khi):
            raise ValueError("K must be a nondegenerate sub-box of the box")
        if self.resolution < 2:
            raise ValueError("grid needs at least 2 points per axis")
        object.__setattr__(self, "k_lower", tuple(klo))
        object.__setattr__(self, "k_upper", tuple(khi))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.subtract(self.upper, self.lower)))

    def grid(self, resolution: int = None) -> np.ndarray:
        """Uniform grid over K, shape (m, dim)."""
        res = resolution or self.resolution
        axes = [np.linspace(a, b, res)
                for a, b in zip(self.k_lower, self.k_upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @classmethod
    def unit(cls, dim: int, resolution: int = 9, pad: float = 0.5) -> "Box":
        return cls(tuple([-pad] * dim), tuple([1.0 + pad] * dim),
                   tuple([0.0] * dim), tuple([1.0] * dim), resolution)


@dataclass(frozen=True)
class AffineMap:
    """x -> mat @ x + shift, with exact Jacobian."""

    mat: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.array(self.mat, dtype=float))
        object.__setattr__(self, "shift", np.array(self.shift, dtype=float))

    def __call__(self, x):
        return self.mat @ np.asarray(x, dtype=float) + self.shift

    def jacobian(self, x=None):
        return self.mat

    @property
    def source_dim(self):
        return self.mat.shape[1]

    @property
    def target_dim(self):
        return self.mat.shape[0]


class FormField:
    """Differential r-form on (a box in) R^n.

    Construct with `from_polynomials` for the exact backend or
    `from_callable` for the sampled backend.
    """

    def __init__(self, degree, ambient, *, polys=None, func=None, h=1e-5):
        self.degree = degree
        self.ambient = ambient
        self.ncomp = comb(ambient, degree)
        if (polys is None) == (func is None):
            raise ValueError("exactly one backend must be given")
        if polys is not None:
            polys = list(polys)
            if len(polys) != self.ncomp:
                raise ValueError("wrong number of coefficient polynomials")
            for p in polys:
                if p.nvars != ambient:
                    raise ValueError("coefficient arity mismatch")
        self.polys = polys
        self.func = func
        self.h = h

    # -- constructors -------------------------------------------------
    @classmethod
    def from_polynomials(cls, ambient, degree, coeffs) -> "FormField":
        """`coeffs`: mapping multi-index tuple -> Polynomial (or number)."""
        polys = [Polynomial.zero(ambient) for _ in range(comb(ambient, degree))]
        for idx, p in coeffs.items():
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(ambient, float(p))
            polys[basis_rank(tuple(idx), ambient)] = p
        return cls(degree, ambient, polys=polys)

    @classmethod
    def from_callable(cls, ambient, degree, func, h=1e-5) -> "FormField":
        return cls(degree, ambient, func=func, h=h)

    @classmethod
    def zero(cls, ambient, degree) -> "FormField":
        return cls.from_polynomials(ambient, degree, {})

    @classmethod
    def random_polynomial(cls, ambient, degree, rng, max_degree=3) -> "FormField":
        coeffs = {idx: Polynomial.random(ambient, max_degree, rng)
                  for idx in multi_indices(degree, ambient)}
        return cls.from_polynomials(ambient, degree, coeffs)

    @property
    def is_polynomial(self) -> bool:
        return self.polys is not None

    # -- evaluation ---------------------------------------------------
    def __call__(self, x) -> CoVector:
        x = np.asarray(x, dtype=float)
        if self.is_polynomial:
            return CoVector(self.degree, self.ambient,
                            np.array([p(x) for p in self.polys]))
        out = self.func(x)
        if isinstance(out, CoVector):
            return out
        return CoVector(self.degree, self.ambient, np.asarray(out, float))

    def coefficients_at(self, pts: np.ndarray) -> np.ndarray:
        """Coefficient matrix at many points, shape (m, ncomp)."""
        if self.is_polynomial:
            return np.stack([p.eval_many(pts) for p in self.polys], axis=-1)
        return np.stack([self(x).coefficients for x in pts], axis=0)

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "FormField") -> "FormField":
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            return FormField(self.degree, self.ambient,
                             polys=[a + b for a, b in
                                    zip(self.polys, other.polys)])
        return FormField.from_callable(
            self.ambient, self.degree,
            lambda x, a=self, b=other: a(x) + b(x), h=self.h)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + (other * -1.0)

    def __mul__(self, c: float) -> "FormField":
        if self.is_polynomial:
            return FormField(self.degree, self.ambient,
                             polys=[p * c for p in self.polys])
        return FormField.from_callable(
            self.ambient, self.degree,
            lambda x, a=self, cc=c: a(x) * cc, h=self.h)

    __rmul__ = __mul__

    def _check(self, other):
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("form degree/ambient mismatch")

    # -- serialization ------------------------------------------------
    def to_json_obj(self):
        if not self.is_polynomial:
            raise ValueError("only polynomial forms serialize")
        return {
            "ambient": self.ambient,
            "degree": self.degree,
            "coefficients": {
                ",".join(map(str, idx)): self.polys[k].to_json_obj()
                for k, idx in enumerate(multi_indices(self.degree, self.ambient))
                if not self.polys[k].is_zero()
            },
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FormField":
        n, r = obj["ambient"], obj["degree"]
        coeffs = {}
        for key, body in obj["coefficients"].items():
            idx = tuple(int(s) for s in key.split(",")) if key else ()
            coeffs[idx] = Polynomial.from_json_obj(n, body)
        return cls.from_polynomials(n, r, coeffs)


@dataclass(frozen=True)
class VectorField:
    """Vector field on R^n: an evaluator, optional polynomial components,
    and an optionally known Lipschitz constant."""

    ambient: int
    func: object = None
    components: tuple = None  # tuple[Polynomial, ...]
    lipschitz: float = None

    def __post_init__(self):
        if self.components is not None:
            comps = tuple(self.components)
            if len(comps) != self.ambient:
                raise ValueError("component count mismatch")
            object.__setattr__(self, "components", comps)
        elif self.func is None:
            raise ValueError("vector field needs components or an evaluator")

    @classmethod
    def from_polynomials(cls, comps, lipschitz=None) -> "VectorField":
        comps = tuple(comps)
        return cls(len(comps), components=comps, lipschitz=lipschitz)

    @classmethod
    def constant(cls, vec) -> "VectorField":
        vec = np.asarray(vec, dtype=float)
        comps = tuple(Polynomial.constant(vec.size, v) for v in vec)
        return cls(vec.size, components=comps, lipschitz=0.0)

    @classmethod
    def random_polynomial(cls, ambient, rng, max_degree=2) -> "VectorField":
        return cls.from_polynomials(
            [Polynomial.random(ambient, max_degree, rng)
             for _ in range(ambient)])

    @property
    def is_polynomial(self) -> bool:
        return self.components is not None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.is_polynomial:
            return np.array([p(x) for p in self.components])
        return np.asarray(self.func(x), dtype=float)


# ----------------------------------------------------------------------
# exterior derivative
# ----------------------------------------------------------------------

def _wedge_basis_sign(j: int, lam: tuple):
    """dx^j wedge dx^lam = sign * dx^merged; None if j in lam."""
    if j in lam:
        return None, 0
    pos = sum(1 for k in lam if k < j)
    return tuple(sorted((j,) + lam)), (-1 if pos % 2 else 1)


def _derivative_polys(polys, r: int, n: int, offset: int = 0) -> list:
    """Coefficient polynomials of d of the r-form on R^n whose
    coefficients are `polys`; spatial variable j is variable j + offset of
    the polynomials, which have n + offset variables."""
    out_indices = multi_indices(r + 1, n)
    rank = {idx: k for k, idx in enumerate(out_indices)}
    out = [Polynomial.zero(n + offset) for _ in out_indices]
    for k, lam in enumerate(multi_indices(r, n)):
        p = polys[k]
        if p.is_zero():
            continue
        for j in range(n):
            merged, sign = _wedge_basis_sign(j, lam)
            if sign:
                out[rank[merged]] = out[rank[merged]] + sign * p.diff(
                    j + offset)
    return out


def exterior_derivative(phi: FormField) -> FormField:
    """d(phi); exact for polynomial backends, central differences otherwise."""
    r, n = phi.degree, phi.ambient
    if r >= n:
        raise ValueError("cannot raise degree beyond the ambient dimension")
    if phi.is_polynomial:
        return FormField(r + 1, n, polys=_derivative_polys(phi.polys, r, n))

    rank = {idx: k for k, idx in enumerate(multi_indices(r + 1, n))}
    h = phi.h
    in_indices = multi_indices(r, n)

    def d_eval(x, phi=phi, h=h):
        x = np.asarray(x, dtype=float)
        coeffs = np.zeros(comb(n, r + 1))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            dcoef = (phi(x + e).coefficients - phi(x - e).coefficients) / (2 * h)
            for k, lam in enumerate(in_indices):
                merged, sign = _wedge_basis_sign(j, lam)
                if sign:
                    coeffs[rank[merged]] += sign * dcoef[k]
        return CoVector(r + 1, n, coeffs)

    return FormField.from_callable(n, r + 1, d_eval, h=h)


# ----------------------------------------------------------------------
# pullback
# ----------------------------------------------------------------------

def _minor(mat: np.ndarray, rows, cols) -> float:
    if len(rows) == 0:
        return 1.0
    return float(np.linalg.det(mat[np.ix_(rows, cols)]))


def pullback(phi: FormField, f, *, jacobian=None, source_dim=None,
             h=1e-6) -> FormField:
    """Pullback f^#(phi); exact polynomial result for affine f and
    polynomial phi, sampled backend otherwise."""
    r = phi.degree
    affine = isinstance(f, AffineMap)
    if affine:
        if f.target_dim != phi.ambient:
            raise ValueError("map image dimension mismatch")
        m = f.source_dim
    else:
        m = source_dim if source_dim is not None else phi.ambient
    src_idx = multi_indices(r, m)
    tgt_idx = multi_indices(r, phi.ambient)
    if affine and phi.is_polynomial:
        polys = [Polynomial.zero(m) for _ in src_idx]
        for q, mu in enumerate(src_idx):
            acc = Polynomial.zero(m)
            for k, lam in enumerate(tgt_idx):
                if phi.polys[k].is_zero():
                    continue
                det = _minor(f.mat, lam, mu)
                if det != 0.0:
                    acc = acc + det * phi.polys[k].compose_affine(
                        f.mat, f.shift)
            polys[q] = acc
        return FormField(r, m, polys=polys)

    def jac_at(x):
        if affine:
            return f.mat
        if jacobian is not None:
            return np.asarray(jacobian(x), dtype=float)
        x = np.asarray(x, dtype=float)
        cols = []
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            cols.append((np.asarray(f(x + e), float)
                         - np.asarray(f(x - e), float)) / (2 * h))
        return np.stack(cols, axis=-1)

    def ev(x, phi=phi, f=f):
        jac = jac_at(x)
        cov = phi(f(x))
        coeffs = np.array([
            sum(cov.coefficients[k] * _minor(jac, lam, mu)
                for k, lam in enumerate(tgt_idx))
            for mu in src_idx])
        return CoVector(r, m, coeffs)

    return FormField.from_callable(m, r, ev, h=phi.h)


# ----------------------------------------------------------------------
# contraction and the Lie derivative
# ----------------------------------------------------------------------

def _contract_basis(lam: tuple, i: int):
    """dx^lam -| e_i = sign * dx^(lam minus i); None if i not in lam."""
    if i not in lam:
        return None, 0
    pos = lam.index(i)
    return lam[:pos] + lam[pos + 1:], (-1 if pos % 2 else 1)


def contract(phi: FormField, v: VectorField) -> FormField:
    """Pointwise interior product phi -| v (front-slot insertion)."""
    r, n = phi.degree, phi.ambient
    if r < 1:
        raise ValueError("cannot contract a 0-form")
    if v.ambient != n:
        raise ValueError("vector field ambient mismatch")
    out_idx = multi_indices(r - 1, n)
    rank = {idx: k for k, idx in enumerate(out_idx)}
    if phi.is_polynomial and v.is_polynomial:
        polys = [Polynomial.zero(n) for _ in out_idx]
        for k, lam in enumerate(multi_indices(r, n)):
            p = phi.polys[k]
            if p.is_zero():
                continue
            for pos, i in enumerate(lam):
                rest = lam[:pos] + lam[pos + 1:]
                sign = -1.0 if pos % 2 else 1.0
                polys[rank[rest]] = polys[rank[rest]] + sign * (
                    p * v.components[i])
        return FormField(r - 1, n, polys=polys)

    return FormField.from_callable(
        n, r - 1, lambda x, phi=phi, v=v: interior_product(phi(x), v(x)),
        h=phi.h)


def lie_derivative(phi: FormField, v: VectorField) -> FormField:
    """Cartan's formula: L_v(phi) = d(phi -| v) + (d phi) -| v."""
    if phi.degree == 0:
        # only the directional-derivative term survives
        return contract(exterior_derivative(phi), v)
    if phi.degree == phi.ambient:
        return exterior_derivative(contract(phi, v))
    return (exterior_derivative(contract(phi, v))
            + contract(exterior_derivative(phi), v))


def lie_derivative_components(phi: FormField, v: VectorField) -> FormField:
    """Component formula: (D phi)(v) plus the velocity-gradient term.

    Independent of the Cartan route; polynomial backends only.  Used as a
    cross-check oracle.
    """
    if not (phi.is_polynomial and v.is_polynomial):
        raise ValueError("component formula requires polynomial backends")
    r, n = phi.degree, phi.ambient
    idx = multi_indices(r, n)
    rank = {lam: k for k, lam in enumerate(idx)}
    polys = [Polynomial.zero(n) for _ in idx]
    # directional derivative of the coefficients
    for k, lam in enumerate(idx):
        acc = Polynomial.zero(n)
        for i in range(n):
            acc = acc + v.components[i] * phi.polys[k].diff(i)
        polys[k] = acc
    # dv^i_j * omega_lam * dx^j wedge (dx^lam -| e_i)
    for k, lam in enumerate(idx):
        p = phi.polys[k]
        if p.is_zero():
            continue
        for pos, i in enumerate(lam):
            rest, csign = _contract_basis(lam, i)
            for j in range(n):
                merged, wsign = _wedge_basis_sign(j, rest)
                if wsign:
                    polys[rank[merged]] = polys[rank[merged]] + (
                        csign * wsign) * (v.components[i].diff(j) * p)
    return FormField(r, n, polys=polys)


# ----------------------------------------------------------------------
# seminorms
# ----------------------------------------------------------------------

def _comass_exact_degree(r: int, n: int) -> bool:
    return r in (0, 1, n - 1, n)


def seminorm_comass(phi: FormField, box: Box, resolution=None,
                    restarts: int = 20, seed: int = 0) -> float:
    """Grid estimate of the K-comass seminorm sup_K ||phi(x)||_0."""
    pts = box.grid(resolution)
    r, n = phi.degree, phi.ambient
    if _comass_exact_degree(r, n):
        coeffs = phi.coefficients_at(pts)
        return float(np.max(np.linalg.norm(coeffs, axis=1)))
    best = 0.0
    for x in pts:
        val, _ = comass(phi(x), restarts=restarts, seed=seed)
        best = max(best, val)
    return best


def seminorm_flat(phi: FormField, box: Box, resolution=None, **kw) -> float:
    """max of the comass seminorms of phi and d(phi)."""
    m = seminorm_comass(phi, box, resolution, **kw)
    if phi.degree < phi.ambient:
        m = max(m, seminorm_comass(exterior_derivative(phi), box,
                                   resolution, **kw))
    return m


def form_lipschitz(phi: FormField, box: Box, resolution=None,
                   rng=None) -> float:
    """Lipschitz constant estimate max ||phi(y)-phi(x)||_0 / |y-x|.

    All grid pairs while the grid is small; random pair sampling beyond.
    """
    pts = box.grid(resolution)
    r, n = phi.degree, phi.ambient
    exact = _comass_exact_degree(r, n)
    if len(pts) <= _MAX_ALL_PAIR_POINTS and exact:
        coeffs = phi.coefficients_at(pts)
        diff = coeffs[:, None, :] - coeffs[None, :, :]
        num = np.linalg.norm(diff, axis=2)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        mask = dist > 0
        if not np.any(mask):
            return 0.0
        return float(np.max(num[mask] / dist[mask]))
    rng = rng or np.random.default_rng(0)
    lo = np.asarray(box.k_lower)
    hi = np.asarray(box.k_upper)
    npairs = _SAMPLED_PAIRS if exact else 2000
    best = 0.0
    batch = 1000 if exact else 50
    done = 0
    while done < npairs:
        k = min(batch, npairs - done)
        xs = rng.uniform(lo, hi, size=(k, n))
        ys = rng.uniform(lo, hi, size=(k, n))
        d = np.linalg.norm(xs - ys, axis=1)
        keep = d > 1e-12
        if exact:
            ca = phi.coefficients_at(xs[keep])
            cb = phi.coefficients_at(ys[keep])
            ratios = np.linalg.norm(ca - cb, axis=1) / d[keep]
            if ratios.size:
                best = max(best, float(np.max(ratios)))
        else:
            for x, y, dd in zip(xs[keep], ys[keep], d[keep]):
                val, _ = comass(phi(x) - phi(y), restarts=8)
                best = max(best, val / dd)
        done += k
    return best


def seminorm_sharp(phi: FormField, box: Box, resolution=None, **kw) -> float:
    """max of the sup-comass and (r+1) times the Lipschitz constant."""
    sup = seminorm_comass(phi, box, resolution, **kw)
    lip = form_lipschitz(phi, box, resolution)
    return max(sup, (phi.degree + 1) * lip)


# ----------------------------------------------------------------------
# time-dependent polynomial forms
# ----------------------------------------------------------------------

class TimePolynomialForm:
    """r-form on R^n whose coefficients are polynomials in (t, x_1..x_n)."""

    def __init__(self, ambient, degree, coeffs):
        """`coeffs`: mapping spatial multi-index -> Polynomial in 1+n vars."""
        self.ambient = ambient
        self.degree = degree
        self.ncomp = comb(ambient, degree)
        polys = [Polynomial.zero(ambient + 1) for _ in range(self.ncomp)]
        for idx, p in coeffs.items():
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(ambient + 1, float(p))
            if p.nvars != ambient + 1:
                raise ValueError("coefficients must be polynomials in (t, x)")
            if len(idx) != degree:
                raise ValueError(f"multi-index {idx} has wrong length for "
                                 f"degree {degree}")
            polys[basis_rank(tuple(idx), ambient)] = p
        self.polys = polys

    @classmethod
    def static(cls, phi: FormField) -> "TimePolynomialForm":
        if not phi.is_polynomial:
            raise ValueError("static lift needs a polynomial form")
        coeffs = {idx: phi.polys[k].prepend_variable()
                  for k, idx in enumerate(multi_indices(phi.degree,
                                                        phi.ambient))}
        return cls(phi.ambient, phi.degree, coeffs)

    def at_time(self, t: float) -> FormField:
        return FormField(self.degree, self.ambient,
                         polys=[p.substitute_first(t) for p in self.polys])

    def time_derivative(self) -> "TimePolynomialForm":
        out = TimePolynomialForm(self.ambient, self.degree, {})
        out.polys = [p.diff(0) for p in self.polys]
        return out

    def exterior_derivative(self) -> "TimePolynomialForm":
        """Spatial exterior derivative, keeping the time dependence."""
        out = TimePolynomialForm(self.ambient, self.degree + 1, {})
        # spatial variable j is slot j+1 of (t, x)
        out.polys = _derivative_polys(self.polys, self.degree, self.ambient,
                                      offset=1)
        return out


def time_slice_contract(omega: FormField, t: float) -> FormField:
    """For omega of degree r+1 on R x R^n (slot 0 is time), return the
    spatial r-form (omega(t, .) -| e_t)."""
    if not omega.is_polynomial:
        def ev(x, omega=omega, t=t):
            cov = omega(np.concatenate([[t], np.asarray(x, float)]))
            et = np.zeros(omega.ambient)
            et[0] = 1.0
            contracted = interior_product(cov, et)
            # restrict to purely spatial components
            n = omega.ambient - 1
            r = contracted.degree
            out = np.zeros(comb(n, r))
            for k, lam in enumerate(multi_indices(r, omega.ambient)):
                if 0 in lam:
                    continue
                shifted = tuple(i - 1 for i in lam)
                out[basis_rank(shifted, n)] = contracted.coefficients[k]
            return CoVector(r, n, out)
        return FormField.from_callable(omega.ambient - 1,
                                       omega.degree - 1, ev, h=omega.h)
    n = omega.ambient - 1
    r = omega.degree - 1
    polys = [Polynomial.zero(n) for _ in range(comb(n, r))]
    for k, lam in enumerate(multi_indices(omega.degree, omega.ambient)):
        if lam[0] != 0:
            continue  # no dt factor: killed by the contraction's spatial slice
        spatial = tuple(i - 1 for i in lam[1:])
        polys[basis_rank(spatial, n)] = omega.polys[k].substitute_first(t)
    return FormField(r, n, polys=polys)
