"""Differential r-form fields on R^n, and their seminorms over a compact
box K.

Two backends: exact multivariate-polynomial coefficients, and a sampled
(black-box) evaluator on point arrays, differentiated by central
differences.  The module also houses vector fields, pullbacks,
contraction, the Lie derivative and the comass/flat/sharp seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .exterior import (CoVector, _comass_rows, _contract_terms, _euclidean,
                       _wedge_terms, basis_rank, binary_exponent,
                       contract_rows, multi_indices)
from .polynomial import Polynomial, _real_array
from .quadrature import _check_size, _read_only, _shown, _whole_number

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
    "Cochain",
]

_MAX_ALL_PAIR_POINTS = 1500
_SAMPLED_PAIRS = 100_000
_FD_STEP = 1e-5  # central-difference step, relative to the point's scale


@dataclass(frozen=True)
class Box:
    """The compact box K = [lower, upper], on which the seminorms are
    taken, carrying a uniform sample grid of `resolution` points an axis,
    at most `_SIZE_CAP` in all."""

    lower: tuple
    upper: tuple
    resolution: int = 9

    def __post_init__(self):
        def corners_error(what):
            return ValueError(f"box lower and upper must be {what}, got "
                              f"{_shown(self.lower)} and "
                              f"{_shown(self.upper)}")

        try:
            lo, hi = _real_array(self.lower), _real_array(self.upper)
        except ValueError:
            raise corners_error("numbers") from None
        if lo.ndim != 1 or hi.ndim != 1 or not (lo.size and hi.size):
            raise corners_error("one number per axis")
        if lo.shape != hi.shape or not np.all(
                np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("box requires finite lower < upper in each axis")
        resolution = _whole_number("grid resolution", self.resolution, 2)
        _check_size("grid resolution", resolution, [resolution] * len(lo),
                    "grid points")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))
        object.__setattr__(self, "_tables", {})  # grid and pair table

    @property
    def dim(self) -> int:
        return len(self.lower)

    def grid(self) -> np.ndarray:
        """Uniform grid over K, `resolution` points per axis, shape (m,
        dim), row-major.  It is built once and kept on the box, so the
        array returned is read-only."""
        if "grid" not in self._tables:
            axes = [np.linspace(a, b, self.resolution)
                    for a, b in zip(self.lower, self.upper)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._tables["grid"], = _read_only(
                np.stack([m.ravel() for m in mesh], axis=-1))
        return self._tables["grid"]

    def grid_pairs(self):
        """The pairs i < j of distinct points of `grid()` and their
        distances |x_i - x_j| > 0, as read-only arrays (i, j, dist), built
        once.  The distances are column sums (`_pair_norms`)."""
        if "pairs" not in self._tables:
            pts = self.grid()
            i, j = np.triu_indices(len(pts), 1)
            dist = _pair_norms(pts, i, j)
            keep = dist > 0
            if not keep.all():
                i, j, dist = i[keep], j[keep], dist[keep]
            self._tables["pairs"] = _read_only(i, j, dist)
        return self._tables["pairs"]

    @classmethod
    def unit(cls, dim: int, resolution: int = 9) -> "Box":
        """K = [0, 1]^dim."""
        return cls(tuple([0.0] * dim), tuple([1.0] * dim), resolution)


@dataclass(frozen=True)
class AffineMap:
    """x -> mat @ x + shift, with exact Jacobian."""

    mat: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.array(self.mat, dtype=float))
        object.__setattr__(self, "shift", np.array(self.shift, dtype=float))

    def __call__(self, x):
        """Images of a point (n,) or of points (m, n)."""
        x = np.asarray(x, dtype=float)
        return np.matmul(self.mat, x[..., None])[..., 0] + self.shift

    @property
    def source_dim(self):
        return self.mat.shape[1]

    @property
    def target_dim(self):
        return self.mat.shape[0]


class FormField:
    """Differential r-form on (a box in) R^n.

    Construct with `from_polynomials` for the exact backend or
    `from_callable` for the sampled backend, a function from points
    (m, n) to coefficients (m, C(n, r)).
    """

    def __init__(self, degree, ambient, *, polys=None, func=None):
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

    # -- constructors -------------------------------------------------
    @classmethod
    def from_polynomials(cls, ambient, degree, coeffs) -> "FormField":
        """`coeffs`: mapping multi-index tuple -> Polynomial (or number)."""
        return cls(degree, ambient, polys=_coefficient_polys(
            coeffs, degree, ambient, ambient))

    @classmethod
    def from_callable(cls, ambient, degree, func) -> "FormField":
        """Sampled form: `func` maps points (m, ambient) to coefficients
        (m, C(ambient, degree))."""
        return cls(degree, ambient, func=func)

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
        return CoVector(self.degree, self.ambient,
                        self.coefficients_at(np.asarray(x, float)[None])[0])

    def coefficients_at(self, pts: np.ndarray) -> np.ndarray:
        """Coefficient matrix at many points (m, n), shape (m, ncomp)."""
        pts = np.asarray(pts, dtype=float)
        if self.is_polynomial:
            return np.stack([p.eval_many(pts) for p in self.polys], axis=-1)
        return _sampled(self.func, pts, (self.ncomp,), "form coefficients")

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "FormField") -> "FormField":
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            return FormField(self.degree, self.ambient,
                             polys=[a + b for a, b in
                                    zip(self.polys, other.polys)])
        return FormField.from_callable(
            self.ambient, self.degree,
            lambda x, a=self, b=other: (a.coefficients_at(x)
                                        + b.coefficients_at(x)))

    def __sub__(self, other: "FormField") -> "FormField":
        return self + (other * -1.0)

    def __mul__(self, c: float) -> "FormField":
        if self.is_polynomial:
            return FormField(self.degree, self.ambient,
                             polys=[p * c for p in self.polys])
        return FormField.from_callable(
            self.ambient, self.degree,
            lambda x, a=self, cc=c: a.coefficients_at(x) * cc)

    __rmul__ = __mul__

    def _check(self, other):
        if (self.degree, self.ambient) != (other.degree, other.ambient):
            raise ValueError("form degree/ambient mismatch")


def _coefficient_polys(coeffs, degree: int, ambient: int,
                       nvars: int) -> list:
    """The coefficient polynomials in `nvars` variables of `coeffs`, a
    mapping from multi-index to Polynomial or number; a degree outside
    0..ambient or a bad key raises a ValueError that names it."""
    if not 0 <= degree <= ambient:
        raise ValueError(f"degree {degree!r} must be between 0 and the "
                         f"ambient dimension {ambient}")
    polys = [Polynomial.zero(nvars) for _ in range(comb(ambient, degree))]
    for idx, p in coeffs.items():
        key = tuple(idx)
        if (len(key) != degree or list(key) != sorted(set(key))
                or not all(0 <= i < ambient for i in key)):
            raise ValueError(f"multi-index {idx!r} must be {degree} strictly "
                             f"increasing axis indices below {ambient}")
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(nvars, float(p))
        if p.nvars != nvars:
            raise ValueError(f"coefficient {idx!r} needs {nvars} variables")
        polys[basis_rank(key, ambient)] = p
    return polys


def _sampled(func, pts: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """`func` at points (m, n), checked once per batch: its values must
    have shape (m, *shape) and be finite.  A batch of m == shape[0] points
    goes in with its last point repeated, a row dropped from the values:
    a callable of one point x, whose x[0], x[1], ... are then rows of the
    batch, would otherwise pass the check with the batch's rows as its
    values."""
    m = len(pts)
    batch = np.concatenate([pts, pts[-1:]]) if m == shape[0] else pts
    out = np.asarray(func(batch), dtype=float)
    if out.shape != (len(batch), *shape):
        want = ", ".join(["m", *map(str, shape)])
        raise ValueError(
            f"a callable for {what} must map points of shape (m, "
            f"{pts.shape[1]}) to an array of shape ({want}); got shape "
            f"{out.shape} for m = {len(batch)}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite {what}")
    return out[:m]


@dataclass(frozen=True)
class VectorField:
    """Vector field on R^n: an evaluator from points (m, n) to vectors
    (m, n) or polynomial components."""

    ambient: int
    func: object = None
    components: tuple = None  # tuple[Polynomial, ...]

    def __post_init__(self):
        if self.components is not None:
            comps = tuple(self.components)
            if len(comps) != self.ambient:
                raise ValueError("component count mismatch")
            object.__setattr__(self, "components", comps)
        elif self.func is None:
            raise ValueError("vector field needs components or an evaluator")

    @classmethod
    def from_polynomials(cls, comps) -> "VectorField":
        comps = tuple(comps)
        return cls(len(comps), components=comps)

    @classmethod
    def constant(cls, vec) -> "VectorField":
        vec = np.asarray(vec, dtype=float)
        comps = tuple(Polynomial.constant(vec.size, v) for v in vec)
        return cls(vec.size, components=comps)

    @classmethod
    def random_polynomial(cls, ambient, rng, max_degree=2) -> "VectorField":
        return cls.from_polynomials(
            [Polynomial.random(ambient, max_degree, rng)
             for _ in range(ambient)])

    @property
    def is_polynomial(self) -> bool:
        return self.components is not None

    def __call__(self, x) -> np.ndarray:
        return self.values_at(np.asarray(x, float)[None])[0]

    def values_at(self, pts: np.ndarray) -> np.ndarray:
        """Vectors at many points (m, n), shape (m, n)."""
        pts = np.asarray(pts, dtype=float)
        if self.is_polynomial:
            return np.stack([p.eval_many(pts) for p in self.components],
                            axis=-1)
        return _sampled(self.func, pts, (self.ambient,),
                        "vector field values")


# ----------------------------------------------------------------------
# exterior derivative
# ----------------------------------------------------------------------

def _derivative_polys(polys, r: int, n: int) -> list:
    """Coefficient polynomials of d of the r-form on R^n whose
    coefficients are `polys`.

    d(p dx^lam) adds dx^j wedge dx^lam, the sign of dx^lam wedge dx^j
    times (-1)^r, for each j."""
    out = [Polynomial.zero(n) for _ in range(comb(n, r + 1))]
    for k, j, merged, sign in _wedge_terms(r, 1, n):
        if not polys[k].is_zero():
            out[merged] = out[merged] + (sign * (-1) ** r) * polys[k].diff(j)
    return out


def _central_differences(func, x: np.ndarray) -> np.ndarray:
    """(func(x + h e_j) - func(x - h e_j)) / 2h at each point of x (m, n)
    and axis j, shape (m, n, c), for `func` mapping points (p, n) to
    values (p, c), in one call.  The step h is `_FD_STEP` times |x|_inf,
    so that the relative error does not change with the coordinate
    scale, and `_FD_STEP` where that is 0, at the origin."""
    m, n = x.shape
    h = _FD_STEP * np.abs(x).max(axis=1)
    h[h == 0.0] = _FD_STEP
    steps = h[:, None, None] * np.eye(n)
    pts = x[:, None, :] + np.concatenate([steps, -steps], axis=1)
    vals = func(pts.reshape(-1, n))
    vals = vals.reshape(m, 2, n, vals.shape[-1])
    return (vals[:, 0] - vals[:, 1]) / (2 * h[:, None, None])


def exterior_derivative(phi: FormField) -> FormField:
    """d(phi); exact for polynomial backends, `_central_differences`
    otherwise."""
    r, n = phi.degree, phi.ambient
    if r >= n:
        raise ValueError("cannot raise degree beyond the ambient dimension")
    if phi.is_polynomial:
        return FormField(r + 1, n, polys=_derivative_polys(phi.polys, r, n))

    def d_eval(x, phi=phi):
        dcoef = _central_differences(phi.coefficients_at, x)
        out = np.zeros((len(x), comb(n, r + 1)))
        for j, k, merged, sign in _wedge_terms(1, r, n):
            out[:, merged] += sign * dcoef[:, j, k]
        return out

    return FormField.from_callable(n, r + 1, d_eval)


# ----------------------------------------------------------------------
# pullback
# ----------------------------------------------------------------------

def _minor(mat: np.ndarray, rows, cols) -> np.ndarray:
    """Minor of a matrix (p, q), or of each of a stack (m, p, q): the
    determinant of the rows `rows` and the columns `cols`; 1 when empty."""
    if len(rows) == 0:
        return np.ones(mat.shape[:-2])
    return np.linalg.det(mat[..., rows, :][..., cols])


def pullback(phi: FormField, f) -> FormField:
    """Pullback f^#(phi) by an AffineMap, whose source and target
    dimensions may differ, or by a LipMap on R^n; exact polynomial result
    for affine f and polynomial phi, sampled backend otherwise.  The
    Jacobian of a LipMap is its own when given, else
    `_central_differences` of its images.  No subcommand calls it: the
    tests' Lagrangian transport oracle is built on it."""
    r = phi.degree
    affine = isinstance(f, AffineMap)
    m = f.source_dim if affine else f.ambient
    if (f.target_dim if affine else f.ambient) != phi.ambient:
        raise ValueError("map image dimension mismatch")
    src_idx = multi_indices(r, m)
    tgt_idx = multi_indices(r, phi.ambient)
    if affine and phi.is_polynomial:
        polys = [Polynomial.zero(m) for _ in src_idx]
        for q, mu in enumerate(src_idx):
            acc = Polynomial.zero(m)
            for k, lam in enumerate(tgt_idx):
                if phi.polys[k].is_zero():
                    continue
                det = float(_minor(f.mat, lam, mu))
                if det != 0.0:
                    acc = acc + det * phi.polys[k].compose_affine(
                        f.mat, f.shift)
            polys[q] = acc
        return FormField(r, m, polys=polys)

    def jacobian(x):
        if affine:
            return np.broadcast_to(f.mat, (len(x), *f.mat.shape))
        if f.jacobian is not None:
            return f.jacobians_at(x)
        return _central_differences(f.values_at, x).transpose(0, 2, 1)

    def ev(x, phi=phi, f=f):
        jac = jacobian(x)
        cov = phi.coefficients_at(f(x) if affine else f.values_at(x))
        out = np.zeros((len(x), len(src_idx)))
        for q, mu in enumerate(src_idx):
            for k, lam in enumerate(tgt_idx):
                out[:, q] += cov[:, k] * _minor(jac, lam, mu)
        return out

    return FormField.from_callable(m, r, ev)


# ----------------------------------------------------------------------
# contraction and the Lie derivative
# ----------------------------------------------------------------------

def contract(phi: FormField, v: VectorField) -> FormField:
    """Pointwise interior product phi -| v (front-slot insertion)."""
    r, n = phi.degree, phi.ambient
    if r < 1:
        raise ValueError("cannot contract a 0-form")
    if v.ambient != n:
        raise ValueError("vector field ambient mismatch")
    if phi.is_polynomial and v.is_polynomial:
        polys = [Polynomial.zero(n) for _ in range(comb(n, r - 1))]
        for k, i, rest, sign in _contract_terms(r, n):
            if not phi.polys[k].is_zero():
                polys[rest] = polys[rest] + sign * (
                    phi.polys[k] * v.components[i])
        return FormField(r - 1, n, polys=polys)

    return FormField.from_callable(
        n, r - 1, lambda x, phi=phi, v=v: contract_rows(
            phi.coefficients_at(x), v.values_at(x), r))


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
    polys = [Polynomial.zero(n) for _ in idx]
    # directional derivative of the coefficients
    for k, lam in enumerate(idx):
        acc = Polynomial.zero(n)
        for i in range(n):
            acc = acc + v.components[i] * phi.polys[k].diff(i)
        polys[k] = acc
    # dv^i_j * omega_lam * dx^j wedge (dx^lam -| e_i); none at r = 0
    for k, i, rest, csign in (_contract_terms(r, n) if r else ()):
        p = phi.polys[k]
        if p.is_zero():
            continue
        for j, lam, merged, wsign in _wedge_terms(1, r - 1, n):
            if lam == rest:
                polys[merged] = polys[merged] + (csign * wsign) * (
                    v.components[i].diff(j) * p)
    return FormField(r, n, polys=polys)


# ----------------------------------------------------------------------
# seminorms
# ----------------------------------------------------------------------

def _check_box(box: Box, ambient: int):
    """A ValueError unless K is in R^ambient."""
    if box.dim != ambient:
        raise ValueError(f"a box in R^{box.dim} cannot sample a form or map "
                         f"on R^{ambient}")


def seminorm_comass(phi: FormField, box: Box) -> float:
    """Grid max of the comass of phi(x) by `exterior._comass_rows`: the
    K-comass seminorm sampled on the grid, with the Euclidean upper bound
    in its place at 3 <= r <= n-3."""
    _check_box(box, phi.ambient)
    coeffs = phi.coefficients_at(box.grid())
    return float(np.max(_comass_rows(coeffs, phi.degree, phi.ambient)))


def seminorm_flat(phi: FormField, box: Box) -> float:
    """max of the comass seminorms of phi and d(phi)."""
    sup = seminorm_comass(phi, box)
    if phi.degree < phi.ambient:
        return max(sup, seminorm_comass(exterior_derivative(phi), box))
    return sup


def _pair_norms(table: np.ndarray, i, j) -> np.ndarray:
    """|table[i] - table[j]| for each pair, one column of `table` at a
    time: the columns' squared differences summed left to right, then the
    square root.  The table is taken times 2**-k, k =
    `binary_exponent(table)`, and the norms times 2**k, so no square
    underflows or overflows at any scale of the table; a difference far
    below its largest entry still can.  Below 8 columns, where every
    square is a normal float, the norms are np.linalg.norm(..., axis=1)'s
    bit for bit."""
    k = binary_exponent(table)
    total = np.zeros(len(i))
    for col in np.ldexp(table.T, -k, order="C"):
        d = col[i]
        d -= col[j]
        d *= d
        total += d
    return np.ldexp(np.sqrt(total, out=total), k, out=total)


def _pair_lipschitz(values_at, box: Box) -> tuple:
    """(max |F(x) - F(y)| / |x - y|, pair count) for `values_at` mapping
    points (m, n) to values (m, c): every pair of `Box.grid_pairs` up to
    `_MAX_ALL_PAIR_POINTS` grid points, seeded uniform pairs beyond."""
    pts = box.grid()
    if len(pts) <= _MAX_ALL_PAIR_POINTS:
        i, j, dist = box.grid_pairs()
        num = _pair_norms(values_at(pts), i, j)
        return float(np.max(num / dist, initial=0.0)), len(i)
    rng = np.random.default_rng(0)
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    best, count = 0.0, 0
    for _ in range(_SAMPLED_PAIRS // 1000):
        xs = rng.uniform(lo, hi, size=(1000, box.dim))
        ys = rng.uniform(lo, hi, size=(1000, box.dim))
        d = _euclidean(xs - ys, axis=1)
        keep = d > 0.0
        diff = values_at(xs[keep]) - values_at(ys[keep])
        ratios = _euclidean(diff, axis=1) / d[keep]
        best = max(best, float(np.max(ratios, initial=0.0)))
        count += len(ratios)
    return best, count


def form_lipschitz(phi: FormField, box: Box) -> float:
    """Lipschitz estimate of phi's coefficients over K (`_pair_lipschitz`)."""
    _check_box(box, phi.ambient)
    return _pair_lipschitz(phi.coefficients_at, box)[0]


def seminorm_sharp(phi: FormField, box: Box) -> float:
    """max of the sup-comass and (r+1) times the Lipschitz constant."""
    return max(seminorm_comass(phi, box),
               (phi.degree + 1) * form_lipschitz(phi, box))


# ----------------------------------------------------------------------
# cochains: time-dependent polynomial forms
# ----------------------------------------------------------------------

class Cochain:
    """Sharp r-cochain on R^n, represented by the r-form whose coefficient
    polynomials `polys` are in (t, x_1..x_n); it acts on a current by
    evaluation against its form at a time.  A time-dependent density is
    a 0-cochain."""

    def __init__(self, ambient, degree, coeffs):
        """`coeffs`: mapping spatial multi-index -> Polynomial in 1+n vars."""
        self.ambient = ambient
        self.degree = degree
        self.polys = _coefficient_polys(coeffs, degree, ambient, ambient + 1)

    def form_at(self, t: float) -> FormField:
        """The form at time t."""
        return FormField(self.degree, self.ambient,
                         polys=[p.substitute_first(t) for p in self.polys])

    def dot_at(self, t: float) -> FormField:
        """The form's time derivative at time t."""
        return FormField(self.degree, self.ambient,
                         polys=[p.diff(0).substitute_first(t)
                                for p in self.polys])

