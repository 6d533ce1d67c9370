"""Sparse multivariate polynomials with float coefficients.

Monomials are exponent tuples; arithmetic is exact up to float rounding,
which makes identities like d(d(phi)) = 0 hold coefficient-wise for
integer-coefficient data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Polynomial"]

_DROP = 0.0  # coefficients exactly zero are dropped; no epsilon pruning
_REAL = (int, float, np.integer, np.floating)  # the coefficient types


def _is_whole(value) -> bool:
    """Whether `value` is a whole number: an integer, or a float with no
    fraction; never a bool."""
    if isinstance(value, (int, np.integer)):
        return type(value) is not bool
    return isinstance(value, float) and value.is_integer()


def _finite_terms(terms: dict) -> dict:
    """`terms` with float coefficients and the exact zeros dropped; a
    ValueError on a non-finite coefficient."""
    clean = {}
    for expo, c in terms.items():
        c = float(c)
        if c != _DROP:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} of {expo}")
            clean[expo] = c
    return clean


def _checked_terms(nvars: int, pairs) -> dict:
    """The terms of (exponents, coefficient) pairs, those with the same
    exponents summed in order.  A ValueError unless every exponent is a
    whole number >= 0 (by the rule of `_is_whole`), every exponent tuple
    has `nvars` entries and every coefficient is a finite real number
    (not a bool or a string)."""
    total = {}
    for expo, c in pairs:
        try:
            expo = tuple(expo)
        except TypeError:
            raise ValueError(f"exponents {expo!r} are not a list") from None
        if len(expo) != nvars:
            raise ValueError(f"exponent {expo} has wrong arity")
        if not all(map(_is_whole, expo)) or min(expo, default=0) < 0:
            raise ValueError(f"exponents {expo!r} must be whole numbers "
                             f">= 0")
        if type(c) is bool or not isinstance(c, _REAL):
            raise ValueError(f"coefficient {c!r} of {expo!r} is not a real "
                             f"number")
        try:
            c = float(c)
        except OverflowError:
            raise ValueError(f"non-finite coefficient {c} of {expo}") \
                from None
        expo = tuple(map(int, expo))
        total[expo] = total.get(expo, 0.0) + c
    return _finite_terms(total)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in `nvars` variables, stored as {exponents: coefficient}.

    The public constructor is the trust boundary: it checks its terms by
    the rule of `_checked_terms`.  Arithmetic on valid polynomials
    (`+`, `-`, `*`, `diff`, `substitute_first`, `compose_affine`), and
    `zero`, `variable` and `random`, which make their own exponents,
    build their results through `_of`, which only converts, drops exact
    zeros and rejects a non-finite coefficient (an overflow, inf - inf).
    """

    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           _checked_terms(self.nvars, self.terms.items()))

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Polynomial":
        """A polynomial from terms whose exponent tuples are known valid,
        as those of arithmetic on valid polynomials are."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", _finite_terms(terms))
        return poly

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._of(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        expo = [0] * nvars
        expo[i] = 1
        return cls._of(nvars, {tuple(expo): 1.0})

    @classmethod
    def random(cls, nvars: int, max_degree: int,
               rng: np.random.Generator) -> "Polynomial":
        """Random polynomial of at most 4 terms with integer coefficients
        in [-3, 3] (exact in floats)."""
        terms = {}
        for _ in range(4):
            expo = tuple(int(rng.integers(0, max_degree + 1))
                         for _ in range(nvars))
            if sum(expo) > max_degree:
                continue
            c = int(rng.integers(-3, 4))
            if c:
                terms[expo] = terms.get(expo, 0.0) + c
        return cls._of(nvars, terms)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial._of(self.nvars, out)

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial._of(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial._of(self.nvars, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Polynomial.constant(self.nvars, float(other))

    # -- calculus -----------------------------------------------------
    def diff(self, i: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = out.get(tuple(de), 0.0) + c * e[i]
        return Polynomial._of(self.nvars, out)

    def __call__(self, x) -> float:
        """Value at one point: `eval_many` on one row."""
        return float(self.eval_many(np.asarray(x, dtype=float)[None])[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points, shape (m, nvars)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            term = np.full(pts.shape[0], c)
            for i, ei in enumerate(e):
                if ei:
                    term *= pts[:, i] ** ei
            out += term
        return out

    def compose_affine(self, mat: np.ndarray, shift: np.ndarray) -> "Polynomial":
        """Substitute x_i = sum_j mat[i, j] y_j + shift[i]."""
        mat = np.asarray(mat, dtype=float)
        shift = np.asarray(shift, dtype=float)
        m = mat.shape[1]
        subs = [
            Polynomial._of(m, {tuple(int(k == j) for k in range(m)):
                               mat[i, j]
                               for j in range(m) if mat[i, j] != 0.0})
            + Polynomial.constant(m, shift[i])
            for i in range(self.nvars)
        ]
        out = Polynomial.zero(m)
        for e, c in self.terms.items():
            term = Polynomial.constant(m, c)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    term = term * subs[i]
            out = out + term
        return out

    def substitute_first(self, value: float) -> "Polynomial":
        """Fix the first variable to a number, returning a polynomial in the rest."""
        out = {}
        for e, c in self.terms.items():
            rest = e[1:]
            try:
                power = value ** e[0]
            except OverflowError:  # a float power raises; _of rejects inf
                power = math.inf
            out[rest] = out.get(rest, 0.0) + c * power
        return Polynomial._of(self.nvars - 1, out)

    # -- misc ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    @classmethod
    def from_json_obj(cls, nvars: int, obj) -> "Polynomial":
        """A polynomial from a list of {"exponents": [...], "coefficient":
        c} terms; repeated exponents are summed in list order.  A
        ValueError names a term that is not such an object."""
        if not isinstance(obj, list):
            raise ValueError(f"polynomial terms must be a list, got {obj!r}")
        pairs = []
        for i, t in enumerate(obj):
            if not isinstance(t, dict):
                raise ValueError(f"polynomial term {i} is not an object")
            for key in ("exponents", "coefficient"):
                if key not in t:
                    raise ValueError(f"polynomial term {i} has no {key!r}")
            pairs.append((t["exponents"], t["coefficient"]))
        return cls._of(nvars, _checked_terms(nvars, pairs))

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{ei}" for i, ei in enumerate(e) if ei)
            bits.append(f"{c:g}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"
