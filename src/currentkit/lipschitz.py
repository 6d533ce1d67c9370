"""Lipschitz maps: constant estimation and pushforward of simplicial
chains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, _edge_wedges, vertex_table
from .forms import AffineMap, Box, _sampled

__all__ = [
    "LipMap",
    "lipschitz_constant",
    "pushforward_chain",
    "make_map",
]

_DEFAULT_PAIRS = 100_000


@dataclass(frozen=True)
class LipMap:
    """Lipschitz map on (a box in) R^n: `func` maps points (m, n) to their
    images (m, n), and `jacobian`, when given, maps points (m, n) to the
    exact Jacobians (m, n, n)."""

    ambient: int
    func: object
    jacobian: object = None
    name: str = ""

    def __call__(self, x):
        return self.values_at(np.asarray(x, float)[None])[0]

    def values_at(self, pts) -> np.ndarray:
        """Images of many points (m, n), shape (m, n), checked once per
        batch for shape and finite values."""
        return _sampled(self.func, np.asarray(pts, dtype=float),
                        (self.ambient,), "map images")

    def jacobians_at(self, pts) -> np.ndarray:
        """`jacobian` at many points (m, n), shape (m, n, n), checked once
        per batch for shape and finite values like `values_at`."""
        n = self.ambient
        return _sampled(self.jacobian, np.asarray(pts, dtype=float), (n, n),
                        "Jacobians")

    @classmethod
    def identity(cls, ambient: int) -> "LipMap":
        return cls.affine(np.eye(ambient), name="identity")

    @classmethod
    def affine(cls, mat, shift=None, name="affine") -> "LipMap":
        mat = np.asarray(mat, dtype=float)
        if shift is None:
            shift = np.zeros(mat.shape[0])
        return cls(mat.shape[1], AffineMap(mat, shift),
                   lambda x: np.broadcast_to(mat, (len(x), *mat.shape)),
                   name=name)


def _halton(count: int, base: int) -> np.ndarray:
    """The first `count` points of the van der Corput sequence in `base`,
    one digit of all points per step: each point's sum takes the same
    terms in the same order as a scalar digit loop, and a point whose
    digits have run out adds 0.0, which leaves it as it is."""
    k = np.arange(1, count + 1)
    seq = np.zeros(count)
    f = 1.0
    while k.any():
        f /= base
        seq += f * (k % base)
        k //= base
    return seq


def _sample_pairs(box: Box, n_pairs: int):
    """Deterministic pairs: Halton-sequence global pairs plus all
    grid-neighbor pairs, axis by axis."""
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    n = box.dim
    primes = [2, 3, 5, 7, 11, 13][:n]
    count = n_pairs
    qr = np.stack([_halton(2 * count, p) for p in primes], axis=-1)
    pts = lo + qr * (hi - lo)
    xs, ys = pts[:count], pts[count:]
    grid = box.grid()
    res = box.resolution
    # neighbor pairs along each axis of the raveled grid
    lower, upper = [], []
    for stride in (res ** k for k in range(n - 1, -1, -1)):
        i = np.arange(len(grid) - stride)
        i = i[(i // stride) % res != res - 1]
        lower.append(i)
        upper.append(i + stride)
    lower = np.concatenate(lower)
    if lower.size:
        xs = np.vstack([xs, grid[lower]])
        ys = np.vstack([ys, grid[np.concatenate(upper)]])
    return xs, ys


def _pair_ratios(f: LipMap, xs, ys):
    # f is called once, on the distinct points by the vertex rule
    table, ids = vertex_table(np.concatenate([xs, ys]))
    images = f.values_at(table)[ids]
    fx, fy = images[:len(xs)], images[len(xs):]
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    keep = den > 0.0
    return num[keep] / den[keep]


def lipschitz_constant(f: LipMap, box: Box, n_pairs: int = _DEFAULT_PAIRS):
    """Sampled estimate of the K-Lipschitz constant.

    The sample is a deterministic Halton set plus the grid-neighbor pairs.
    Refined by Jacobian spectral norms on the grid when the Jacobian is
    available.  Returns (estimate, sample_count).  No subcommand calls
    it (`verify` takes the exact |A|_2 of its affine map); the tests'
    oracles do.
    """
    xs, ys = _sample_pairs(box, n_pairs)
    best = float(np.max(_pair_ratios(f, xs, ys)))
    if f.jacobian is not None:
        best = max(best, float(np.max(np.linalg.norm(
            f.jacobians_at(box.grid()), 2, axis=(1, 2)))))
    return best, len(xs)


def pushforward_chain(f: LipMap, T: Chain, levels: int = 0) -> Chain:
    """Vertex-mapped pushforward after `levels` uniform subdivisions.

    The chain's vertex table is mapped in one call; images that coincide
    are one vertex of the pushed chain, by the rule of
    `chains.vertex_table`.  Exact for affine-per-simplex maps; converges
    in evaluation as levels grows for curved Lipschitz maps.  A
    non-finite image vertex (from `LipMap.values_at`), and a degenerate
    image simplex by the rule of `chains._edge_wedges`, raise a
    ValueError.
    """
    work = T.subdivided(levels)
    if not len(work):
        return work
    table, ids = vertex_table(f.values_at(work.table))
    pushed = ids[work.ids]
    if work.degree and np.any(_edge_wedges(table[pushed])[2]):
        raise ValueError("degenerate image simplex in pushforward")
    return Chain._of(table, pushed, work.mults)


# ----------------------------------------------------------------------
# built-in map library
# ----------------------------------------------------------------------

def _tent(u, center: float, width: float):
    """The hat function of `center` and half-width `width`, elementwise."""
    return np.maximum(0.0, 1.0 - np.abs(u - center) / width)


def _tent_lift(x, amplitudes, center: float, width: float,
               axis: int) -> np.ndarray:
    """The tent map of each of the amplitudes (K,) at points x (m, n),
    shape (K, m, n): x lifted along `axis` by the amplitude times the hat
    of x[:, 0].  The lift is added through the (K * m, n) view of the
    stack, so a table with no column `axis` raises the IndexError of the
    one-map case."""
    lift = amplitudes[:, None] * _tent(x[:, 0], center, width)
    out = np.repeat(x[None], len(amplitudes), axis=0)
    out.reshape(-1, x.shape[1])[:, axis] += lift.ravel()
    return out


def _planar_rotation(theta) -> np.ndarray:
    """The rotation matrix by the angle `theta`, or a stack of them by an
    array of angles, shape (*theta.shape, 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1),
                     np.stack([s, c], axis=-1)], axis=-2)


def _affine_frames(kind: str, ambient: int, values) -> tuple:
    """The matrices (K, n, n) and shifts (K, n) of an affine map family at
    K values of its parameter: the offsets (K, n) of a `translation`, the
    angles (K,) of a `rotation`, the strengths (K,) of a `shear` and the
    factors (K,) of a `scaling`.  `make_map` takes one value, and each
    affine `make_motion` family the values at an array of times."""
    values = np.asarray(values, dtype=float)
    eyes = np.broadcast_to(np.eye(ambient), (len(values), ambient, ambient))
    shifts = np.zeros((len(values), ambient))
    if kind == "translation":
        return eyes, values
    if kind == "rotation":
        return _planar_rotation(values), shifts
    if kind == "shear":
        mats = eyes.copy()
        mats[:, 0, 1] = values
        return mats, shifts
    return values[:, None, None] * np.eye(ambient), shifts


def _affine_map(kind: str, ambient: int, value, name: str) -> LipMap:
    """The affine map of `_affine_frames` at one value of its parameter."""
    mats, shifts = _affine_frames(kind, ambient, [value])
    return LipMap.affine(mats[0], shifts[0], name=name)


def make_map(name: str, ambient: int = 2, **params) -> LipMap:
    """Named map families: translation, rotation, shear, scaling,
    radial_stretch, tent."""
    if name in ("identity", "translation"):
        # the identity is the translation by 0
        offset = (params.get("offset", np.zeros(ambient))
                  if name == "translation" else np.zeros(ambient))
        return _affine_map("translation", ambient, offset, name)
    if name == "rotation":
        theta = float(params.get("angle", 0.0))
        if ambient != 2:
            raise ValueError("rotation family is planar")
        return _affine_map("rotation", ambient, theta, name)
    if name == "shear":
        if ambient < 2:
            raise ValueError("shear family needs at least 2 dimensions")
        return _affine_map("shear", ambient,
                           float(params.get("strength", 0.5)), name)
    if name == "scaling":
        return _affine_map("scaling", ambient,
                           float(params.get("factor", 2.0)), name)
    if name == "radial_stretch":
        s = float(params.get("strength", 0.25))

        def f(x, s=s):
            return x * (1.0 + s * np.sum(x * x, axis=1, keepdims=True))

        return LipMap(ambient, f, name="radial_stretch")
    if name == "tent":
        c = float(params.get("center", 0.5))
        w = float(params.get("width", 0.5))
        amp = float(params.get("amplitude", 0.3))
        axis = int(params.get("axis", 1))

        def f(x, c=c, w=w, amp=np.array([amp]), axis=axis):
            return _tent_lift(x, amp, c, w, axis)[0]

        return LipMap(ambient, f, name="tent")
    raise ValueError(f"unknown map family: {name}")
