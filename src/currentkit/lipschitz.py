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
    lo = np.asarray(box.k_lower)
    hi = np.asarray(box.k_upper)
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


def _planar_rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def make_map(name: str, ambient: int = 2, **params) -> LipMap:
    """Named map families: translation, rotation, shear, scaling,
    radial_stretch, tent."""
    if name == "identity":
        return LipMap.identity(ambient)
    if name == "translation":
        c = np.asarray(params.get("offset", np.zeros(ambient)), dtype=float)
        return LipMap.affine(np.eye(ambient), c, name="translation")
    if name == "rotation":
        theta = float(params.get("angle", 0.0))
        if ambient != 2:
            raise ValueError("rotation family is planar")
        return LipMap.affine(_planar_rotation(theta), name="rotation")
    if name == "shear":
        if ambient < 2:
            raise ValueError("shear family needs at least 2 dimensions")
        s = float(params.get("strength", 0.5))
        mat = np.eye(ambient)
        mat[0, 1] = s
        return LipMap.affine(mat, name="shear")
    if name == "scaling":
        s = float(params.get("factor", 2.0))
        return LipMap.affine(s * np.eye(ambient), name="scaling")
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

        def f(x, c=c, w=w, amp=amp, axis=axis):
            y = np.array(x, dtype=float)
            y[:, axis] += amp * _tent(x[:, 0], c, w)
            return y

        return LipMap(ambient, f, name="tent")
    raise ValueError(f"unknown map family: {name}")
