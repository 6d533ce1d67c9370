"""Lipschitz and bi-Lipschitz maps: constant estimation, strong-Lipschitz
distances, mollification, and pushforward of simplicial chains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, _edge_wedges, first_occurrences, lex_ranks
from .forms import AffineMap, Box

__all__ = [
    "LipMap",
    "Mollifier",
    "lipschitz_constant",
    "bi_lipschitz_constants",
    "strong_lip_distance",
    "mollify",
    "pushforward_chain",
    "make_map",
]

_DEFAULT_PAIRS = 100_000
_INJECTIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class LipMap:
    """Lipschitz map on (a box in) R^n."""

    ambient: int
    func: object
    jacobian: object = None  # x -> (n, n) array, exact when available
    name: str = ""

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def identity(cls, ambient: int) -> "LipMap":
        eye = np.eye(ambient)
        return cls(ambient, lambda x: x, lambda x: eye, name="identity")

    @classmethod
    def affine(cls, mat, shift=None, name="affine") -> "LipMap":
        mat = np.asarray(mat, dtype=float)
        if shift is None:
            shift = np.zeros(mat.shape[0])
        amap = AffineMap(mat, shift)
        return cls(mat.shape[1], amap, amap.jacobian, name=name)

    def compose(self, other: "LipMap") -> "LipMap":
        """self after other."""
        def f(x, a=self, b=other):
            return a(b(x))
        jac = None
        if self.jacobian is not None and other.jacobian is not None:
            def jac(x, a=self, b=other):
                return np.asarray(a.jacobian(b(x))) @ np.asarray(b.jacobian(x))
        return LipMap(self.ambient, f, jac,
                      name=f"{self.name}*{other.name}")


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


def _map_points(f: LipMap, points: np.ndarray) -> np.ndarray:
    """Images of the rows of `points` (m, n) under f, bit for bit those of
    calling f on each row.

    An affine map is one stacked matrix-vector product, per row the same
    kernel as the map's own call.  Any other map is called once per
    distinct row, in order of first occurrence; rows with equal bits share
    the image; f sees read-only rows.  Shape (m, target dimension)."""
    if isinstance(f.func, AffineMap):
        return (np.matmul(f.func.mat, points[:, :, None])[:, :, 0]
                + f.func.shift)
    bits = np.ascontiguousarray(points).view(np.int64)
    first, group = first_occurrences(lex_ranks(bits))
    distinct = points[first]
    distinct.flags.writeable = False
    image = None
    for i, x in enumerate(distinct):
        y = f(x)
        if image is None:
            image = np.empty((len(first), y.size))
        image[i] = y
    return image[group]


def _pair_ratios(f: LipMap, xs, ys):
    images = _map_points(f, np.concatenate([xs, ys]))
    fx, fy = images[:len(xs)], images[len(xs):]
    num = np.linalg.norm(fx - fy, axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    keep = den > 1e-12
    return num[keep] / den[keep]


def lipschitz_constant(f: LipMap, box: Box, n_pairs: int = _DEFAULT_PAIRS,
                       seed: int = 0):
    """Sampled estimate of the K-Lipschitz constant.

    The sample is a deterministic Halton set plus the grid-neighbor pairs,
    so `seed` does not change it.  Refined by Jacobian spectral norms on
    the grid when the Jacobian is available.  Returns (estimate,
    sample_count).
    """
    xs, ys = _sample_pairs(box, n_pairs)
    best = float(np.max(_pair_ratios(f, xs, ys)))
    if f.jacobian is not None:
        for x in box.grid():
            best = max(best, float(np.linalg.norm(
                np.asarray(f.jacobian(x), dtype=float), 2)))
    return best, len(xs)


def bi_lipschitz_constants(f: LipMap, box: Box, n_pairs: int = _DEFAULT_PAIRS,
                           seed: int = 0):
    """(c, d): min and max pairwise distortion ratios over samples.

    The sample is a deterministic Halton set plus the grid-neighbor pairs,
    so `seed` does not change it.  c near zero signals failure of
    injectivity at sampling resolution.
    """
    xs, ys = _sample_pairs(box, n_pairs)
    ratios = _pair_ratios(f, xs, ys)
    return float(np.min(ratios)), float(np.max(ratios))


def strong_lip_distance(f: LipMap, g: LipMap, box: Box,
                        n_pairs: int = 20_000, seed: int = 0) -> float:
    """Strong-Lipschitz seminorm of f - g on K:
    max(sup |f-g|, Lip(f-g))."""
    diff = LipMap(f.ambient, lambda x, a=f, b=g: a(x) - b(x))
    sup = max(float(np.linalg.norm(diff(x))) for x in box.grid())
    lip, _ = lipschitz_constant(diff, box, n_pairs, seed)
    return max(sup, lip)


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass smoothing kernel of radius rho."""

    rho: float
    kind: str = "gaussian"
    order: int = 7

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("kernel radius must be positive")
        if self.kind not in ("gaussian", "truncated"):
            raise ValueError(f"unknown kernel {self.kind}")

    def nodes_weights(self, dim: int):
        """Tensor quadrature for the kernel; weights sum to 1 to 1e-10."""
        if self.kind == "gaussian":
            x, w = np.polynomial.hermite_e.hermegauss(self.order)
            w = w / w.sum()
            x = x * self.rho
        else:
            x, w = np.polynomial.legendre.leggauss(self.order)
            # bump-free truncated kernel: cosine taper on [-rho, rho]
            dens = (1.0 + np.cos(np.pi * x)) / 2.0
            w = w * dens
            w = w / w.sum()
            x = x * self.rho
        nodes = np.stack(np.meshgrid(*([x] * dim), indexing="ij"),
                         axis=-1).reshape(-1, dim)
        wts = np.prod(np.stack(np.meshgrid(*([w] * dim), indexing="ij"),
                               axis=-1).reshape(-1, dim), axis=1)
        return nodes, wts


def mollify(f: LipMap, rho: float, kind: str = "gaussian",
            order: int = 7) -> LipMap:
    """Smooth approximation by convolution against a unit-mass kernel.

    Linear (in particular affine) maps are fixed points up to quadrature
    tolerance; the Lipschitz constant never increases."""
    kernel = Mollifier(rho, kind, order)
    nodes, wts = kernel.nodes_weights(f.ambient)

    def smoothed(x, f=f, nodes=nodes, wts=wts):
        x = np.asarray(x, dtype=float)
        vals = np.stack([f(x + dx) for dx in nodes])
        return wts @ vals

    return LipMap(f.ambient, smoothed, name=f"mollified({f.name},{rho:g})")


def pushforward_chain(f: LipMap, T: Chain, levels: int = 0,
                      check_injective: bool = False,
                      box: Box = None) -> Chain:
    """Vertex-mapped pushforward after `levels` uniform subdivisions.

    Exact for affine-per-simplex maps; converges in evaluation as
    levels grows for curved Lipschitz maps.  Degenerate image simplices,
    by the rule of `chains._edge_wedges`, are flagged by a ValueError.
    """
    if check_injective:
        if box is None:
            pts = T.support_points()
            pad = 0.1 * (np.ptp(pts, axis=0).max() + 1.0)
            box = Box(tuple(pts.min(axis=0) - pad),
                      tuple(pts.max(axis=0) + pad),
                      tuple(pts.min(axis=0) - 1e-9),
                      tuple(pts.max(axis=0) + 1e-9), resolution=4)
        c, _ = bi_lipschitz_constants(f, box, n_pairs=2000)
        if c <= _INJECTIVITY_FLOOR:
            raise ValueError(
                "map fails injectivity at sampling resolution (c ~ 0)")
    work = T.subdivided(levels) if levels else T
    if not len(work):
        return Chain([], T.degree, T.ambient)
    verts, signs, mults = work.stacked()
    image = _map_points(f, verts.reshape(-1, T.ambient))
    image = image.reshape(len(verts), T.degree + 1, -1)
    if T.degree > 0 and np.any(_edge_wedges(image)[2]):
        raise ValueError("degenerate image simplex in pushforward")
    return Chain.from_stacked(image, signs, mults, T.degree, image.shape[2])


# ----------------------------------------------------------------------
# built-in map library (selectable by name in scenario files)
# ----------------------------------------------------------------------

def _tent(u: float, center: float, width: float) -> float:
    return max(0.0, 1.0 - abs(u - center) / width)


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
            r2 = float(np.dot(x, x))
            return x * (1.0 + s * r2)

        return LipMap(ambient, f, name="radial_stretch")
    if name == "tent":
        c = float(params.get("center", 0.5))
        w = float(params.get("width", 0.5))
        amp = float(params.get("amplitude", 0.3))
        axis = int(params.get("axis", 1))

        def f(x, c=c, w=w, amp=amp, axis=axis):
            y = np.array(x, dtype=float)
            y[axis] += amp * _tent(x[0], c, w)
            return y

        return LipMap(ambient, f, name="tent")
    raise ValueError(f"unknown map family: {name}")
