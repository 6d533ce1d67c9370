"""Lipschitz maps: constant estimation and pushforward of simplicial
chains.  Any affine map is `LipMap.affine`; a named map is a motion
family at one time, `motion.make_motion(name, ...).map_at(t)`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, _edge_wedges, vertex_table
from .forms import AffineMap, Box, _check_box, _pair_lipschitz, _sampled

__all__ = [
    "LipMap",
    "lipschitz_constant",
    "pushforward_chain",
]


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


def lipschitz_constant(f: LipMap, box: Box):
    """Sampled estimate of the K-Lipschitz constant: the pair estimate of
    `form_lipschitz` (`forms._pair_lipschitz`) on the images, raised to
    the largest Jacobian spectral norm on the grid when f has a Jacobian.
    Returns (estimate, pair count).  No subcommand calls it (`verify`
    takes the exact |A|_2 of its affine map); the tests' oracles do."""
    _check_box(box, f.ambient)
    best, count = _pair_lipschitz(f.values_at, box)
    if f.jacobian is not None:
        best = max(best, float(np.max(np.linalg.norm(
            f.jacobians_at(box.grid()), 2, axis=(1, 2)))))
    return best, count


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
