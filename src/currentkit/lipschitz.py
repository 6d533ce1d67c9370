"""Lipschitz maps: constant estimation and pushforward of simplicial
chains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Chain, _edge_wedges, vertex_table
from .forms import AffineMap, Box, _check_box, _pair_lipschitz, _sampled

__all__ = [
    "LipMap",
    "lipschitz_constant",
    "pushforward_chain",
    "make_map",
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


# each kind of family parameter: what a value must be, and the test of
# its numeric array a in n dimensions
_KINDS = {
    "number": ("a finite number",
               lambda a, n: a.shape == () and np.isfinite(a)),
    "positive": ("a finite positive number",
                 lambda a, n: a.shape == () and 0 < a < np.inf),
    "vector": ("{n} finite numbers",
               lambda a, n: a.shape == (n,) and np.all(np.isfinite(a))),
    "axis": ("an axis in range({n})",
             lambda a, n: a.shape == () and a in range(n)),
}

# the tent's parameters, as a `make_map` and a `make_motion` family
_TENT = {"center": ("number", 0.5), "width": ("positive", 0.5),
         "amplitude": ("number", 0.3), "axis": ("axis", 1)}

# each `make_map` family's parameters, with their kinds and defaults; a
# vector's default is a function of the ambient dimension
_MAP_FAMILIES = {
    "identity": {},
    "translation": {"offset": ("vector", np.zeros)},
    "rotation": {"angle": ("number", 0.0)},
    "shear": {"strength": ("number", 0.5)},
    "scaling": {"factor": ("number", 2.0)},
    "radial_stretch": {"strength": ("number", 0.25)},
    "tent": _TENT,
}


def _family_params(what: str, families: dict, name: str, params: dict,
                   ambient: int) -> dict:
    """The parameters in force of the `what` ("map" or "motion") family
    `name` of `families`: `params` over the family's defaults.  A
    ValueError unless `name` is a family, every item of `params` one of
    its parameters and every parameter in force of its kind in `ambient`
    dimensions, defaults too; and unless a rotation is planar and a shear
    has a second axis."""
    if not isinstance(name, str) or name not in families:
        raise ValueError(f"unknown {what} family: {name}")
    takes = families[name]
    for key in params:
        if key not in takes:
            raise ValueError(f"{what} family {name!r} has no parameter "
                             f"{key!r}; it takes {list(takes)}")
    if name == "rotation" and ambient != 2:
        raise ValueError("rotation family is planar")
    if name == "shear" and ambient < 2:
        raise ValueError("shear family needs at least 2 dimensions")
    out = {}
    for key, (kind, default) in takes.items():
        if key in params:
            value = params[key]
        else:
            value = default(ambient) if callable(default) else default
        text, test = _KINDS[kind]
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf" or not test(arr, ambient):
            raise ValueError(f"{what} parameter {key!r} of family {name!r} "
                             f"must be {text.format(n=ambient)}, got "
                             f"{value!r}")
        out[key] = value
    return out


def make_map(name: str, ambient: int = 2, **params) -> LipMap:
    """Named map families: translation, rotation, shear, scaling,
    radial_stretch, tent, with the parameters of `_MAP_FAMILIES`.  A
    parameter that the family does not take, or one of the wrong kind,
    raises a ValueError that names it (`_family_params`)."""
    p = _family_params("map", _MAP_FAMILIES, name, params, ambient)
    if name in ("identity", "translation", "rotation", "shear", "scaling"):
        # each takes one parameter; the identity is the translation by 0
        kind = "translation" if name == "identity" else name
        values = list(p.values()) or [np.zeros(ambient)]
        mats, shifts = _affine_frames(kind, ambient, values)
        return LipMap.affine(mats[0], shifts[0], name=name)
    if name == "radial_stretch":
        s = float(p["strength"])

        def f(x, s=s):
            return x * (1.0 + s * np.sum(x * x, axis=1, keepdims=True))

        return LipMap(ambient, f, name="radial_stretch")
    c, w, amp = (float(p[key]) for key in ("center", "width", "amplitude"))
    axis = int(p["axis"])

    def f(x, c=c, w=w, amp=np.array([amp]), axis=axis):
        return _tent_lift(x, amp, c, w, axis)[0]

    return LipMap(ambient, f, name="tent")
