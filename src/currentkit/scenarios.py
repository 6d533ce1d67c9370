"""Scenario configuration: JSON descriptions of chains, motions, and
cochains, plus the bundled scenario library used by the command line."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .chains import (Chain, boundary, triangle_chain, unit_interval_chain,
                     unit_square_chain)
from .forms import Box, Cochain
from .motion import Motion, make_motion
from .polynomial import _REAL, Polynomial, _is_whole

__all__ = ["ScenarioConfig", "load_config", "builtin_scenarios"]

_BUILTIN_CHAINS = {
    "square": lambda: unit_square_chain(),
    "boundary_square": lambda: boundary(unit_square_chain()),
    "interval": lambda: unit_interval_chain(),
    "triangle": lambda: triangle_chain(),
    "boundary_triangle": lambda: boundary(triangle_chain()),
}

# the time window of verify's and converge's homotopy checks
_HOMOTOPY_WINDOW = (0.0, 0.4)


@dataclass
class ScenarioConfig:
    """One named experiment: a chain convected by a motion and probed by a
    (possibly time-dependent) polynomial cochain.

    `chain` is either {"builtin": name} or {"file": path}; `cochain` maps
    comma-joined spatial multi-indices to polynomial term lists in the
    variables (t, x_1, ..., x_n).
    """

    name: str
    ambient: int = 2
    chain: dict = field(default_factory=lambda: {"builtin": "square"})
    motion: dict = field(default_factory=lambda: {"family": "identity"})
    cochain: dict = None
    density: dict = None          # 0-form coefficient for classical transport
    tau: float = 0.2
    eps_ladder: tuple = (1e-2, 1e-3, 1e-4)
    levels: int = 0
    panels: int = 8
    resolution: int = 4
    box: dict = None
    seed: int = 42

    @classmethod
    def from_obj(cls, obj: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if isinstance(obj.get("box"), dict):
            extra |= {f"box.{key}" for key in obj["box"]} - {
                "box.lower", "box.upper", "box.resolution"}
        if extra:
            raise ValueError(f"unknown scenario fields: {sorted(extra)}")
        if "name" not in obj:
            raise ValueError("scenario missing required field 'name'")
        cfg = cls(**{k: obj[k] for k in obj})
        for key in ("chain", "motion", "box"):
            value = getattr(cfg, key)
            if not (isinstance(value, dict) or key == "box" and value is None):
                raise ValueError(f"scenario field {key!r} must be an object, "
                                 f"got {value!r}")
        for key, low in _WHOLE_FIELDS:
            setattr(cfg, key, _whole(key, getattr(cfg, key), low))
        _finite("tau", cfg.tau)
        if not isinstance(cfg.eps_ladder, (list, tuple)) or not all(
                isinstance(e, _REAL) and type(e) is not bool
                for e in cfg.eps_ladder):
            raise ValueError(f"scenario field 'eps_ladder' must be a list of "
                             f"numbers, got {cfg.eps_ladder!r}")
        if len(cfg.eps_ladder) < 2:
            raise ValueError(f"scenario field 'eps_ladder' must have at "
                             f"least two steps, got {list(cfg.eps_ladder)}")
        _finite("eps_ladder", cfg.eps_ladder)
        cfg.eps_ladder = tuple(float(e) for e in cfg.eps_ladder)
        if not all(e > 0.0 for e in cfg.eps_ladder):
            raise ValueError("scenario field 'eps_ladder' must be > 0")
        if len(set(cfg.eps_ladder)) < len(cfg.eps_ladder):
            raise ValueError(f"scenario field 'eps_ladder' must not repeat "
                             f"a step, got {list(cfg.eps_ladder)}")
        for key, value in cfg.motion.items():
            if key != "family":
                _finite(f"motion.{key}", value)
        interval = cfg.motion.get("interval", (-1.0, 1.0))
        # the times at which verify and converge read the motion
        if np.shape(interval) != (2,) or not all(
                interval[0] <= t <= interval[1]
                for t in (*_HOMOTOPY_WINDOW, *cfg.eps_ladder)):
            raise ValueError(f"scenario field 'motion.interval' must be two "
                             f"numbers that contain {list(_HOMOTOPY_WINDOW)} "
                             f"and each step of 'eps_ladder', got "
                             f"{interval!r}")
        # the finite differences read the motion at each tau + eps, tau - eps
        if not all(interval[0] <= cfg.tau + s * e <= interval[1]
                   for e in cfg.eps_ladder for s in (1.0, -1.0)):
            raise ValueError(f"scenario field 'tau' must lie in "
                             f"'motion.interval' {list(interval)} by each "
                             f"step of 'eps_ladder', got {cfg.tau!r}")
        _finite("chain.multiplier", cfg.chain.get("multiplier", 1.0))
        if cfg.box is not None:
            for key in ("lower", "upper"):
                if np.shape(cfg.box.get(key)) != (cfg.ambient,):
                    raise ValueError(f"scenario field 'box.{key}' must be "
                                     f"{cfg.ambient} numbers, got "
                                     f"{cfg.box.get(key)!r}")
                _finite(f"box.{key}", cfg.box[key])
            if "resolution" in cfg.box:
                cfg.box = {**cfg.box, "resolution": _whole(
                    "box.resolution", cfg.box["resolution"], 2)}
        if cfg.cochain is not None:
            _check_cochain(cfg.cochain, cfg.ambient)
        # building the motion, box, cochain and density checks the rest,
        # so a file is checked whole whichever subcommand reads it
        for key in ("motion", "box", "cochain", "density"):
            if getattr(cfg, key) is not None:
                try:
                    getattr(cfg, f"build_{key}")()
                except ValueError as exc:
                    raise ValueError(f"scenario field {key!r}: {exc}") \
                        from None
        return cfg

    # -- builders ------------------------------------------------------

    def build_chain(self) -> Chain:
        spec = self.chain
        if "builtin" in spec:
            name = spec["builtin"]
            if name not in _BUILTIN_CHAINS:
                raise ValueError(f"unknown builtin chain: {name}")
            T = _BUILTIN_CHAINS[name]()
        elif "file" in spec:
            try:
                T = Chain.load(spec["file"])
            except (OSError, ValueError) as exc:
                raise ValueError(f"scenario {self.name!r}: chain file "
                                 f"{spec['file']!r}: "
                                 f"{getattr(exc, 'strerror', None) or exc}"
                                 ) from None
        else:
            raise ValueError("chain spec needs 'builtin' or 'file'")
        if T.ambient != self.ambient:
            raise ValueError(f"scenario {self.name!r}: field 'ambient' is "
                             f"{self.ambient}, but its chain lies in "
                             f"{T.ambient} dimensions")
        mult = spec.get("multiplier", 1.0)
        return T * mult if mult != 1.0 else T

    def build_motion(self) -> Motion:
        spec = dict(self.motion)
        if "family" not in spec:
            raise ValueError("motion spec needs a 'family'")
        family = spec.pop("family")
        interval = tuple(spec.pop("interval", (-1.0, 1.0)))
        return make_motion(family, ambient=self.ambient, interval=interval,
                           **spec)

    def build_cochain(self) -> Cochain:
        if self.cochain is None:
            raise ValueError(f"scenario {self.name} has no cochain")
        degree = int(self.cochain["degree"])
        comps = {}
        for key, body in self.cochain["components"].items():
            idx = tuple(int(i) if i.isdecimal() else -1
                        for i in key.split(",")) if key else ()
            if (len(idx) != degree or list(idx) != sorted(set(idx))
                    or not all(0 <= i < self.ambient for i in idx)):
                raise ValueError(f"component key {key!r} must be {degree} "
                                 f"increasing axis indices below "
                                 f"{self.ambient}, joined by commas")
            comps[idx] = Polynomial.from_json_obj(self.ambient + 1, body)
        return Cochain(self.ambient, degree, comps)

    def build_density(self) -> Cochain:
        if self.density is None:
            raise ValueError(f"scenario {self.name} has no density")
        poly = Polynomial.from_json_obj(self.ambient + 1, self.density)
        return Cochain(self.ambient, 0, {(): poly})

    def build_box(self) -> Box:
        if self.box is None:
            return Box.unit(self.ambient, resolution=self.resolution)
        return Box(self.box["lower"], self.box["upper"],
                   self.box.get("resolution", self.resolution))


# the integer fields and their least values
_WHOLE_FIELDS = (("levels", 0), ("panels", 1), ("resolution", 2),
                 ("ambient", 1), ("seed", 0))


def _whole(name: str, value, low: int) -> int:
    """`value` as an int; a ValueError naming the field unless it is a
    whole number (by the rule of `polynomial._is_whole`) of at least
    `low`."""
    if not _is_whole(value) or value < low:
        raise ValueError(f"scenario field {name!r} must be a whole number "
                         f">= {low}, got {value!r}")
    return int(value)


def _check_cochain(cochain, ambient: int):
    """A ValueError naming the key unless `cochain` is an object whose
    "degree" is a whole number (by the rule of `_whole`) in 0..ambient and
    whose "components" is an object."""
    if not isinstance(cochain, dict):
        raise ValueError(f"scenario field 'cochain' must be an object, got "
                         f"{cochain!r}")
    degree = _whole("cochain.degree", cochain.get("degree"), 0)
    if degree > ambient:
        raise ValueError(f"scenario field 'cochain.degree' must be at most "
                         f"the ambient dimension {ambient}, got {degree}")
    if not isinstance(cochain.get("components"), dict):
        raise ValueError(f"scenario field 'cochain.components' must be an "
                         f"object, got {cochain.get('components')!r}")


def _finite(name: str, value):
    """A ValueError naming the field unless `value` is a finite number or
    a list of finite numbers."""
    try:
        numbers = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"scenario field {name!r} must be a number or a "
                         f"list of numbers, got {value!r}") from None
    if not np.all(np.isfinite(numbers)):
        raise ValueError(f"scenario field {name!r} must be finite, got "
                         f"{value!r}")


def load_config(path) -> list:
    """Scenario list from a JSON file: either a single scenario object or
    {"scenarios": [...]}, a relative chain "file" read from the directory
    of `path`. Raises ValueError with field diagnostics."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config parse error in {path}: {exc}") from None
    items = obj["scenarios"] if isinstance(obj, dict) and "scenarios" in obj \
        else [obj]
    out = []
    for item in items:
        try:
            cfg = ScenarioConfig.from_obj(item)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"bad scenario in {path}: {exc}") from None
        if isinstance(cfg.chain.get("file"), str):
            cfg.chain = {**cfg.chain, "file": os.path.join(
                os.path.dirname(path), cfg.chain["file"])}
        out.append(cfg)
    return out


def _poly_terms(*terms):
    """[(exponents, coeff), ...] -> polynomial JSON body."""
    return [{"exponents": list(e), "coefficient": float(c)} for e, c in terms]


def builtin_scenarios() -> list:
    """The bundled scenario library exercised by the default commands."""
    # psi = (x^2 + t*y + 1) dx^dy, a smooth time-dependent area cochain
    area_cochain = {
        "degree": 2,
        "components": {"0,1": _poly_terms(((0, 2, 0), 1.0), ((1, 0, 1), 1.0),
                                          ((0, 0, 0), 1.0))},
    }
    # psi = (x*y + t) dx + y^2 dy on curves
    line_cochain = {
        "degree": 1,
        "components": {"0": _poly_terms(((0, 1, 1), 1.0), ((1, 0, 0), 1.0)),
                       "1": _poly_terms(((0, 0, 2), 1.0))},
    }
    return [
        ScenarioConfig(
            name="rotating_square",
            motion={"family": "rotation", "rate": 0.7},
            cochain=area_cochain),
        ScenarioConfig(
            name="static_square",
            motion={"family": "identity"},
            cochain={"degree": 2,
                     "components": {"0,1": _poly_terms(((0, 2, 0), 1.0),
                                                       ((0, 0, 0), 1.0))}}),
        ScenarioConfig(
            name="translating_square",
            motion={"family": "translation", "velocity": [0.3, 0.1]},
            cochain=area_cochain),
        ScenarioConfig(
            name="shearing_boundary",
            chain={"builtin": "boundary_square"},
            motion={"family": "shear", "rate": 0.4},
            cochain=line_cochain),
        ScenarioConfig(
            name="tent_square",
            motion={"family": "tent", "amplitude": 0.3},
            cochain=area_cochain,
            levels=3),
        ScenarioConfig(
            name="expanding_box",
            motion={"family": "expansion", "interval": [-0.5, 1.0]},
            cochain=area_cochain,
            density=_poly_terms(((0, 0, 0), 1.0)),
            tau=0.0),
    ]
