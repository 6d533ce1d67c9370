"""Seeded inputs and subcommand lists of the benchmark workloads.

Every input is a function of the workload seed alone.  The generated files
are what the program receives: scenario JSON plus chain JSON written with
`Chain.save`.  The `bundled` workload generates nothing and hands the seed
to the CLI's own `--seed`.  The generated workloads write one scenario
file per scenario and invoke each subcommand once per file, so that no
single operation runs for more than a few seconds: the host's speed is
gauged between operations (`refspeed`).

A run has as many input sets as timed passes, one per pass, so that its
median pass is taken over several random inputs and not one: input set 0
is made from the workload seed itself (the warm-up runs it too) and set k
from `input_seed(seed, k)`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from currentkit import SimplicialComplex, boundary, freudenthal_complex

# flat-norm grid: (ambient dimension, resolution) of each hosting complex
FLATGRID_SIZES = ((2, 8), (2, 16), (3, 4))
CELL_FRACTION = 0.3     # share of grid cells in the random union
FACE_FRACTION = 0.3     # share of codimension-1 faces in the +-1 chain
MESH_RESOLUTION = 16    # 2 * 16**2 = 512 triangles
MESH_JITTER = 0.2       # largest vertex displacement, in cell widths

# psi = (x^2 + t*y + 1) dx^dy and psi = (x*y + t) dx + y^2 dy: the bundled
# library's area and line cochains, as polynomials in (t, x, y)
AREA_COCHAIN = {"degree": 2, "components": {"0,1": [
    {"exponents": [0, 2, 0], "coefficient": 1.0},
    {"exponents": [1, 0, 1], "coefficient": 1.0},
    {"exponents": [0, 0, 0], "coefficient": 1.0}]}}
LINE_COCHAIN = {"degree": 1, "components": {
    "0": [{"exponents": [0, 1, 1], "coefficient": 1.0},
          {"exponents": [1, 0, 0], "coefficient": 1.0}],
    "1": [{"exponents": [0, 0, 2], "coefficient": 1.0}]}}


# seconds of one warm pass at the commit that added the benchmark (2 vCPUs
# of a shared host); they set how many timed passes fill --seconds
PASS_S = {"bundled": 1.7, "refined": 8.5, "flatgrid": 6.0}
MIN_PASSES = 3


def n_passes(workload: str, seconds: float) -> int:
    """Timed passes of one run.  The count depends on --seconds alone, not
    on how fast the passes go, so two runs with the same seed attempt the
    same operations."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def input_seed(seed: int, k: int) -> int:
    """Seed of input set k of a run: the workload seed for set 0."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cell_of(comp, simplex, resolution):
    """Grid cell of a top simplex: the floor of its lowest corner."""
    low = comp.vertices[list(simplex)].min(axis=0)
    return tuple(np.rint(low * resolution).astype(int))


def jittered_mesh(seed: int):
    """Conforming 512-triangle mesh of the unit square: the Freudenthal
    complex at resolution 16 with interior vertices moved by at most
    MESH_JITTER cell widths.  That is less than the smallest height of a
    triangle, so no triangle flips."""
    res = MESH_RESOLUTION
    comp = freudenthal_complex([0.0, 0.0], [1.0, 1.0], res)
    rng = _rng(seed, 0)
    verts = comp.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    k = int(interior.sum())
    radius = MESH_JITTER / res * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    verts[interior] += np.stack([radius * np.cos(angle),
                                 radius * np.sin(angle)], axis=1)
    tops = comp.simplices[2]
    moved = SimplicialComplex(verts, tops,
                              [comp.orientation[2][s] for s in tops])
    return moved.full_chain()


def cell_union_boundary(dim: int, res: int, rng):
    """Boundary of a random union of CELL_FRACTION of the grid cells; its
    flat-norm optimum is the union itself (pure S)."""
    comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
    grid = list(np.ndindex(*(res,) * dim))
    picked = rng.choice(len(grid), round(CELL_FRACTION * len(grid)),
                        replace=False)
    cells = {grid[k] for k in picked}
    tops = comp.simplices[dim]
    coeffs = [comp.orientation[dim][s] if _cell_of(comp, s, res) in cells
              else 0.0 for s in tops]
    return boundary(comp.simplex_chain(dim, coeffs))


def random_faces(dim: int, res: int, rng):
    """Random +-1 chain on FACE_FRACTION of the codimension-1 faces;
    its optimum has both R and S nonzero."""
    comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
    n = comp.n_simplices(dim - 1)
    coeffs = np.zeros(n)
    picked = rng.choice(n, round(FACE_FRACTION * n), replace=False)
    coeffs[picked] = rng.choice([-1.0, 1.0], picked.size)
    return comp.simplex_chain(dim - 1, coeffs)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _write_scenarios(scenarios, workdir) -> list:
    """One scenario file per scenario, so that each subcommand invocation
    runs one scenario; returns their paths in order."""
    paths = []
    for scenario in scenarios:
        path = os.path.join(workdir, scenario["name"] + ".json")
        _write_json(path, {"scenarios": [scenario]})
        paths.append(path)
    return paths


def write_refined(seed: int, workdir: str) -> list:
    """Scenario files of the `refined` workload; returns their paths."""
    mesh = os.path.join(workdir, "mesh.json")
    jittered_mesh(seed).save(mesh)
    scenarios = [
        {"name": "mesh_rotation", "chain": {"file": mesh},
         "motion": {"family": "rotation", "rate": 0.7},
         "cochain": AREA_COCHAIN, "seed": seed},
        {"name": "tent_l5", "motion": {"family": "tent", "amplitude": 0.3},
         "cochain": AREA_COCHAIN, "levels": 5, "seed": seed},
        {"name": "shear_bnd_l7", "chain": {"builtin": "boundary_square"},
         "motion": {"family": "shear", "rate": 0.4},
         "cochain": LINE_COCHAIN, "levels": 7, "seed": seed},
        {"name": "expanding_l4",
         "motion": {"family": "expansion", "interval": [-0.5, 1.0]},
         "cochain": AREA_COCHAIN,
         "density": [{"exponents": [0, 0, 0], "coefficient": 1.0}],
         "tau": 0.0, "levels": 4, "seed": seed},
    ]
    return _write_scenarios(scenarios, workdir)


def write_flatgrid(seed: int, workdir: str) -> list:
    """Scenario files of the `flatgrid` workload; returns their paths."""
    scenarios = []
    for k, (dim, res) in enumerate(FLATGRID_SIZES):
        for kind, build in (("cells", cell_union_boundary),
                            ("faces", random_faces)):
            name = f"{kind}_{dim}d_r{res}"
            stream = 1 + 2 * k + (kind == "faces")
            path = os.path.join(workdir, name + "_chain.json")
            build(dim, res, _rng(seed, stream)).save(path)
            scenarios.append({"name": name, "ambient": dim,
                              "chain": {"file": path}, "resolution": res,
                              "seed": seed})
    return _write_scenarios(scenarios, workdir)


def _commands(workload: str, seed: int, workdir: str) -> list:
    """Write one input set under `workdir`; the CLI argument lists of one
    pass over it, without `--out`."""
    common = ["--workers", "1"]
    if workload == "bundled":
        return [[cmd, "--seed", str(seed)] + common
                for cmd in ("verify", "transport", "flatnorm", "converge")]
    if workload == "refined":
        configs = write_refined(seed, workdir)
        return [[cmd, "--config", cfg] + common
                for cmd in ("verify", "transport") for cfg in configs]
    if workload == "flatgrid":
        return [["flatnorm", "--config", cfg] + common
                for cfg in write_flatgrid(seed, workdir)]
    raise ValueError(f"unknown workload: {workload}")


def prepare(workload: str, seed: int, n_sets: int, workdir: str) -> list:
    """Write `n_sets` input sets under `workdir`; for each, the CLI
    argument lists of one pass over it."""
    sets = []
    for k in range(n_sets):
        d = os.path.join(workdir, f"set{k}")
        os.makedirs(d)
        sets.append(_commands(workload, input_seed(seed, k), d))
    return sets
