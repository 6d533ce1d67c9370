"""Oracles for the CLI outputs.  Each check returns a list of problems;
an operation fails when it raises, exits non-zero or has a problem.

The checks run after the timed passes, outside the timed region.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# FD estimate at the smallest eps against the analytic transport
# derivative, as the CLI's rel_error column (abs / max(|analytic|, 1)).
# At seed 42 the largest errors are 3.4e-10 (central, mesh_rotation),
# 7.4e-9 (central, expanding_l4, second order with a large third
# derivative) and 1.5e-5 (one-sided, tent); the bounds leave a margin of
# more than 60x.
FD_TOL_CENTRAL = 1e-6
FD_TOL_ONE_SIDED = 1e-3
CLASSICAL_TOL = 1e-9      # classical_lhs against volume + flux
LP_REL_TOL = 1e-9         # flat norm against HiGHS on the same LP
REFERENCE_REL_TOL = 1e-9  # CSV cells against the recorded reference
REFERENCE_SKIP_ROWS = {"lp_iterations"}
REFERENCE_SKIP_COLUMNS = {"runtime"}


def read_rows(text: str) -> list:
    """CSV rows as dicts."""
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float:
    return float(cell) if cell != "" else float("nan")


def check_verify(text: str) -> list:
    return [f"verify row failed: {r['scenario']} / {r['quantity']}"
            for r in read_rows(text) if r["quantity"].endswith("[FAIL]")]


def check_transport(text: str, smallest_eps: dict, one_sided: set) -> list:
    """`smallest_eps` maps scenario -> smallest eps of its ladder;
    scenarios in `one_sided` use the one-sided difference (tent)."""
    problems = []
    rows = read_rows(text)
    seen = set()
    for r in rows:
        name, q = r["scenario"], r["quantity"]
        eps = smallest_eps.get(name)
        if eps is not None and q == f"fd_abs_error_eps={eps:g}":
            seen.add(name)
            tol = FD_TOL_ONE_SIDED if name in one_sided else FD_TOL_CENTRAL
            err = _num(r["rel_error"])
            if not err <= tol:
                problems.append(f"transport {name}: FD error {err:.3g} at "
                                f"eps={eps:g} exceeds {tol:g}")
        if q == "classical_lhs":
            err = _num(r["rel_error"])
            if not err <= CLASSICAL_TOL:
                problems.append(f"transport {name}: classical_lhs misses "
                                f"volume + flux by {err:.3g}")
    for name in sorted(set(smallest_eps) - seen):
        problems.append(f"transport {name}: no FD row at the smallest eps")
    return problems


def check_flatnorm(text: str, highs_values: list) -> list:
    """Flat-norm rows against HiGHS values, in scenario order, and
    value <= mass."""
    problems = []
    values = {}
    for r in read_rows(text):
        values.setdefault(r["scenario"], {})[r["quantity"]] = _num(r["value"])
    if len(values) != len(highs_values):
        return [f"flatnorm: {len(values)} scenarios in the CSV, "
                f"{len(highs_values)} LPs solved"]
    for (name, q), ref in zip(values.items(), highs_values):
        v = q.get("flat_norm", float("nan"))
        if not abs(v - ref) <= LP_REL_TOL * abs(ref) + 1e-12:
            problems.append(f"flatnorm {name}: value {v!r} differs from "
                            f"HiGHS {ref!r}")
        if not v <= q.get("mass", float("nan")) * (1 + 1e-12):
            problems.append(f"flatnorm {name}: value {v!r} exceeds the mass")
    return problems


def check_decomposition(t, r, s, bmat) -> list:
    """T = R + bnd S, exactly, as coefficient vectors on the complex."""
    resid = np.asarray(t) - np.asarray(r) - np.asarray(bmat) @ np.asarray(s)
    worst = float(np.max(np.abs(resid))) if resid.size else 0.0
    return [] if worst == 0.0 else [f"flatnorm: T - R - bnd S = {worst:.3g}"]


def flat_norm_lp_data(T, comp):
    """Cost vector, boundary matrix (int8, entries -1, 0 and 1) and right
    side t of the flat-norm LP over [R+, R-, S+, S-], built from the
    hosting complex."""
    r = T.degree
    t = comp.chain_vector(T)
    vol_r = comp.volumes(r)
    if comp.n_simplices(r + 1):
        bmat = comp.boundary_matrix(r + 1).astype(np.int8)
        vol_s = comp.volumes(r + 1)
    else:
        bmat, vol_s = np.zeros((vol_r.size, 0), dtype=np.int8), np.zeros(0)
    return np.concatenate([vol_r, vol_r, vol_s, vol_s]), bmat, t


def highs_flat_norm(c, bmat, t) -> tuple:
    """Optimum of the flat-norm LP (`flat_norm_lp_data`) from scipy's
    HiGHS, and the seconds HiGHS took."""
    # scipy is imported here: the measuring process records LP data
    # before it reads its peak memory, and the library does not load scipy
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, hstack, identity

    bmat = csr_matrix(bmat, dtype=float)
    eye = identity(bmat.shape[0], format="csr")
    a = hstack([eye, -eye, bmat, -bmat], format="csr")
    t0 = time.perf_counter()
    res = linprog(c, A_eq=a, b_eq=t, bounds=(0, None), method="highs")
    seconds = time.perf_counter() - t0
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun), seconds


def compare_reference(text: str, ref: str) -> list:
    """Every numeric cell within REFERENCE_REL_TOL of the reference,
    relative to max(|reference|, 1) as in the CLI's rel_error; text cells
    equal.  lp_iterations rows and the runtime column are skipped."""
    rows, refs = read_rows(text), read_rows(ref)
    if len(rows) != len(refs):
        return [f"reference: {len(rows)} rows, expected {len(refs)}"]
    problems = []
    for got, want in zip(rows, refs):
        if want["quantity"] in REFERENCE_SKIP_ROWS:
            continue
        for col, w in want.items():
            if col in REFERENCE_SKIP_COLUMNS:
                continue
            g = got.get(col)
            try:
                wv, gv = float(w), float(g)
            except (TypeError, ValueError):
                ok = g == w
            else:
                ok = (wv == gv or (np.isnan(wv) and np.isnan(gv))
                      or abs(gv - wv) <= REFERENCE_REL_TOL * max(abs(wv), 1.0))
            if not ok:
                problems.append(f"reference: {want['scenario']} / "
                                f"{want['quantity']} / {col}: {g!r} != {w!r}")
    return problems
