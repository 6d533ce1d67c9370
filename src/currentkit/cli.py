"""Command-line driver: invariant verification, transport experiments,
flat-norm computations, and convergence studies, all reported as CSV.

Exit codes: 0 success, 1 failing check, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time

import numpy as np

from .chains import boundary, evaluate, mass_chain, triangle_chain
from .complexes import freudenthal_complex
from .flatnorm import flat_norm_lp, lower_bounds
from .forms import (FormField, VectorField, exterior_derivative,
                    lie_derivative, lie_derivative_components)
from .lipschitz import LipMap, pushforward_chain
from .motion import (classical_reynolds, continuity_modulus,
                     homotopy_residuals, reynolds_operator,
                     transport_derivative, transport_derivative_fd_ladder)
from .scenarios import _HOMOTOPY_WINDOW, builtin_scenarios, load_config

log = logging.getLogger("currentkit")


def _fmt(x) -> str:
    """CSV number format: '.' decimal, scientific for small magnitudes."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    x = float(x)
    if x != 0.0 and abs(x) < 1e-3:
        return f"{x:.12e}"
    return f"{x:.12g}"


# the mark of a failing check's quantity, on which a run exits 1
_FAIL = " [FAIL]"

HEADER = ["scenario", "quantity", "value", "oracle", "abs_error",
          "rel_error", "level", "runtime"]


def _row(scenario, quantity, value, oracle=None, level=None, runtime=None):
    if oracle is None:
        abs_err = rel_err = None
    else:
        abs_err = abs(float(value) - float(oracle))
        scale = max(abs(float(oracle)), 1.0)
        rel_err = abs_err / scale
    return [scenario, quantity, _fmt(value), _fmt(oracle), _fmt(abs_err),
            _fmt(rel_err), _fmt(level), _fmt(runtime)]


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    log.info("wrote %s (%d rows)", path, len(rows))


def _stopwatch():
    """A clock started now: a function of no arguments that returns the
    seconds since, the runtime cell of a timed row, when CURRENTKIT_TIMINGS
    is "1", and None otherwise."""
    if os.environ.get("CURRENTKIT_TIMINGS") != "1":
        return lambda: None
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


def _fit_order(xs, ys):
    """Least-squares slope of log|y| against log(x), ignoring exact zeros."""
    pts = [(np.log(x), np.log(abs(y))) for x, y in zip(xs, ys) if y != 0]
    if len(pts) < 2:
        return 0.0
    lx, ly = np.array(pts).T
    return float(np.polyfit(lx, ly, 1)[0])


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _pushforward_excess(T, mat, shift) -> float:
    """How far M(f#T) exceeds Lip(f)^r M(T) + 1e-6 for the affine map
    f(x) = mat x + shift, whose Lipschitz constant is exactly |mat|_2;
    0 when the mass bound holds."""
    bound = float(np.linalg.norm(mat, 2)) ** T.degree * mass_chain(T)
    pushed = pushforward_chain(LipMap.affine(mat, shift), T)
    return max(mass_chain(pushed) - bound - 1e-6, 0.0)


def _form_checks(n, rng):
    """The exterior identities on random polynomial data, which read only
    the ambient dimension n and the draws of `rng`: a list of (quantity,
    value, oracle, tol, runtime)."""
    clock = _stopwatch()
    worst_dd = worst_cartan = 0.0
    for _ in range(10):
        r = int(rng.integers(0, n))
        phi = FormField.random_polynomial(n, r, rng, max_degree=2)
        v = VectorField.random_polynomial(n, rng, max_degree=2)
        if r + 2 <= n:
            ddp = exterior_derivative(exterior_derivative(phi))
            worst_dd = max(worst_dd, max(p.max_abs_coeff()
                                         for p in ddp.polys))
        diff = lie_derivative(phi, v) - lie_derivative_components(phi, v)
        worst_cartan = max(worst_cartan,
                           max(p.max_abs_coeff() for p in diff.polys))
    return [("dd_zero_residual", worst_dd, 0.0, 0.0, clock()),
            ("cartan_residual", worst_cartan, 0.0, 0.0, None)]


def _chain_checks(T, n, rng):
    """The checks that read only the chain T, the ambient dimension n and
    the draws of `rng`, which continue those of `_form_checks`: a list of
    (quantity, value, oracle, tol, runtime)."""
    out = []

    def check(quantity, value, oracle, tol, runtime=None):
        out.append((quantity, value, oracle, tol, runtime))

    # boundary adjointness and del o del = 0 on the scenario chain; T's
    # geometry is built once, in its side table, for all its evaluations
    clock = _stopwatch()
    if T.degree >= 1:
        phi = FormField.random_polynomial(n, T.degree - 1, rng, max_degree=3)
        resid = abs(evaluate(boundary(T), phi)
                    - evaluate(T, exterior_derivative(phi)))
        check("adjointness_residual", resid, 0.0, 1e-8, runtime=clock())
    if T.degree >= 2:
        check("boundary_squared_terms", len(boundary(boundary(T))), 0, 0)

    # Reynolds duality
    clock = _stopwatch()
    worst = 0.0
    for _ in range(5):
        v = VectorField.random_polynomial(n, rng, max_degree=2)
        phi = FormField.random_polynomial(n, T.degree, rng, max_degree=2)
        worst = max(worst, abs(evaluate(reynolds_operator(v, T), phi)
                               - evaluate(T, lie_derivative(phi, v))))
    check("reynolds_duality_residual", worst, 0.0, 1e-8, runtime=clock())

    # pushforward mass bound under a random affine map
    clock = _stopwatch()
    mat = rng.standard_normal((n, n)) + n * np.eye(n)
    check("pushforward_mass_within_bound",
          _pushforward_excess(T, mat, rng.standard_normal(n)), 0.0, 0.0,
          runtime=clock())
    return out


def _motion_checks(cfg, T, rng):
    """The homotopy formula for the scenario motion on _HOMOTOPY_WINDOW,
    with the form drawn from `rng`; none for a tent, whose velocity is
    not smooth."""
    if cfg.motion.get("family") == "tent":
        return []
    clock = _stopwatch()
    m = cfg.build_motion()
    phi = FormField.random_polynomial(cfg.ambient, T.degree, rng,
                                      max_degree=2)
    resid, = homotopy_residuals(m, _HOMOTOPY_WINDOW, T, phi, [cfg.panels],
                                levels=cfg.levels)
    return [("homotopy_residual", resid, 0.0, 1e-6, clock())]


def _chain_key(cfg, T):
    """What the chain checks read of a scenario: its seed, its ambient
    dimension and the arrays of its chain."""
    return (cfg.seed, cfg.ambient, T.ids.shape, T.table.shape,
            T.table.tobytes(), T.ids.tobytes(), T.mults.tobytes())


def _generator(state) -> np.random.Generator:
    """A fresh generator at the PCG64 state `state`."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits)


def _shared(memo, key, checks, state):
    """The rows of `checks(rng)`, for a generator rng at `state`, and the
    state they leave, run once per `key`: a later scenario of the key
    gets the same rows, with an empty runtime, and the same state."""
    if key in memo:
        rows, state = memo[key]
        return [row[:4] + (None,) for row in rows], state
    rng = _generator(state)
    memo[key] = checks(rng), rng.bit_generator.state
    return memo[key]


def cmd_verify(args, scenarios):
    # the form checks read the seed and ambient dimension, the first two
    # items of a chain key, and the chain checks the chain key, continuing
    # the form checks' draws: each runs once per key, and each scenario's
    # motion check draws from the state they leave, as it would alone
    memo, rows = {}, []
    for cfg in scenarios:
        T = cfg.build_chain()
        key = _chain_key(cfg, T)
        form_rows, state = _shared(
            memo, key[:2], lambda rng: _form_checks(cfg.ambient, rng),
            np.random.PCG64(cfg.seed).state)
        chain_rows, state = _shared(
            memo, key, lambda rng: _chain_checks(T, cfg.ambient, rng), state)
        checks = form_rows + chain_rows + _motion_checks(
            cfg, T, _generator(state))
        for quantity, value, oracle, tol, runtime in checks:
            row = _row(cfg.name, quantity, value, oracle, runtime=runtime)
            error = abs(float(value) - float(oracle))
            allowed = tol * args.tolerance_scale
            if not error <= allowed:
                row[1] += _FAIL
                log.warning("FAIL %s / %s: value %.6g, oracle %.6g, "
                            "|value - oracle| %.6g > tol %g x "
                            "tolerance-scale %g = %.6g, margin %.6g",
                            cfg.name, row[1], value, oracle, error, tol,
                            args.tolerance_scale, allowed, allowed - error)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------

def _transport_rows(cfg, T):
    rows = []
    m = cfg.build_motion()
    psi = cfg.build_cochain()
    tent = cfg.motion.get("family") == "tent"
    clock = _stopwatch()
    an = transport_derivative(m, T, psi, cfg.tau, cfg.levels)
    rows.append(_row(cfg.name, "transport_derivative", an, runtime=clock()))
    errs = []
    fds = transport_derivative_fd_ladder(m, T, psi, cfg.tau, cfg.eps_ladder,
                                         cfg.levels, one_sided=tent)
    for eps, fd in zip(cfg.eps_ladder, fds):
        err = abs(an - fd)
        errs.append((eps, err))
        rows.append(_row(cfg.name, f"fd_abs_error_eps={eps:g}", fd, an,
                         level=eps))
    orders = [np.log(e1 / e2) / np.log(x1 / x2)
              for (x1, e1), (x2, e2) in zip(errs, errs[1:])
              if e1 > 1e-12 and e2 > 1e-12]
    rows.append(_row(cfg.name, "fd_observed_order",
                     min(orders) if orders else float("inf")))
    if cfg.density is not None:
        clock = _stopwatch()
        lhs, vol, flux = classical_reynolds(m, T, cfg.build_density(),
                                            cfg.tau, cfg.levels)
        rows.append(_row(cfg.name, "classical_lhs", lhs, vol + flux,
                         runtime=clock()))
        rows.append(_row(cfg.name, "classical_volume_term", vol))
        rows.append(_row(cfg.name, "classical_flux_term", flux))
    return rows


def cmd_transport(args, scenarios):
    # a scenario without a cochain is skipped after its chain is built,
    # so that its chain file is read and checked as by every subcommand
    rows = []
    for cfg in scenarios:
        T = cfg.build_chain()
        if cfg.cochain is None:
            log.warning("skipping %s: no cochain", cfg.name)
        else:
            rows += _transport_rows(cfg, T)
    return rows


# ----------------------------------------------------------------------
# flat norm
# ----------------------------------------------------------------------

def _align_chain(T, comp):
    """Subdivide T, at most 5 levels, until its simplices live on the
    complex; if none does, a ValueError with the complex's resolution and
    `chain_vector`'s reason at level 0."""
    reason = None
    for lv in range(6):
        work = T.subdivided(lv)
        try:
            comp.chain_vector(work)
            return work
        except ValueError as exc:
            reason = reason or exc
    raise ValueError(f"chain cannot be aligned with the hosting complex "
                     f"at resolution {comp.lattice[2]}: {reason}")


def _affine_test_family(ambient, degree, rng, size):
    """`size` random affine test forms.  A form drawn identically zero has
    vanishing seminorms and cannot bound a norm, so it is drawn again."""
    family = []
    while len(family) < size:
        phi = FormField.random_polynomial(ambient, degree, rng, max_degree=1)
        if not all(p.is_zero() for p in phi.polys):
            family.append(phi)
    return family


def _flat_key(cfg, chain, box):
    """What a flat-norm scenario reads: its chain key, its box K's bounds,
    bit for bit, and sample grid, and the complex's resolution."""
    bounds = np.array([box.lower, box.upper])
    return _chain_key(cfg, chain) + (bounds.tobytes(), box.resolution,
                                     cfg.resolution)


def cmd_flatnorm(args, scenarios):
    rows = []
    # scenarios with one `_flat_key` share the complex, the aligned chain,
    # its mass and its norm ladder, built at the first of them and dropped
    # after the last, so that one input's complex is kept at a time when
    # the scenarios of a key are consecutive; each solves its own LP.  The
    # ladder runs after that scenario's LP, as it would alone, so that the
    # box's sample tables do not add to the LP's peak memory.  Each box
    # and chain is then held by its own iteration alone
    boxes = [cfg.build_box() for cfg in scenarios]
    chains = [cfg.build_chain() for cfg in scenarios]
    keys = [_flat_key(cfg, chain, box)
            for cfg, chain, box in zip(scenarios, chains, boxes)]
    last = {key: k for k, key in enumerate(keys)}
    hosts, ladders = {}, {}
    for k, (cfg, key) in enumerate(zip(scenarios, keys)):
        box, chain = boxes[k], chains[k]
        boxes[k] = chains[k] = None
        if key not in hosts:
            comp = freudenthal_complex(box.lower, box.upper, cfg.resolution)
            hosts[key] = comp, _align_chain(chain, comp)
        comp, T = hosts[key]
        clock = _stopwatch()
        value, s_chain, r_chain, info = flat_norm_lp(T, comp)
        rows.append(_row(cfg.name, "flat_norm", value, runtime=clock()))
        rows.append(_row(cfg.name, "mass_R", info["mass_R"]))
        rows.append(_row(cfg.name, "mass_S", info["mass_S"]))
        rows.append(_row(cfg.name, "lp_iterations", info["iterations"]))
        if key not in ladders:
            # norm ladder on a fixed polynomial test family
            rng = np.random.default_rng(cfg.seed)
            family = _affine_test_family(cfg.ambient, T.degree, rng, 4)
            ladders[key] = mass_chain(T), *lower_bounds(T, family, box)
        mass, dual, sharp = ladders[key]
        rows.append(_row(cfg.name, "mass", mass))
        rows.append(_row(cfg.name, "dual_flat_lower_bound", dual))
        rows.append(_row(cfg.name, "sharp_lower_bound", sharp))
        if last[key] == k:
            del hosts[key], ladders[key]
    return rows


# ----------------------------------------------------------------------
# convergence studies
# ----------------------------------------------------------------------

def cmd_converge(args, scenarios):
    rows = []
    rng = np.random.default_rng(args.seed)
    # adjointness residual vs subdivision on a triangle
    T = triangle_chain()
    phi = FormField.random_polynomial(2, 1, rng, max_degree=5)
    levels = [0, 1, 2, 3]
    resid = []
    for lv in levels:
        Tl = T.subdivided(lv)
        # centroid-rule evaluation so the quadrature error is visible
        r = abs(evaluate(boundary(Tl), phi, s_order=0)
                - evaluate(Tl, exterior_derivative(phi), s_order=0))
        resid.append(r)
        rows.append(_row("adjointness", "residual", r, 0.0, level=lv))
    rows.append(_row("adjointness", "observed_order",
                     _fit_order([2.0 ** -lv for lv in levels], resid)
                     if any(resid) else float("inf")))
    for cfg in scenarios:
        Tc = cfg.build_chain()
        if cfg.cochain is None:
            continue
        m = cfg.build_motion()
        box = cfg.build_box()
        family = [FormField.random_polynomial(cfg.ambient, Tc.degree, rng,
                                              max_degree=3) for _ in range(4)]
        eps = list(cfg.eps_ladder)
        lv = max(cfg.levels, 2)
        ests = continuity_modulus(m, Tc, 0.0, eps, family, box, levels=lv)
        for e, est in zip(eps, ests):
            rows.append(_row(cfg.name, "continuity_modulus", est, level=e))
        rows.append(_row(cfg.name, "continuity_slope",
                         _fit_order(eps, ests) if any(ests) else float("inf")))
        # homotopy residual vs time panels
        phi = FormField.random_polynomial(cfg.ambient, Tc.degree, rng,
                                          max_degree=3)
        panels = [2, 4, 8]
        # midpoint-rule time quadrature so the panel error is visible
        hres = homotopy_residuals(m, _HOMOTOPY_WINDOW, Tc, phi, panels,
                                  levels=cfg.levels, gauss_order=1)
        for p, r in zip(panels, hres):
            rows.append(_row(cfg.name, "homotopy_residual", r, 0.0, level=p))
        rows.append(_row(cfg.name, "homotopy_order",
                         _fit_order([1.0 / p for p in panels], hres)
                         if all(r > 1e-14 for r in hres) else float("inf")))
    return rows


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

# each subcommand: a function of the options and scenarios to its rows
_COMMANDS = {"verify": cmd_verify, "transport": cmd_transport,
             "flatnorm": cmd_flatnorm, "converge": cmd_converge}


def _at_least(low, whole=False):
    """The parser of an option's value: a finite number, whole when
    `whole` is set, of at least `low`."""
    def parse(text: str):
        try:
            value = int(text) if whole else float(text)
        except ValueError:
            value = float("nan")
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be a {'whole' if whole else 'finite'} number >= "
                f"{low}, got {text!r}")
        return value
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="currentkit",
        description="currents, flat norms, and transport experiments")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", help="scenario JSON file "
                        "(default: bundled scenario library)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=_at_least(1, whole=True), default=1,
                        help="accepted and has no effect: every command "
                        "runs in one thread")
    parser.add_argument("--seed", type=int, default=42)
    # at 0 only the exact checks (tolerance 0) can pass
    parser.add_argument("--tolerance-scale", type=_at_least(0),
                        default=1.0)
    return parser


def main(argv=None) -> int:
    """Write one subcommand's rows to <command>.csv in --out.  Exits 1
    when a row is marked _FAIL, and 2 on an error in the input or run."""
    args = _build_parser().parse_args(argv)
    level = os.environ.get("CURRENTKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        scenarios = (load_config(args.config) if args.config
                     else builtin_scenarios())
        for cfg in scenarios:
            cfg.seed = cfg.seed if args.config else args.seed
        os.makedirs(args.out, exist_ok=True)
        rows = _COMMANDS[args.command](args, scenarios)
        _write_csv(os.path.join(args.out, f"{args.command}.csv"), rows)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(row[1].endswith(_FAIL) for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
