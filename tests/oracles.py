"""Reference computations the tests compare the library against: an
independent transport-derivative pipeline, a Lagrangian FD pipeline, a
Richardson error estimate, interval quadrature with an error estimate, the
time-slice contraction and the product-current evaluation built on it,
the strong-Lipschitz distance, kernel mollification, the per-point
evaluators of the sampled contraction,
exterior derivative and pullback, the tuple and dict loops that build
permutation signs, the wedge sign table, the Kuhn children and the
Freudenthal complex one simplex at a time, the network simplex on
parent, depth and child-set lists, the all-pairs Lipschitz quotient, the
norm ladder one bound at a time, the homotopy formula's deformations,
the homotopy residual (one panel count at a time), the continuity
modulus and the finite-difference transport derivative one time node
at a time, the transport derivative through `Motion.push`, the maps of
the motion families one time at a time and the velocities of the affine
ones from their formulas, a radial stretch, polynomial evaluation
one term at a time from a filled array, `simplex_volumes` with the
Gram product on the transposed view of the edges, and a chain file
read one simplex record at a time.
They are not part of the library's API."""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np

from currentkit import flatnorm, forms
from currentkit.chains import Chain, boundary, evaluate
from currentkit.exterior import multi_indices
from currentkit.forms import (AffineMap, Box, FormField, VectorField,
                              contract, exterior_derivative, lie_derivative,
                              pullback, seminorm_comass, seminorm_flat,
                              seminorm_sharp)
from currentkit.lipschitz import LipMap, lipschitz_constant
from currentkit.motion import Cochain, Motion, velocity_field
from currentkit.polynomial import (Polynomial, _is_finite, _is_real,
                                   _real_array)
from currentkit.quadrature import integrate_interval


def transport_derivative_betounes(m: Motion, T: Chain, psi: Cochain,
                                  tau: float, levels: int = 0) -> float:
    """Equivalent smooth-data form: evaluate(kappa_tau# T,
    psi_dot + L_v psi); used as an independent pipeline."""
    pushed = m.push(T, tau, levels)
    v = velocity_field(m, tau)
    form = psi.dot_at(tau) + lie_derivative(psi.form_at(tau), v)
    return evaluate(pushed, form)


def transport_derivative_lagrangian_fd(kappa, T: Chain, psi: Cochain,
                                       tau: float, eps: float) -> float:
    """Lagrangian pipeline: FD of t -> T(kappa_t^# psi(t)), with `kappa`
    the exact map t -> kappa_t (a LipMap, such as
    `motion_map_by_formula` gives), using exact affine pullbacks of the
    representing form."""
    def pulled(t):
        lm = kappa(t)
        if isinstance(lm.func, AffineMap):
            return evaluate(T, pullback(psi.form_at(t), lm.func))
        return evaluate(T, pullback(psi.form_at(t), lm))

    return (pulled(tau + eps) - pulled(tau - eps)) / (2 * eps)


def evaluate_with_error(T: Chain, phi: FormField, s_order: int = 2,
                        subdivision: int = 1):
    """Evaluation plus a Richardson-style error estimate from one extra
    subdivision level."""
    coarse = evaluate(T.subdivided(subdivision), phi, s_order)
    fine = evaluate(T.subdivided(subdivision + 1), phi, s_order)
    return fine, abs(fine - coarse)


def adaptive_interval(f, a: float, b: float, tol: float = 1e-9,
                      order: int = 5, max_panels: int = 256):
    """Panel-doubling Gauss quadrature; returns (value, error_estimate)."""
    panels = 2
    prev = integrate_interval(f, a, b, panels, order)
    while panels < max_panels:
        panels *= 2
        cur = integrate_interval(f, a, b, panels, order)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return cur, err
        prev = cur
    return prev, abs(cur - prev) if panels > 2 else 0.0


def time_slice_contract(omega: FormField, t: float) -> FormField:
    """For omega of degree r+1 on R x R^n (slot 0 is time), return the
    spatial r-form (omega(t, .) -| e_t).

    The (r+1)-indices that begin with time are the first C(n, r) in
    lexicographic order, and their spatial tails are the r-indices of R^n
    in order; e_t in the front slot gives each of them the sign +1, and
    every other term has no dt and vanishes.  So the slice keeps the first
    C(n, r) coefficients, at time t."""
    if omega.degree < 1:
        raise ValueError("cannot contract a 0-form")
    n, r = omega.ambient - 1, omega.degree - 1
    keep = comb(n, r)
    if omega.is_polynomial:
        return FormField(r, n, polys=[p.substitute_first(t)
                                      for p in omega.polys[:keep]])
    return FormField.from_callable(
        n, r, lambda x, omega=omega, t=t: omega.coefficients_at(
            np.column_stack([np.full(len(x), t), x]))[:, :keep])


def interval_product_evaluate(interval, T: Chain, omega: FormField,
                              panels: int = 8, s_order: int = 2) -> float:
    """Evaluate ([a,b] x T) against a form on R x R^n: the time integral of
    T applied to the e_t-contraction of the time slice."""
    a, b = float(interval[0]), float(interval[1])
    if omega.ambient != T.ambient + 1 or omega.degree != T.degree + 1:
        raise ValueError("product form must live on R x R^n one degree up")
    if a == b:
        return 0.0

    def integrand(t):
        return evaluate(T, time_slice_contract(omega, t), s_order)

    return integrate_interval(integrand, a, b, panels=panels)


def strong_lip_distance(f: LipMap, g: LipMap, box: Box) -> float:
    """Strong-Lipschitz seminorm of f - g on K:
    max(sup |f-g|, Lip(f-g))."""
    diff = LipMap(f.ambient,
                  lambda x, a=f, b=g: a.values_at(x) - b.values_at(x))
    sup = max(float(np.linalg.norm(diff(x))) for x in box.grid())
    lip, _ = lipschitz_constant(diff, box)
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
        vals = np.stack([f.values_at(x + dx) for dx in nodes])
        return np.tensordot(wts, vals, axes=1)

    return LipMap(f.ambient, smoothed, name=f"mollified({f.name},{rho:g})")


# ----------------------------------------------------------------------
# per-point evaluators of the sampled backend, one point x at a time,
# each with its own basis-sign rule
# ----------------------------------------------------------------------

def contract_at(phi: FormField, v: VectorField, x) -> np.ndarray:
    """Coefficients of phi -| v at x: the interior-product loop, skipping
    zero coefficients and zero vector components."""
    r, n = phi.degree, phi.ambient
    coeffs, vec = phi(x).coefficients, v(x)
    ranks = {idx: k for k, idx in enumerate(multi_indices(r - 1, n))}
    out = np.zeros(comb(n, r - 1))
    for k, lam in enumerate(multi_indices(r, n)):
        if coeffs[k] == 0.0:
            continue
        for pos, i in enumerate(lam):
            if vec[i] == 0.0:
                continue
            sign = -1.0 if pos % 2 else 1.0
            out[ranks[lam[:pos] + lam[pos + 1:]]] += sign * coeffs[k] * vec[i]
    return out


def fd_step_at(x) -> float:
    """The central-difference step of the sampled d and pullback at the
    point x: `forms._FD_STEP` times |x|_inf, or `forms._FD_STEP` where
    that is 0."""
    return forms._FD_STEP * float(np.max(np.abs(x))) or forms._FD_STEP


def derivative_at(phi: FormField, x) -> np.ndarray:
    """Coefficients of the central-difference d(phi) at x, with the step
    of `exterior_derivative` (`fd_step_at`): for each j, then each lam,
    dx^j wedge dx^lam is (-1)^pos times the sorted index, pos the number
    of entries of lam below j."""
    r, n, h = phi.degree, phi.ambient, fd_step_at(x)
    ranks = {idx: k for k, idx in enumerate(multi_indices(r + 1, n))}
    out = np.zeros(comb(n, r + 1))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        dcoef = (phi(x + e).coefficients - phi(x - e).coefficients) / (2 * h)
        for k, lam in enumerate(multi_indices(r, n)):
            if j in lam:
                continue
            pos = sum(1 for i in lam if i < j)
            out[ranks[tuple(sorted((j,) + lam))]] += (
                (-1 if pos % 2 else 1) * dcoef[k])
    return out


def pullback_at(phi: FormField, f, x, source_dim: int,
                jacobian=None) -> np.ndarray:
    """Coefficients of f^#(phi) at x: the r-minors of the Jacobian of f
    (given, or by central differences with the step `fd_step_at`)
    against phi(f(x))."""
    r = phi.degree
    x = np.asarray(x, dtype=float)
    if jacobian is not None:
        jac = np.asarray(jacobian(x), dtype=float)
    else:
        hx = fd_step_at(x)
        cols = []
        for j in range(source_dim):
            e = np.zeros(source_dim)
            e[j] = hx
            cols.append((np.asarray(f(x + e), float)
                         - np.asarray(f(x - e), float)) / (2 * hx))
        jac = np.stack(cols, axis=-1)
    cov = phi(f(x)).coefficients

    def minor(rows, cols):
        if len(rows) == 0:
            return 1.0
        return float(np.linalg.det(jac[np.ix_(rows, cols)]))

    return np.array([
        sum(cov[k] * minor(lam, mu)
            for k, lam in enumerate(multi_indices(r, phi.ambient)))
        for mu in multi_indices(r, source_dim)])


# ----------------------------------------------------------------------
# sign tables, Kuhn children and the Freudenthal complex on tuples and
# dicts, one simplex at a time
# ----------------------------------------------------------------------

def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), by its cycles: +1 if
    even, -1 if odd."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def merge_sign(a: tuple, b: tuple):
    """Sorted union of two disjoint increasing tuples and the merge sign,
    the parity of the inversions of a + b; (None, 0) when they
    intersect."""
    if set(a) & set(b):
        return None, 0
    inversions = sum(1 for x in a for y in b if x > y)
    return tuple(sorted(a + b)), -1 if inversions % 2 else 1


def wedge_terms(p: int, q: int, n: int) -> tuple:
    """(index in a, index in b, output rank, sign) of every term of a
    p-vector wedge a q-vector over R^n that alternation keeps, looping
    over the indices of a, then of b."""
    ranks = {idx: k for k, idx in enumerate(multi_indices(p + q, n))}
    terms = []
    for i, la in enumerate(multi_indices(p, n)):
        for j, lb in enumerate(multi_indices(q, n)):
            merged, sign = merge_sign(la, lb)
            if sign:
                terms.append((i, j, ranks[merged], sign))
    return tuple(terms)


def kuhn_children(dim: int, k: int = 2) -> tuple:
    """The Kuhn simplices of the k-scaled path simplex
    k >= y_1 >= ... >= y_dim >= 0, walking every cell, then every
    permutation: (vertex tuples in y-coordinates, path sign) pairs."""
    children = []
    for g in product(range(k), repeat=dim):
        for perm in permutations(range(dim)):
            cur = list(g)
            verts = [tuple(cur)]
            for j in perm:
                cur[j] += 1
                verts.append(tuple(cur))
            if all(all(v[i] >= v[i + 1] for i in range(dim - 1))
                   and v[0] <= k and v[-1] >= 0 for v in verts):
                children.append((tuple(verts), perm_sign(perm)))
    assert len(children) == k ** dim
    return tuple(children)


def loop_freudenthal(lower, upper, resolution: int):
    """The Freudenthal complex of a box as its vertices (row-major grid),
    simplices per degree (lists of sorted tuples: the top ones in
    cell-then-permutation order, the faces in lexicographic order) and
    the top orientations keyed by simplex, each the path sign times the
    sign of sorting the path's vertex ids."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n, m = lower.size, resolution
    axes = [np.linspace(lower[i], upper[i], m + 1) for i in range(n)]

    def vid(g):
        out = 0
        for gi in g:
            out = out * (m + 1) + gi
        return out

    verts = np.array([[axes[i][g[i]] for i in range(n)]
                      for g in product(range(m + 1), repeat=n)])
    tops, orientation = [], {}
    for cell in product(range(m), repeat=n):
        for perm in permutations(range(n)):
            g = list(cell)
            ids = [vid(g)]
            for j in perm:
                g[j] += 1
                ids.append(vid(g))
            order = sorted(range(len(ids)), key=lambda i: ids[i])
            key = tuple(sorted(ids))
            tops.append(key)
            orientation[key] = perm_sign(perm) * perm_sign(order)
    simplices = {n: tops}
    for r in range(n - 1, -1, -1):
        simplices[r] = sorted({f for s in simplices[r + 1]
                               for f in combinations(s, r + 1)})
    return verts, simplices, {n: orientation}


def loop_boundary_matrix(simplices: dict, r: int) -> np.ndarray:
    """Signed incidence of the (r-1)-faces against the r-simplices, filled
    one face of one simplex at a time."""
    rows = {s: k for k, s in enumerate(simplices[r - 1])}
    mat = np.zeros((len(simplices[r - 1]), len(simplices[r])))
    for j, s in enumerate(simplices[r]):
        for i in range(r + 1):
            mat[rows[s[:i] + s[i + 1:]], j] = -1.0 if i % 2 else 1.0
    return mat


def depth_network_simplex(tail, head, cost, cap, n_nodes):
    """The library's `flatnorm._network_simplex` as it was with the tree
    held by parent, depth and child-set lists: the cycle's ends climb by
    depth, and each pivot walks the moved subtree through the child sets
    to reset its depths.  Same pricing (it reads `flatnorm._CANDIDATES`),
    leaving-arc rule, flow snapping and potential updates, so the same
    pivot path and the same potentials bit for bit: (pi, pivots)."""
    n_arcs, root = len(tail), n_nodes - 1
    parent, arc = [root] * root + [-1], list(range(root)) + [-1]
    depth = [1] * root + [0]
    children = [set() for _ in range(root)] + [set(range(root))]
    pi, pil, moved = np.zeros(n_nodes), [0.0] * n_nodes, []
    # +1 at 0, -1 at cap, 0 in tree; float, so that pricing casts nothing
    state = np.concatenate([np.zeros(root), np.ones(n_arcs - root)])
    rate = state.item
    flow = [0.0] * n_arcs
    capl, taill, headl = cap.tolist(), tail.tolist(), head.tolist()
    costl = cost.tolist()
    tol = [flatnorm._FLOW_TOL * c for c in capl]
    cost_tol = flatnorm._COST_TOL * float(np.max(np.abs(cost),
                                                 initial=0.0))

    width = max(flatnorm._MIN_BLOCK, int(np.sqrt(n_arcs)))
    # each block's tail and head nodes, so one take gathers both ends
    blocks = [(lo, np.concatenate([tail[lo:hi], head[lo:hi]]), cost[lo:hi],
               state[lo:hi], hi - lo)
              for lo in range(0, n_arcs, width)
              for hi in [min(lo + width, n_arcs)]]
    block = pivots = 0
    candidates, minor = [], False
    while True:
        # minor iteration: the most violating candidate, priced as in numpy
        e, best, rest = -1, -cost_tol, []
        for a in candidates:
            reduced = (costl[a] + pil[taill[a]] - pil[headl[a]]) * rate(a)
            if reduced < -cost_tol:
                rest.append(a)
                if reduced < best:
                    e, best = a, reduced
        if e >= 0:
            rest.remove(e)
            candidates, minor = rest, True
        else:
            block, minor = (block + minor) % len(blocks), False
            # the moved potentials reach numpy; all if over a quarter moved
            if 4 * len(moved) > n_nodes:
                pi[:] = pil
            else:
                pi[moved] = [pil[v] for v in moved]
            moved = []
            for _ in blocks:
                lo, ends, bcost, bstate, w = blocks[block]
                at = pi.take(ends)
                reduced = bcost + at[:w]
                reduced -= at[w:]
                reduced *= bstate
                j = int(reduced.argmin())
                if reduced[j] < -cost_tol:
                    top = np.flatnonzero(reduced < -cost_tol)
                    top = top[reduced[top].argsort(kind="stable")]
                    e, *candidates = (top[:flatnorm._CANDIDATES]
                                      + lo).tolist()
                    break
                block = (block + 1) % len(blocks)
            else:
                return pi, pivots
        if pivots == flatnorm._MAX_PIVOTS_PER_ARC * n_arcs:
            raise RuntimeError(f"network simplex pivot limit reached: "
                               f"{pivots} pivots on {n_arcs} arcs")
        pivots += 1
        # the cycle e, up from `second`, down to `first`: both ends climb
        # to the join, the deeper first, with the ratio test on the way.
        # Of equal blocking arcs the last from the join leaves: the first
        # of `down` (nearest `first`), then e, then the last of `up`
        raising = rate(e) > 0
        first, second = ((taill[e], headl[e]) if raising
                         else (headl[e], taill[e]))
        down, up, along, against = [], [], [], []
        down_room = up_room = float("inf")
        u, v = first, second
        du, dv = depth[u], depth[v]
        while u != v:
            if du >= dv:
                a = arc[u]
                if taill[a] == u:
                    room = flow[a]
                    against.append(a)
                else:
                    room = capl[a] - flow[a]
                    along.append(a)
                if room < down_room:
                    down_room, down_out = room, len(down)
                down.append(u)
                u, du = parent[u], du - 1
            if dv > du:
                a = arc[v]
                if taill[a] == v:
                    room = capl[a] - flow[a]
                    along.append(a)
                else:
                    room = flow[a]
                    against.append(a)
                if room <= up_room:
                    up_room, up_out = room, len(up)
                up.append(v)
                v, dv = parent[v], dv - 1
        delta, stem = capl[e], None
        if down_room < delta:
            delta, stem, out, hang = down_room, down, down_out, second
        if up_room <= delta:
            delta, stem, out, hang = up_room, up, up_out, first
        if delta > 0.0:
            (along if raising else against).append(e)
            for a, x in ([(a, flow[a] + delta) for a in along]
                         + [(a, flow[a] - delta) for a in against]):
                flow[a] = (0.0 if x <= tol[a] else capl[a]
                           if capl[a] - x <= tol[a] else x)
        if stem is None:  # e goes from one bound to the other
            state[e] = -state[e]
            continue
        leave = arc[stem[out]]
        state[leave] = 1.0 if flow[leave] == 0.0 else -1.0
        state[e] = 0.0
        # the subtree below the leaving arc hangs from e by stem[0]: the
        # stem's links reverse, and one walk resets depths and potentials
        gap = costl[e] + pil[taill[e]] - pil[headl[e]]
        v = stem[out]
        children[parent[v]].remove(v)
        for below in reversed(stem[:out]):
            parent[v], arc[v] = below, arc[below]
            children[v].remove(below)
            children[below].add(v)
            v = below
        parent[v], arc[v] = hang, e
        children[hang].add(v)
        shift = gap if v == headl[e] else -gap
        nodes = [v]
        for v in nodes:
            depth[v] = depth[parent[v]] + 1
            pil[v] += shift
            if children[v]:
                nodes.extend(children[v])
        moved += nodes


def all_pairs_lipschitz(values_at, pts) -> float:
    """max |F(x_i) - F(x_j)| / |x_i - x_j| over the pairs of distinct
    points, from (p, p) tables of value differences and distances, for
    `values_at` mapping points (m, n) to values (m, c): a form's
    `coefficients_at` or a map's `values_at`."""
    values = values_at(pts)
    diff = values[:, None, :] - values[None, :, :]
    num = np.linalg.norm(diff, axis=2)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    mask = dist > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / dist[mask]))


# ----------------------------------------------------------------------
# the norm ladder, one bound at a time
# ----------------------------------------------------------------------

def lower_bound_by_seminorm(T, family, what: str, box: Box, **kw) -> float:
    """`flatnorm.dual_flat_lower_bound` (`what` "flat") or
    `flatnorm.sharp_lower_bound` ("sharp") with a pass of its own over the
    family: the form's whole seminorm (`forms.seminorm_flat` or
    `forms.seminorm_sharp`), then T(phi), per form; the max of the ratios
    from 0.0."""
    seminorm = {"flat": seminorm_flat, "sharp": seminorm_sharp}[what]
    if not family:
        raise ValueError("empty test family")
    best = 0.0
    for phi in family:
        denom = seminorm(phi, box, **kw)
        if denom <= 0.0:
            raise ValueError(f"test form with vanishing {what} seminorm")
        best = max(best, evaluate(T, phi) / denom)
    return best


# ----------------------------------------------------------------------
# the homotopy formula's deformations, one time node at a time
# ----------------------------------------------------------------------

def gauss_by_panel(f, a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre quadrature calling f at one node at a
    time: per panel, its half-width times sum(w * f(mid + half * x)),
    added to a total from 0.0."""
    if a == b:
        return 0.0
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * sum(w * f(mid + half * x) for x, w in zip(xs, ws))
    return total


def deformation_by_node(m: Motion, interval, T: Chain, phi: FormField,
                        levels: int = 0, panels: int = 8,
                        gauss_order: int = 5) -> float:
    """The deformation of T under m over `interval` against phi, the time
    integral of (kappa_t# T)(phi -| v_t), with one push, one contraction
    and one evaluation per time node."""
    work = T.subdivided(levels)

    def integrand(tau):
        pushed = m.push(work, tau)
        return evaluate(pushed, contract(phi, velocity_field(m, tau)))

    return gauss_by_panel(integrand, *interval, panels, gauss_order)


def homotopy_residual_by_node(m: Motion, interval, T: Chain,
                              phi: FormField, levels: int = 0,
                              panels: int = 8, gauss_order: int = 5):
    """The homotopy residual at one panel count as the formula reads:
    |kappa_b# T(phi) - kappa_a# T(phi) - h(d phi) - h_bnd(phi)|, the ends
    pushed by `Motion.push`, the deformations h of T and h_bnd of its
    boundary by `deformation_by_node`, and the right side summed from
    0.0."""
    a, b = interval
    work = T.subdivided(levels)
    lhs = evaluate(m.push(work, b), phi) - evaluate(m.push(work, a), phi)
    rhs = 0.0
    if T.degree + 1 <= T.ambient:
        rhs += deformation_by_node(m, interval, T, exterior_derivative(phi),
                                   levels, panels, gauss_order)
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            rhs += deformation_by_node(m, interval, bt, phi, levels, panels,
                                       gauss_order)
    return abs(lhs - rhs)


def continuity_modulus_by_node(m: Motion, T: Chain, t: float, eps_list,
                               family, box: Box, levels: int = 0):
    """`motion.continuity_modulus` with one push per epsilon and one
    evaluation per push and form."""
    work = T.subdivided(levels)
    base = m.push(work, t)
    norms = [seminorm_comass(phi, box) for phi in family]
    out = []
    for eps in eps_list:
        moved = m.push(work, t + eps)
        est = max(abs(evaluate(moved, phi) - evaluate(base, phi)) / nn
                  for phi, nn in zip(family, norms) if nn > 0)
        out.append(est)
    return out


def transport_derivative_fd_by_node(m: Motion, T: Chain, psi: Cochain,
                                    tau: float, eps: float, levels: int = 0,
                                    one_sided: bool = False) -> float:
    """`motion.transport_derivative_fd` with one push and one evaluation
    per time."""
    work = T.subdivided(levels)

    def total(t):
        return evaluate(m.push(work, t), psi.form_at(t))

    if one_sided:
        return (total(tau + eps) - total(tau)) / eps
    return (total(tau + eps) - total(tau - eps)) / (2 * eps)


def transport_derivative_by_push(m: Motion, T: Chain, psi: Cochain,
                                 tau: float, levels: int = 0) -> float:
    """`motion.transport_derivative` through `Motion.push` and
    `evaluate`: T pushed as a chain of its own, evaluated against psi_dot
    and d(phi) -| v, then phi -| v on the pushed boundary, added in that
    order."""
    m.check_time(tau)
    pushed = m.push(T, tau, levels)
    v = velocity_field(m, tau)
    phi = psi.form_at(tau)
    total = evaluate(pushed, psi.dot_at(tau))
    if T.degree + 1 <= T.ambient:
        total += evaluate(pushed, contract(exterior_derivative(phi), v))
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            total += evaluate(m.push(bt, tau, levels), contract(phi, v))
    return total


def motion_map_by_formula(name: str, ambient: int, t: float,
                          **params) -> LipMap:
    """kappa_t of the `make_motion` family `name`, written from its formula
    with `params` over the family's defaults: the translation by
    t * velocity, the rotation (cos, -sin; sin, cos) by the angle
    rate * t, the expansion (1 + t) I, the shear I + rate * t e_0 e_1^T,
    and the tent's lift of x along `axis` by amplitude * t times the hat
    of x_0 at `center` of half-width `width`."""
    if name == "identity":
        return LipMap.affine(np.eye(ambient))
    if name == "translation":
        velocity = params.get("velocity", 0.25 * np.eye(ambient)[0])
        return LipMap.affine(np.eye(ambient), t * np.asarray(velocity, float))
    if name == "rotation":
        angle = params.get("rate", 1.0) * t
        return LipMap.affine([[np.cos(angle), -np.sin(angle)],
                              [np.sin(angle), np.cos(angle)]])
    if name == "expansion":
        return LipMap.affine((1.0 + t) * np.eye(ambient))
    if name == "shear":
        mat = np.eye(ambient)
        mat[0, 1] = params.get("rate", 0.5) * t
        return LipMap.affine(mat)
    tent = {"center": 0.5, "width": 0.5, "amplitude": 0.3, "axis": 1,
            **params}

    def lift(x):
        hat = np.maximum(0.0, 1.0 - np.abs(x[:, 0] - tent["center"])
                         / tent["width"])
        out = x.copy()
        out[:, tent["axis"]] += tent["amplitude"] * t * hat
        return out

    return LipMap(ambient, lift)


def velocity_by_formula(name: str, ambient: int, t: float,
                        **params) -> VectorField:
    """v_t of the affine `make_motion` family `name`, written from its
    formula with `params` over the family's defaults: 0 for the identity,
    the constant velocity of the translation, (-rate y, rate x) for the
    rotation, y / (1 + t) for the expansion and rate * y_1 e_0 for the
    shear."""
    x = [Polynomial.variable(i, ambient) for i in range(ambient)]
    comps = [Polynomial.zero(ambient) for _ in range(ambient)]
    if name == "translation":
        velocity = params.get("velocity", 0.25 * np.eye(ambient)[0])
        comps = [Polynomial.constant(ambient, c) for c in velocity]
    elif name == "rotation":
        rate = params.get("rate", 1.0)
        comps = [-rate * x[1], rate * x[0]]
    elif name == "expansion":
        comps = [xi * (1.0 / (1.0 + t)) for xi in x]
    elif name == "shear":
        comps[0] = params.get("rate", 0.5) * x[1]
    elif name != "identity":
        raise ValueError(f"no affine motion family {name!r}")
    return VectorField.from_polynomials(comps)


def radial_stretch(ambient: int, strength: float) -> LipMap:
    """The curved map x -> x (1 + strength |x|^2)."""
    def f(x):
        return x * (1.0 + strength * np.sum(x * x, axis=1, keepdims=True))

    return LipMap(ambient, f)


def eval_many_by_term(p: Polynomial, pts) -> np.ndarray:
    """`Polynomial.eval_many` with each term filled with its coefficient
    and multiplied by its powers in place, then added to the sum."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[0])
    for e, c in p.terms.items():
        term = np.full(pts.shape[0], c)
        for i, ei in enumerate(e):
            if ei:
                term *= pts[:, i] ** ei
        out += term
    return out


def gram_volumes_by_view(vertices) -> np.ndarray:
    """`simplex_volumes` with the Gram product taken on the transposed
    view of the edges, which shares their buffer."""
    v = np.asarray(vertices, dtype=float)
    r = v.shape[1] - 1
    if r == 0:
        return np.ones(v.shape[0])
    edges = v[:, 1:] - v[:, :1]
    det = np.linalg.det(np.matmul(edges, edges.transpose(0, 2, 1)))
    return np.sqrt(np.where(det < 0.0, 0.0, det)) / factorial(r)


def chain_from_records(obj) -> Chain:
    """`Chain.from_json_obj` checking one simplex record at a time: each
    record's keys and multiplicity, then each record's vertices, then the
    signs.  Other keys of a record are not looked at.  The chain is built
    from the stacked simplices, by `Chain`."""
    def is_int(value, low, high=None):
        return (type(value) is int and value >= low
                and (high is None or value < high))

    degree, ambient = obj["degree"], obj["ambient"]
    table = _real_array(obj["vertex_table"]).reshape(-1, ambient)
    records = obj["simplices"]
    for k, rec in enumerate(records):
        for key in ("vertices", "multiplicity"):
            if not isinstance(rec, dict) or key not in rec:
                raise ValueError(f'simplex {k} of the chain lacks "{key}"')
        mult = rec["multiplicity"]
        if not _is_real(mult):
            raise ValueError(f'simplex {k} of the chain: "multiplicity" '
                             f'must be a number, got {mult!r}')
        if not _is_finite(mult):
            raise ValueError(f'simplex {k} of the chain: "multiplicity" '
                             f'must be finite, got {mult!r}')
    rows = [rec["vertices"] for rec in records]
    width, size = degree + 1, len(table)
    for k, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == width
                and all(is_int(i, 0, size) for i in row)):
            raise ValueError(
                f'simplex {k} of the chain: "vertices" must be {width} '
                f'integers in range({size}), the rows of its vertex_table; '
                f'got {row!r}')
    ids = np.array(rows, dtype=np.intp).reshape(-1, width)
    signs = [rec.get("sign", 1) for rec in records]
    if not all(is_int(sign, -1, 2) and sign for sign in signs):
        raise ValueError('a simplex\'s "sign" must be the integer +1 or -1')
    mults = np.array([rec["multiplicity"] for rec in records],
                     dtype=float) * np.array(signs, dtype=float)
    return Chain(table[ids], mults)
