"""Reference computations the tests compare the library against: an
independent transport-derivative pipeline, a Lagrangian FD pipeline, a
Richardson error estimate, interval quadrature with an error estimate, the
product-current evaluation, the strong-Lipschitz distance, kernel
mollification, the per-point evaluators of the sampled contraction,
exterior derivative and pullback, the tuple and dict loops that build
permutation signs, the wedge sign table, the Kuhn children and the
Freudenthal complex one simplex at a time, the network simplex on a numpy
preorder tree, the all-pairs Lipschitz quotient, the norm ladder one
bound at a time, deformation chains, the homotopy residual, the
continuity modulus and the finite-difference transport derivative one
time node at a time, the homotopy residual one panel count at a time,
and the transport derivative through `Motion.push`.
They are not part of the library's API."""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb

import numpy as np

from currentkit import flatnorm, forms
from currentkit.chains import (Boundary, Chain, _leaf_evaluate, boundary,
                               evaluate)
from currentkit.exterior import multi_indices
from currentkit.forms import (AffineMap, Box, FormField, VectorField,
                              contract, exterior_derivative, lie_derivative,
                              pullback, seminorm_comass, seminorm_flat,
                              seminorm_sharp, time_slice_contract)
from currentkit.lipschitz import LipMap, lipschitz_constant
from currentkit.motion import (Cochain, Deformation, Motion,
                               deformation_chain, velocity_field)
from currentkit.quadrature import integrate_interval


def transport_derivative_betounes(m: Motion, T: Chain, psi: Cochain,
                                  tau: float, levels: int = 0) -> float:
    """Equivalent smooth-data form: evaluate(kappa_tau# T,
    psi_dot + L_v psi); used as an independent pipeline."""
    pushed = m.push(T, tau, levels)
    v = velocity_field(m, tau)
    form = psi.dot_at(tau) + lie_derivative(psi.form_at(tau), v)
    return evaluate(pushed, form)


def transport_derivative_lagrangian_fd(m: Motion, T: Chain, psi: Cochain,
                                       tau: float, eps: float) -> float:
    """Lagrangian pipeline: FD of t -> T(kappa_t^# psi(t)) using exact
    affine pullbacks of the representing form."""
    def pulled(t):
        lm = m.map_at(t)
        amap = getattr(lm, "func", None)
        if isinstance(amap, AffineMap):
            return evaluate(T, pullback(psi.form_at(t), amap))
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
        return _leaf_evaluate(T, time_slice_contract(omega, t), s_order)

    return integrate_interval(integrand, a, b, panels=panels)


def strong_lip_distance(f: LipMap, g: LipMap, box: Box,
                        n_pairs: int = 20_000) -> float:
    """Strong-Lipschitz seminorm of f - g on K:
    max(sup |f-g|, Lip(f-g))."""
    diff = LipMap(f.ambient,
                  lambda x, a=f, b=g: a.values_at(x) - b.values_at(x))
    sup = max(float(np.linalg.norm(diff(x))) for x in box.grid())
    lip, _ = lipschitz_constant(diff, box, n_pairs)
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


def derivative_at(phi: FormField, x) -> np.ndarray:
    """Coefficients of the central-difference d(phi) at x, with the step
    of `exterior_derivative`: for each j, then each lam, dx^j wedge dx^lam
    is (-1)^pos times the sorted index, pos the number of entries of lam
    below j."""
    r, n, h = phi.degree, phi.ambient, forms._FD_STEP
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


def pullback_at(phi: FormField, f, x, source_dim: int, jacobian=None,
                h: float = 1e-6) -> np.ndarray:
    """Coefficients of f^#(phi) at x: the r-minors of the Jacobian of f
    (given, or by central differences with step h * max(1, |x|_inf))
    against phi(f(x))."""
    r = phi.degree
    x = np.asarray(x, dtype=float)
    if jacobian is not None:
        jac = np.asarray(jacobian(x), dtype=float)
    else:
        hx = h * max(1.0, float(np.max(np.abs(x))))
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


class PreorderTree:
    """The spanning tree of a network simplex, rooted at node n - 1: each
    node's parent and the arc to it, and a preorder in which the subtree
    of node v is order[pos[v]:pos[v] + size[v]].  It starts as the star
    of arcs v -> root, arc v for node v."""

    def __init__(self, n: int):
        root = n - 1
        self.parent = [root] * root + [-1]
        self.arc = list(range(root)) + [-1]
        self.order = np.concatenate([[root], np.arange(root)])
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[self.order] = np.arange(n)
        self.size = [1] * root + [n]

    def paths(self, u: int, v: int):
        """The nodes from u and from v up to their lowest common ancestor,
        which neither list holds: the first ancestor of u whose subtree
        holds v."""
        pos, size, parent = self.pos, self.size, self.parent
        at = pos[v]
        from_u = []
        while not 0 <= at - pos[u] < size[u]:
            from_u.append(u)
            u = parent[u]
        from_v = []
        while v != u:
            from_v.append(v)
            v = parent[v]
        return from_u, from_v

    def subtree(self, v: int) -> np.ndarray:
        lo = int(self.pos[v])
        return self.order[lo:lo + self.size[v]]

    def rehang(self, stem: list, shrink: list, grow: list, parent: int,
               arc: int):
        """Cut the subtree below stem[-1] and hang it by `arc` from
        `parent`, rooted at stem[0].  `stem` is the path from stem[0] up
        to stem[-1]; `shrink` the ancestors of stem[-1], and `grow`
        `parent` and its ancestors, both up to the common ancestor of
        stem[-1] and `parent`, which neither holds."""
        order, pos, size = self.order, self.pos, self.size
        lo = int(pos[stem[-1]])
        moved = size[stem[-1]]
        hi = lo + moved
        # rerooted at stem[0], the subtree's preorder is stem[0]'s old
        # subtree, then stem[1]'s old subtree without it, and so on
        inner = pos[stem[0]]
        pieces = [order[inner:inner + size[stem[0]]]]
        for below, v in zip(stem, stem[1:]):
            a = pos[v]
            pieces += [order[a:inner], order[inner + size[below]:a + size[v]]]
            inner = a
        segment = np.concatenate(pieces)
        for i in range(len(stem) - 1, 0, -1):
            size[stem[i]] = moved - size[stem[i - 1]]
            self.parent[stem[i]] = stem[i - 1]
            self.arc[stem[i]] = self.arc[stem[i - 1]]
        size[stem[0]] = moved
        for v in shrink:
            size[v] -= moved
        for v in grow:
            size[v] += moved
        self.parent[stem[0]], self.arc[stem[0]] = parent, arc
        # move the segment to just after its new parent
        at = int(pos[parent])
        if at < lo:
            order[at + 1 + moved:hi] = order[at + 1:lo]
            order[at + 1:at + 1 + moved] = segment
            lo = at + 1
        else:
            order[lo:at + 1 - moved] = order[hi:at + 1]
            order[at + 1 - moved:at + 1] = segment
            hi = at + 1
        pos[order[lo:hi]] = np.arange(lo, hi)


def preorder_network_simplex(tail, head, cost, cap, n_nodes):
    """The library's `flatnorm._network_simplex` as it was on a numpy
    preorder tree (`PreorderTree`), whose `rehang` splices the moved
    subtree's slice of the preorder per pivot.  Same pricing, leaving-arc
    rule, flow snapping and potential updates, so the same pivot path and
    the same potentials bit for bit: (pi, pivots)."""
    n_arcs = len(tail)
    tree = PreorderTree(n_nodes)
    pi = np.zeros(n_nodes)
    state = np.ones(n_arcs, dtype=np.int8)  # +1 at 0, -1 at cap, 0 in tree
    state[:n_nodes - 1] = 0
    flow = [0.0] * n_arcs
    capl, taill, headl = cap.tolist(), tail.tolist(), head.tolist()
    tol = [flatnorm._FLOW_TOL * c for c in capl]
    cost_tol = flatnorm._COST_TOL * float(np.max(np.abs(cost), initial=0.0))

    width = max(flatnorm._MIN_BLOCK, int(np.sqrt(n_arcs)))
    blocks = [(lo, tail[lo:lo + width], head[lo:lo + width],
               cost[lo:lo + width], state[lo:lo + width])
              for lo in range(0, n_arcs, width)]
    block = pivots = 0
    while True:
        for _ in blocks:
            lo, btail, bhead, bcost, bstate = blocks[block]
            reduced = bstate * (bcost + pi[btail] - pi[bhead])
            j = int(reduced.argmin())
            if reduced[j] < -cost_tol:
                e = lo + j
                break
            block = (block + 1) % len(blocks)
        else:
            return pi, pivots
        if pivots == flatnorm._MAX_PIVOTS_PER_ARC * n_arcs:
            raise RuntimeError(f"network simplex pivot limit reached: "
                               f"{pivots} pivots on {n_arcs} arcs")
        pivots += 1
        # the cycle: e, then up from `second` to the join, then down from
        # the join to `first`
        raising = state[e] > 0
        first, second = ((taill[e], headl[e]) if raising
                         else (headl[e], taill[e]))
        down, up = tree.paths(first, second)
        arc = tree.arc
        # ratio test; of equal blocking arcs the last from the join leaves:
        # the first of `down` (nearest `first`), then e, then the last of
        # `up`.  `ahead` where the cycle's flow runs along the arc
        cycle = []
        delta, out = capl[e], -1
        for u in down:
            a = arc[u]
            ahead = taill[a] != u
            room = capl[a] - flow[a] if ahead else flow[a]
            if room < delta:
                delta, out = room, len(cycle)
            cycle.append((a, ahead))
        for u in up:
            a = arc[u]
            ahead = taill[a] == u
            room = capl[a] - flow[a] if ahead else flow[a]
            if room <= delta:
                delta, out = room, len(cycle)
            cycle.append((a, ahead))
        if delta > 0.0:
            cycle.append((e, raising))
            for a, ahead in cycle:
                x = flow[a] + delta if ahead else flow[a] - delta
                flow[a] = (0.0 if x <= tol[a] else capl[a]
                           if capl[a] - x <= tol[a] else x)
        if out < 0:  # e goes from one bound to the other
            state[e] = -state[e]
            continue
        leave = cycle[out][0]
        state[leave] = 1 if flow[leave] == 0.0 else -1
        state[e] = 0
        # the subtree below the leaving arc hangs from e, rooted at the
        # end of e inside it; its potentials shift to price e at zero
        if out < len(down):
            stem, grow, parent = down, up, second
        else:
            stem, grow, parent, out = up, down, first, out - len(down)
        gap = cost[e] + pi[taill[e]] - pi[headl[e]]
        pi[tree.subtree(stem[out])] += gap if stem[0] == headl[e] else -gap
        tree.rehang(stem[:out + 1], stem[out + 1:], grow, parent, e)


def all_pairs_lipschitz(phi: FormField, pts) -> float:
    """max ||phi(x_i) - phi(x_j)|| / |x_i - x_j| over the pairs of distinct
    points, from (p, p) tables of coefficient differences and distances."""
    coeffs = phi.coefficients_at(pts)
    diff = coeffs[:, None, :] - coeffs[None, :, :]
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
# deformation chains, one time node at a time
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


def deformation_by_node(deform: Deformation, phi: FormField,
                        s_order: int = 2) -> float:
    """A deformation chain against phi with one push, one contraction and
    one evaluation per time node."""
    a, b = deform.interval
    work = deform.chain.subdivided(deform.levels)

    def integrand(tau):
        pushed = deform.motion.push(work, tau)
        v = velocity_field(deform.motion, tau)
        return evaluate(pushed, contract(phi, v), s_order)

    return gauss_by_panel(integrand, a, b, deform.panels, deform.gauss_order)


def homotopy_residual_by_node(m: Motion, interval, T: Chain,
                              phi: FormField, levels: int = 0,
                              panels: int = 8, gauss_order: int = 5):
    """`motion.homotopy_residual` with one push per end and
    `deformation_by_node` for the deformation chains."""
    a, b = interval
    work = T.subdivided(levels)
    lhs = evaluate(m.push(work, b), phi) - evaluate(m.push(work, a), phi)
    rhs = 0.0
    if T.degree + 1 <= T.ambient:
        rhs += deformation_by_node(
            deformation_chain(m, interval, T, levels, panels, gauss_order),
            exterior_derivative(phi))
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            rhs += deformation_by_node(deformation_chain(
                m, interval, bt, levels, panels, gauss_order), phi)
    return abs(lhs - rhs)


def homotopy_residual_by_rung(m: Motion, interval, T: Chain,
                              phi: FormField, levels: int = 0,
                              panels: int = 8, gauss_order: int = 5):
    """The homotopy residual at one panel count as the formula reads:
    |f#T_b(phi) - f#T_a(phi) - (bnd h)(phi) - h_bnd(T)(phi)|, the ends
    pushed by `Motion.push` and the deformation chains h of T and h_bnd(T)
    of its boundary evaluated as `Deformation`s, the right side summed
    from 0.0."""
    a, b = interval
    work = T.subdivided(levels)
    lhs = evaluate(m.push(work, b), phi) - evaluate(m.push(work, a), phi)
    rhs = 0.0
    if T.degree + 1 <= T.ambient:
        rhs += evaluate(Boundary(Deformation(m, (a, b), T, levels, panels,
                                             gauss_order)), phi)
    if T.degree >= 1:
        bt = boundary(T)
        if len(bt):
            rhs += evaluate(Deformation(m, (a, b), bt, levels, panels,
                                        gauss_order), phi)
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
