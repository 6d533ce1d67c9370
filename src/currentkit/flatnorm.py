"""Flat norm of simplicial chains by linear programming, plus dual-pairing
lower-bound estimators for the flat and sharp norms of general currents.

The LP minimizes  sum_i vol_i |t_i - (B s)_i| + sum_j vol_j |s_j|  over the
(r+1)-coefficients s of the hosting complex.  `flat_norm_lp` has three
cases, read off the input alone:

- No (r+1)-simplex (a top-degree chain): s is empty, so R = T, S = 0 and
  the flat norm is the mass.  No solver runs.
- Codimension 1 with a dual graph: the LP is the dual of a min-cost
  circulation on the complex's dual graph (Sullivan, thesis, 1990;
  Ibrahim, Krishnamoorthy & Vixie, JoCG 2013): one node per top simplex
  plus a ground node, one arc per face.  It applies when r = n - 1, every
  (n-1)-face has one or two cofaces, and two cofaces carry opposite signs
  under `top_orientations`.  A network simplex solves it; arcs are priced
  in numpy blocks, and the spanning tree is Python lists of parents, arcs,
  depths and children, so a pivot costs its cycle's length plus the size
  of the subtree it moves.  S is the tree's node potentials, so
  R = t - B S is exact for integral t.
- Everything else (degrees 0 <= r <= n - 2, a face with three or more
  cofaces, incoherent orientations): `lp_solve`, Bland's primal simplex
  on the dense LP with the L1 terms split into nonnegative pairs, started
  at the feasible basis R = t, S = 0.  The objective is bounded below by
  0, so the LP needs no phase 1 and cannot be unbounded.

Every case reports value = M(R) + M(S).

The norm ladder bounds the flat and sharp norms of any current from below
by max(0, max over a test family of T(phi) / s(phi)), with s the sampled
flat or sharp seminorm (`forms.seminorm_flat`, `forms.seminorm_sharp`).
`lower_bounds` gives both rungs from one pass over the family: each form
is evaluated on T once and its comass seminorm, which both seminorms
share, is computed once.
"""

from __future__ import annotations

import mmap

import numpy as np

from .chains import Chain, Current, Leaf, evaluate, face_rows
from .complexes import SimplicialComplex, _lookup
from .exterior import binary_exponent
from .forms import (Box, _flat_given_comass, _sharp_given_comass,
                    seminorm_comass)

__all__ = [
    "lp_solve",
    "flat_norm_lp",
    "lower_bounds",
    "dual_flat_lower_bound",
    "sharp_lower_bound",
]

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 200_000  # dense simplex: a run past this is an error
_BLOCK_ELEMENTS = 1 << 16  # entries per band of a pivot's block update
_FLOW_TOL = 1e-12  # network simplex: zero residual, relative to capacity
_COST_TOL = 1e-12  # network simplex: zero reduced cost, relative to max|cost|
_MIN_BLOCK = 256   # network simplex: fewest arcs priced at once
_MAX_PIVOTS_PER_ARC = 100  # network simplex: a run past this is an error


def _zeros(shape):
    """Zero float array on an anonymous memory map of its own.  Freeing
    it returns its pages to the system at once, so the peak memory of a
    sequence of LPs is that of the largest one, not a matter of which
    freed heap blocks a later, larger tableau happens to fit into."""
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, max(8 * size, 1))
    return np.frombuffer(buf, dtype=np.float64, count=size).reshape(shape)


def _pivot(tableau, row, col):
    """Gauss-Jordan step on (row, col).  Only the rows with a nonzero in
    the pivot column and the columns with a nonzero in the pivot row
    change, so the update is a block of that size.  It is applied in
    bands of rows of at most `_BLOCK_ELEMENTS` entries, so its temporaries
    stay small however much the tableau has filled in."""
    prow = tableau[row]
    prow /= prow[col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(prow)
    pcols = prow[cols]
    step = max(1, _BLOCK_ELEMENTS // max(len(cols), 1))
    for start in range(0, len(rows), step):
        band = rows[start:start + step]
        tableau[np.ix_(band, cols)] -= np.outer(tableau[band, col], pcols)


def lp_solve(c, a, b, basis):
    """min c.x  s.t.  a x = b, x >= 0, by the primal simplex with Bland's
    anti-cycling rule from a feasible basis: `basis` names one column per
    row, those columns of `a` are the identity and b >= 0, so `a` and `b`
    are the starting tableau as they stand.  Returns (x, pivots).

    Only the nonzeros of the entering column enter the ratio test, so its
    cost follows the tableau's sparsity.  The LP must be bounded below: an
    entering column with no blocking row raises a RuntimeError, as does a
    run past `_MAX_PIVOTS` pivots.
    """
    m, n = a.shape
    tableau = _zeros((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    basis = list(basis)
    # objective row: the costs reduced against the basis rows, and the
    # negated objective value in the last column
    tableau[-1, :n] = c
    for i, j in enumerate(basis):
        tableau[-1] -= c[j] * tableau[i]
    rhs = tableau[:m, -1]
    for pivots in range(_MAX_PIVOTS):
        eligible = np.flatnonzero(tableau[-1, :-1] < -_PIVOT_TOL)
        if not len(eligible):
            x = np.zeros(n)
            x[basis] = rhs
            return x, pivots
        entering = int(eligible[0])  # Bland: smallest eligible index
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        best_ratio, leaving = np.inf, -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if (ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12
                        and (leaving < 0 or basis[i] < basis[leaving]))):
                best_ratio, leaving = ratio, i
        if leaving < 0:
            raise RuntimeError(
                f"simplex column {entering} of reduced cost "
                f"{tableau[-1, entering]:.3g} has no blocking row after "
                f"{pivots} pivots on a {m} x {n} tableau: the LP is "
                f"unbounded below")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise RuntimeError(f"simplex iteration limit reached: {_MAX_PIVOTS} "
                       f"pivots on a {m} x {n} tableau")


def _feasibility_tolerance(a, b, x) -> np.ndarray:
    """Per-row bound on |a x - b| for a vertex solved to round-off:
    _FEAS_TOL plus n eps (|a| |x| + |b|).  |a| |x| is summed over the
    nonzero columns of x one at a time, with no copy of a."""
    scale = np.abs(b)
    for j in np.flatnonzero(x).tolist():
        scale += np.abs(a[:, j]) * abs(x[j])
    return _FEAS_TOL + x.size * np.finfo(float).eps * scale


def _dual_graph(complex_: SimplicialComplex, r: int):
    """The dual graph of a codimension-1 flat-norm problem, or None.

    Its nodes are the top simplices and a ground node, number
    `n_simplices(dim)`.  Face f of degree r = dim - 1 joins the coface
    where its coherent sign, (-1)^i times `top_orientations`, is +1
    (`plus[f]`) to the one where it is -1 (`minus[f]`); a face with one
    coface joins it to ground.  None unless r = dim - 1, every face has
    one or two cofaces, and two cofaces carry opposite signs."""
    n = complex_.dim
    if r != n - 1:
        return None
    tops = complex_.ids[n]
    rows = _lookup(complex_.ids[r], face_rows(tops))
    owner = np.repeat(np.arange(len(tops)), n + 1)
    positive = (np.tile((-1) ** np.arange(n + 1), len(tops))
                * complex_.top_orientations[owner]) > 0
    n_faces = complex_.n_simplices(r)
    cofaces = np.bincount(rows, minlength=n_faces)
    pluses = np.bincount(rows[positive], minlength=n_faces)
    if np.any(cofaces > 2) or np.any((cofaces == 2) & (pluses != 1)):
        return None
    plus = np.full(n_faces, len(tops))
    minus = np.full(n_faces, len(tops))
    plus[rows[positive]] = owner[positive]
    minus[rows[~positive]] = owner[~positive]
    return plus, minus


class _Tree:
    """The spanning tree of a network simplex, rooted at node n - 1: each
    node's parent, the arc to it, its depth and the set of its children.
    It starts as the star of arcs v -> root, arc v for node v."""

    def __init__(self, n: int):
        root = n - 1
        self.parent = [root] * root + [-1]
        self.arc = list(range(root)) + [-1]
        self.depth = [1] * root + [0]
        self.children = [set() for _ in range(root)] + [set(range(root))]

    def rehang(self, stem: list, parent: int, arc: int) -> list:
        """Cut the subtree below stem[-1] and hang it by `arc` from
        `parent`, rooted at stem[0], where `stem` is the path from stem[0]
        up to stem[-1]: the stem's links reverse, and one walk down the
        moved subtree resets its depths.  Returns the subtree's nodes."""
        up, arcs, depth, children = (self.parent, self.arc, self.depth,
                                     self.children)
        v = stem[-1]
        children[up[v]].remove(v)
        for below in stem[-2::-1]:
            up[v], arcs[v] = below, arcs[below]
            children[v].remove(below)
            children[below].add(v)
            v = below
        up[v], arcs[v] = parent, arc
        children[parent].add(v)
        nodes = [v]
        for v in nodes:
            depth[v] = depth[up[v]] + 1
            nodes.extend(children[v])
        return nodes


def _network_simplex(tail, head, cost, cap, n_nodes):
    """Min-cost circulation: min cost.x over 0 <= x <= cap with flow
    conserved at every node, by the primal network simplex (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, ch. 11) from x = 0.

    The root is node n_nodes - 1, and arc v < n_nodes - 1 runs from node v
    to it at cost 0: those arcs are the first tree (`_Tree`), strongly
    feasible at x = 0.  Each pivot prices one block of arcs at a time in
    numpy and enters the block's most violating arc.  Its cycle runs up
    from both ends, by depth, to their join, and the ratio test is taken
    in the same climb; the leaving arc is the last blocking arc of the
    cycle from that apex (Cunningham, Math. Prog. 1976), which keeps the
    tree strongly feasible, so degenerate pivots cannot cycle.  The
    subtree cut off by the leaving arc hangs from the entering arc: the
    links of its stem reverse, and one walk over it resets its depths and
    collects the nodes whose potentials shift.  A
    residual within `_FLOW_TOL` of its arc's capacity is zero, and a
    reduced cost within `_COST_TOL` of the largest |cost|, so the path is
    the same at any capacity scale.
    Returns the potentials pi, with cost + pi[tail] - pi[head] = 0 on the
    tree arcs and 0 at the root, and the number of pivots.
    """
    n_arcs = len(tail)
    tree = _Tree(n_nodes)
    parent, arc, depth = tree.parent, tree.arc, tree.depth
    pi = np.zeros(n_nodes)
    take = pi.take
    # +1 at 0, -1 at cap, 0 in tree; float, so that pricing casts nothing
    state = np.ones(n_arcs)
    state[:n_nodes - 1] = 0.0
    flow = [0.0] * n_arcs
    capl, taill, headl = cap.tolist(), tail.tolist(), head.tolist()
    costl = cost.tolist()
    tol = [_FLOW_TOL * c for c in capl]
    cost_tol = _COST_TOL * float(np.max(np.abs(cost), initial=0.0))

    width = max(_MIN_BLOCK, int(np.sqrt(n_arcs)))
    # each block's tail and head nodes, so one take gathers both ends
    blocks = [(lo, np.concatenate([tail[lo:hi], head[lo:hi]]), cost[lo:hi],
               state[lo:hi], hi - lo)
              for lo in range(0, n_arcs, width)
              for hi in [min(lo + width, n_arcs)]]
    block = pivots = 0
    while True:
        for _ in blocks:
            lo, ends, bcost, bstate, w = blocks[block]
            at = take(ends)
            reduced = bcost + at[:w]
            reduced -= at[w:]
            reduced *= bstate
            j = int(reduced.argmin())
            if reduced[j] < -cost_tol:
                e = lo + j
                break
            block = (block + 1) % len(blocks)
        else:
            return pi, pivots
        if pivots == _MAX_PIVOTS_PER_ARC * n_arcs:
            raise RuntimeError(f"network simplex pivot limit reached: "
                               f"{pivots} pivots on {n_arcs} arcs")
        pivots += 1
        # the cycle: e, then up from `second` to the join, then down from
        # the join to `first`.  Both ends climb to the join, the deeper
        # first, with the ratio test on the way: the room of each arc in
        # the direction the cycle's flow runs.  Of equal blocking arcs the
        # last from the join leaves: the first of `down` (nearest
        # `first`), then e, then the last of `up`
        raising = state[e] > 0
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
            for a in along:
                x = flow[a] + delta
                flow[a] = (0.0 if x <= tol[a] else capl[a]
                           if capl[a] - x <= tol[a] else x)
            for a in against:
                x = flow[a] - delta
                flow[a] = (0.0 if x <= tol[a] else capl[a]
                           if capl[a] - x <= tol[a] else x)
        if stem is None:  # e goes from one bound to the other
            state[e] = -state[e]
            continue
        leave = arc[stem[out]]
        state[leave] = 1.0 if flow[leave] == 0.0 else -1.0
        state[e] = 0.0
        # the subtree below the leaving arc hangs from e, rooted at the
        # end of e inside it; its potentials shift to price e at zero
        gap = costl[e] + pi.item(taill[e]) - pi.item(headl[e])
        moved = tree.rehang(stem[:out + 1], hang, e)
        pi[np.array(moved)] += gap if stem[0] == headl[e] else -gap


def _flat_norm_flow(t, plus, minus, vol_r, vol_s):
    """The codimension-1 flat-norm LP as the dual of a min-cost
    circulation on the dual graph (`_dual_graph`): face f is an arc
    plus[f] -> minus[f] of cost -t_f and flow in [-vol_f, vol_f], top
    simplex s an arc to ground of cost 0 and flow in [-vol_s, vol_s];
    each arc is a pair of opposite arcs with flow in [0, vol].  The
    potentials are S in the coherent orientation, and R = t - bnd S.
    Returns (R, S, pivots)."""
    n_top = len(vol_s)
    tops, ground = np.arange(n_top), np.full(n_top, n_top)
    pi, pivots = _network_simplex(
        np.concatenate([tops, ground, plus, minus]),
        np.concatenate([ground, tops, minus, plus]),
        np.concatenate([np.zeros(2 * n_top), -t, t]),
        np.concatenate([vol_s, vol_s, vol_r, vol_r]), n_top + 1)
    return t - (pi[plus] - pi[minus]), pi[:n_top], pivots


def _flat_norm_dense(t, complex_, r, vol_r, vol_s):
    """The flat-norm LP over [R+, R-, S+, S-] on the dense boundary
    matrix, by `lp_solve` from the basis R = t, S = 0: each row is
    multiplied by the sign of its t_i, which makes b = |t| and the column
    of R+ (t_i >= 0) or R- (t_i < 0) a unit column.  The costs and t are
    scaled by powers of two to a largest entry in [1, 2), so that
    `lp_solve`'s absolute tolerances read the same at any scale; the
    scaling is exact and undone on the result.  A vertex that misses a
    row of the constraints by more than `_feasibility_tolerance`, which
    grows with the row's scale, raises a RuntimeError.  Returns (R, S,
    pivots)."""
    n_r, n_s = len(vol_r), len(vol_s)
    bmat = complex_.boundary_matrix(r + 1)
    c = np.concatenate([vol_r, vol_r, vol_s, vol_s])
    kc, kt = binary_exponent(c), binary_exponent(t)
    sign = np.where(t < 0, -1.0, 1.0)
    a = _zeros((n_r, 2 * n_r + 2 * n_s))
    diag = np.arange(n_r)
    a[diag, diag] = sign
    a[diag, n_r + diag] = -sign
    s_plus = a[:, 2 * n_r:2 * n_r + n_s]
    np.multiply(bmat, sign[:, None], out=s_plus)
    np.negative(s_plus, out=a[:, 2 * n_r + n_s:])
    b = np.ldexp(np.abs(t), -kt)
    x, pivots = lp_solve(np.ldexp(c, -kc), a, b,
                         np.where(t < 0, n_r + diag, diag))
    miss = np.abs(a @ x - b)
    if not np.all(miss <= _feasibility_tolerance(a, b, x)):
        raise RuntimeError(
            f"flat-norm LP ({n_r} x {len(c)}) lost feasibility: residual "
            f"max|A x - b| = {np.ldexp(miss.max(), kt):.3g} exceeds the "
            f"tolerance {np.ldexp(_FEAS_TOL, kt):g} after {pivots} "
            f"pivots (plus n eps times the row's |A||x| + |b|)")
    x = np.ldexp(x, kt)
    return (x[:n_r] - x[n_r:2 * n_r],
            x[2 * n_r:2 * n_r + n_s] - x[2 * n_r + n_s:], pivots)


def flat_norm_lp(T: Chain, complex_: SimplicialComplex):
    """Simplicial flat norm of T on the hosting complex.

    Returns (value, S, R, info): the optimal decomposition T = R + bnd(S)
    with value = M(R) + M(S), plus solver metadata; info["iterations"]
    counts the pivots of whichever solver ran.  With no (r+1)-simplex in
    the complex, R = T and S = 0 with no solver and 0 pivots.  A
    codimension-1 chain on a complex whose dual graph exists
    (`_dual_graph`) is solved as a network flow, any other by the dense
    `lp_solve`.
    """
    r = T.degree
    t = complex_.chain_vector(T)
    vol_r, vol_s = complex_.volumes(r), complex_.volumes(r + 1)
    graph = _dual_graph(complex_, r)
    if not len(vol_s):
        r_coeff, s_coeff, pivots = t, np.zeros(0), 0
    elif graph is None:
        r_coeff, s_coeff, pivots = _flat_norm_dense(
            t, complex_, r, vol_r, vol_s)
    else:
        r_coeff, s_coeff, pivots = _flat_norm_flow(t, *graph, vol_r, vol_s)
        s_coeff = s_coeff * complex_.top_orientations
    mass_r = float(vol_r @ np.abs(r_coeff))
    mass_s = float(vol_s @ np.abs(s_coeff))
    info = {"mass_R": mass_r, "mass_S": mass_s, "iterations": pivots}
    return (mass_r + mass_s, complex_.simplex_chain(r + 1, s_coeff),
            complex_.simplex_chain(r, r_coeff), info)


def _ladder(T: Current, family, box: Box, kinds) -> list:
    """For each seminorm s named in `kinds` ("flat", "sharp"), max(0, max
    over phi in the family of T(phi) / s(phi)), in one pass over the
    family: each form is evaluated on T once, all of them before any
    seminorm and on one Leaf, which builds a chain's geometry once; and
    each form's comass seminorm, which both seminorms take the max with,
    is computed once.  An empty family, and a form with a vanishing
    seminorm, raise a ValueError."""
    if not family:
        raise ValueError("empty test family")
    leaf = Leaf(T) if isinstance(T, Chain) else T
    values = [evaluate(leaf, phi) for phi in family]
    best = [0.0] * len(kinds)
    for phi, value in zip(family, values):
        sup = seminorm_comass(phi, box)
        denoms = []
        for kind in kinds:
            denom = (_flat_given_comass(phi, sup, box) if kind == "flat"
                     else _sharp_given_comass(phi, sup, box))
            if denom <= 0.0:
                raise ValueError(f"test form with vanishing {kind} seminorm")
            denoms.append(denom)
        best = [max(b, value / denom) for b, denom in zip(best, denoms)]
    return best


def lower_bounds(T: Current, family, box: Box) -> tuple:
    """(`dual_flat_lower_bound`, `sharp_lower_bound`) of T on the same
    family and grid, from one pass over the family."""
    flat, sharp = _ladder(T, family, box, ("flat", "sharp"))
    return flat, sharp


def dual_flat_lower_bound(T: Current, family, box: Box) -> float:
    """max(0, max over the test family of T(phi) / F_K(phi)), so a family
    whose T(phi) are all <= 0 gives 0: an estimate of a lower bound for
    the K-flat norm of T, not a certified one.  F_K is a sup sampled on
    the box grid, which can fall short of the true sup, so the ratio can
    exceed the bound it estimates."""
    flat, = _ladder(T, family, box, ("flat",))
    return flat


def sharp_lower_bound(T: Current, family, box: Box) -> float:
    """max(0, max over the test family of T(phi) / S_K(phi)): a sampled
    estimate of a lower bound for the sharp norm, like
    `dual_flat_lower_bound`.  S_K >= F_K holds for the true sups, not for
    the sampled ones, so it can exceed the flat estimate on the same
    family and grid: a 0-form's grid difference quotients can all fall
    below its largest gradient at a grid point."""
    sharp, = _ladder(T, family, box, ("sharp",))
    return sharp
