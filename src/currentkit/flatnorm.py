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
  under `top_orientations`.  A network simplex solves it, entering arcs
  from a candidate list of a numpy-priced block (`_CANDIDATES`; 1 is the
  plain block rule), with the tree (held by thread) as Python lists, and
  the potentials and the arc states each as one Python `array`, which
  numpy prices through a view of its buffer.  A pivot walks its cycle
  once for the ratio test, which keeps each side's blocking node and
  builds no list, and once more to move the flows if they move (a
  degenerate pivot moves none); so it costs its cycle's length plus the
  size of the subtree whose potentials it shifts.
  S is the tree's node potentials, so R = t - B S is exact for integral t.
- Everything else (degrees 0 <= r <= n - 2, a face with three or more
  cofaces, incoherent orientations): `lp_solve`, Bland's primal simplex
  on the dense LP with the L1 terms split into nonnegative pairs, started
  at the feasible basis R = t, S = 0.  The objective is bounded below by
  0, so the LP needs no phase 1 and cannot be unbounded.

Every case reports value = M(R) + M(S).

The norm ladder bounds the flat and sharp norms of any current from below
by max(0, max over a test family of T(phi) / s(phi)), with s the sampled
flat or sharp seminorm.  Each seminorm has one definition,
`forms.seminorm_flat` and `forms.seminorm_sharp`, and every rung reads
it.  `lower_bounds` gives both rungs with each form evaluated on T once.
"""

from __future__ import annotations

from array import array

import numpy as np

from .chains import Chain, Current, evaluate
from .complexes import SimplicialComplex
from .exterior import binary_exponent
from .forms import Box, seminorm_flat, seminorm_sharp

__all__ = [
    "flat_norm_lp",
    "lower_bounds",
    "dual_flat_lower_bound",
    "sharp_lower_bound",
]

_FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 200_000  # dense simplex: a run past this is an error
_FLOW_TOL = 1e-12  # network simplex: zero residual, relative to capacity
_COST_TOL = 1e-12  # network simplex: zero reduced cost, relative to max|cost|
_MIN_BLOCK = 256   # network simplex: fewest arcs priced at once
_CANDIDATES = 32   # network simplex: arcs kept from a priced block
_MAX_PIVOTS_PER_ARC = 100  # network simplex: a run past this is an error


def _pivot(tableau, row, col):
    """Gauss-Jordan step on (row, col).  Only the rows with a nonzero in
    the pivot column and the columns with a nonzero in the pivot row
    change, so the update is one subtraction of an outer product on that
    block."""
    prow = tableau[row]
    prow /= prow[col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(prow)
    tableau[np.ix_(rows, cols)] -= np.outer(tableau[rows, col], prow[cols])


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
    tableau = np.zeros((m + 1, n + 1))
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
    tops, rows = complex_.ids[n], complex_.top_faces
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


def _network_simplex(tail, head, cost, cap, n_nodes):
    """Min-cost circulation: min cost.x over 0 <= x <= cap with flow
    conserved at every node, by the primal network simplex (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, ch. 11) from x = 0.

    Arc v < n_nodes - 1 runs from node v to the root n_nodes - 1 at cost
    0: those arcs are the first tree, strongly feasible at x = 0.  A major
    iteration prices numpy blocks from the current one on; the first
    eligible block's `_CANDIDATES` most violating arcs, sorted stably,
    are the candidate list (Mulvey, J. ACM 1978), and the first enters.
    Minor iterations re-price the rest in Python and enter the most
    violating; once a list that gave a minor pivot runs dry, the block
    moves on.  So `_CANDIDATES` = 1 is the plain block rule.  The last
    blocking arc of the cycle from its apex leaves (Cunningham, Math.
    Prog. 1976): the tree stays strongly feasible, so no entering rule
    cycles.  The ratio test climbs the cycle from both ends to the apex
    and keeps only each side's blocking node and room; a second climb
    moves the flows, only when they move by more than 0, and builds no
    list either.  The tree is Python lists, held by thread, subtree size
    and last successor as in LEMON (Kovacs, Optim. Methods Softw. 2015):
    a pivot re-roots the moved subtree in the time of its cycle and stem,
    and shifts its potentials along the thread.  The potentials and the
    arc states are one table each, an `array` whose buffer numpy prices
    through a view, so a block prices every shift and state change made
    before it and nothing is copied.
    A residual within `_FLOW_TOL` of its arc's capacity is zero, and a
    reduced cost within `_COST_TOL` of the largest |cost|, so the path is
    the same at any capacity scale.  Returns the potentials pi, with
    cost + pi[tail] - pi[head] = 0 on the tree arcs and 0 at the root,
    and the number of pivots.
    """
    n_arcs, root = len(tail), n_nodes - 1
    # the tree: each node's parent and the arc to it, the preorder thread
    # (circular, from the root) and its reverse, and each node's subtree
    # size and last node on the thread
    parent, arc = [root] * root + [-1], list(range(root)) + [-1]
    thread = list(range(1, n_nodes)) + [0]
    rev_thread = [root] + list(range(root))
    succ_num = [1] * root + [n_nodes]
    last_succ = list(range(root)) + [root - 1]
    # pivots shift `pil`; pricing reads its buffer through `pi`
    pil = array("d", [0.0]) * n_nodes
    pi = np.frombuffer(pil)
    # each arc's state, +1 at 0, -1 at cap, 0 in tree; float, so that
    # pricing casts nothing.  Pivots write `rate`; pricing reads its buffer
    # through `state`
    rate = array("d", [0.0] * root + [1.0] * (n_arcs - root))
    state = np.frombuffer(rate)
    flow = [0.0] * n_arcs
    capl, taill, headl = cap.tolist(), tail.tolist(), head.tolist()
    costl = cost.tolist()
    tol = [_FLOW_TOL * c for c in capl]
    # a reduced cost below `floor` is negative
    floor = -_COST_TOL * float(np.max(np.abs(cost), initial=0.0))

    width = max(_MIN_BLOCK, int(np.sqrt(n_arcs)))
    # each block's tail and head nodes, so one take gathers both ends
    blocks = [(lo, np.concatenate([tail[lo:hi], head[lo:hi]]), cost[lo:hi],
               state[lo:hi], hi - lo)
              for lo in range(0, n_arcs, width)
              for hi in [min(lo + width, n_arcs)]]
    block = pivots = 0
    candidates, minor = [], False
    while True:
        # minor iteration: the most violating candidate, priced as in numpy
        e, best, rest = -1, floor, []
        for a in candidates:
            reduced = (costl[a] + pil[taill[a]] - pil[headl[a]]) * rate[a]
            if reduced < floor:
                rest.append(a)
                if reduced < best:
                    e, best = a, reduced
        if e >= 0:
            rest.remove(e)
            candidates, minor = rest, True
        else:
            block, minor = (block + minor) % len(blocks), False
            for _ in blocks:
                lo, ends, bcost, bstate, w = blocks[block]
                at = pi.take(ends)
                reduced = bcost + at[:w]
                reduced -= at[w:]
                reduced *= bstate
                j = int(reduced.argmin())
                if reduced[j] < floor:
                    top = np.flatnonzero(reduced < floor)
                    top = top[reduced[top].argsort(kind="stable")]
                    e, *candidates = (top[:_CANDIDATES] + lo).tolist()
                    break
                block = (block + 1) % len(blocks)
            else:
                return pi, pivots
        if pivots == _MAX_PIVOTS_PER_ARC * n_arcs:
            raise RuntimeError(f"network simplex pivot limit reached: "
                               f"{pivots} pivots on {n_arcs} arcs")
        pivots += 1
        # the cycle e, up from `second`, down to `first`: the end with the
        # smaller subtree climbs until both meet at the join, with the
        # ratio test on the way, which keeps each side's blocking node and
        # room.  Of equal blocking arcs the last from the join leaves: the
        # one nearest `first` on the way down (strict <), then e, then the
        # one nearest the join on the way up (<=)
        raising = rate[e] > 0
        first, second = ((taill[e], headl[e]) if raising
                         else (headl[e], taill[e]))
        down_room = up_room = float("inf")
        u, v = first, second
        while u != v:
            if succ_num[u] < succ_num[v]:
                a = arc[u]
                room = flow[a] if taill[a] == u else capl[a] - flow[a]
                if room < down_room:
                    down_room, down_out = room, u
                u = parent[u]
            else:
                a = arc[v]
                room = capl[a] - flow[a] if taill[a] == v else flow[a]
                if room <= up_room:
                    up_room, up_out = room, v
                v = parent[v]
        join = u
        delta, u_in = capl[e], -1
        if down_room < delta:
            delta, u_in, u_out, v_in = down_room, first, down_out, second
        if up_room <= delta:
            delta, u_in, u_out, v_in = up_room, second, up_out, first
        if delta > 0.0:
            # a second walk moves the flows: +delta along the cycle, and
            # x - delta is x + (-delta), bit for bit.  An arc up from
            # `second` by its tail runs along it, one up from `first`
            # against it
            x = flow[e] + (delta if raising else -delta)
            flow[e] = (0.0 if x <= tol[e] else capl[e]
                       if capl[e] - x <= tol[e] else x)
            for v, step in ((first, -delta), (second, delta)):
                while v != join:
                    a = arc[v]
                    x = flow[a] + (step if taill[a] == v else -step)
                    flow[a] = (0.0 if x <= tol[a] else capl[a]
                               if capl[a] - x <= tol[a] else x)
                    v = parent[v]
        if u_in < 0:  # e goes from one bound to the other
            rate[e] = -rate[e]
            continue
        leave = arc[u_out]
        rate[leave] = 1.0 if flow[leave] == 0.0 else -1.0
        rate[e] = 0.0
        # the subtree of u_out hangs from v_in by e, re-rooted at u_in
        # (LEMON's updateTreeStructure): after v_in the thread runs through
        # u_in's subtree, then each next stem node's subtree without the
        # part below it; `above` is stem node s's new parent and `last`
        # the last node of its part
        v_out = parent[u_out]
        old_rev, old_last = rev_thread[u_out], last_succ[u_out]
        size = succ_num[u_out]
        resume = thread[old_last] if old_rev == v_in else thread[v_in]
        s, above, last = u_in, v_in, last_succ[u_in]
        after = thread[last]
        thread[v_in] = u_in
        dirty = [v_in]
        while s != u_out:
            next_s = parent[s]
            thread[last] = next_s
            dirty.append(last)
            before = rev_thread[s]
            thread[before], rev_thread[after] = after, before
            parent[s], above, s = above, s, next_s
            last = (rev_thread[above] if last_succ[s] == last_succ[above]
                    else last_succ[s])
            after = thread[last]
        parent[u_out] = above
        thread[last], rev_thread[resume] = resume, last
        last_succ[u_out] = last
        if old_rev != v_in:
            thread[old_rev], rev_thread[after] = after, old_rev
        for w in dirty:
            rev_thread[thread[w]] = w
        count, v = 0, u_out
        while v != u_in:
            p = parent[v]
            arc[v] = arc[p]
            count += succ_num[v] - succ_num[p]
            succ_num[v], last_succ[p] = count, last
            v = p
        arc[u_in], succ_num[u_in] = e, size
        # subtrees that ended at v_in now end with the moved one, and
        # those up from v_out that ended with it end where it was cut out
        limit = join if last_succ[join] == v_in else -1
        new_last = last_succ[u_out]
        v = v_in
        while v != -1 and last_succ[v] == v_in:
            last_succ[v], v = new_last, parent[v]
        if join != old_rev and v_in != old_rev:
            new_last = old_rev
        if new_last != old_last:
            v = v_out
            while v != limit and last_succ[v] == old_last:
                last_succ[v], v = new_last, parent[v]
        v = v_in
        while v != join:
            succ_num[v] += size
            v = parent[v]
        v = v_out
        while v != join:
            succ_num[v] -= size
            v = parent[v]
        # the moved subtree's potentials shift to price e at zero
        gap = costl[e] + pil[taill[e]] - pil[headl[e]]
        shift = gap if u_in == headl[e] else -gap
        v = u_in
        for _ in range(size):
            pil[v] += shift
            v = thread[v]


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
    a = np.zeros((n_r, 2 * n_r + 2 * n_s))
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


def _rungs(T: Current, family, box: Box, rungs) -> list:
    """max(0, max over the family of T(phi) / s(phi)) for each seminorm s
    named in `rungs`, "flat" or "sharp".  Every form is evaluated on T
    first, once (a chain builds its geometry once, in its side table);
    then the seminorms are read form by form, and within a form rung by
    rung.  An empty family, and a vanishing seminorm, raise a
    ValueError."""
    if not family:
        raise ValueError("empty test family")
    values = [evaluate(T, phi) for phi in family]
    best = [0.0] * len(rungs)
    for phi, value in zip(family, values):
        for k, name in enumerate(rungs):
            seminorm = seminorm_flat if name == "flat" else seminorm_sharp
            denom = seminorm(phi, box)
            if denom <= 0.0:
                raise ValueError(f"test form with vanishing {name} seminorm")
            best[k] = max(best[k], value / denom)
    return best


def lower_bounds(T: Current, family, box: Box) -> tuple:
    """(`dual_flat_lower_bound`, `sharp_lower_bound`) of T on the same
    family and grid, with each form evaluated on T once."""
    return tuple(_rungs(T, family, box, ("flat", "sharp")))


def dual_flat_lower_bound(T: Current, family, box: Box) -> float:
    """max(0, max over the test family of T(phi) / F_K(phi)), so a family
    whose T(phi) are all <= 0 gives 0: an estimate of a lower bound for
    the K-flat norm of T, not a certified one.  F_K is a sup sampled on
    the box grid, which can fall short of the true sup, so the ratio can
    exceed the bound it estimates.  An empty family, and a form with
    F_K(phi) = 0, raise a ValueError."""
    return _rungs(T, family, box, ("flat",))[0]


def sharp_lower_bound(T: Current, family, box: Box) -> float:
    """max(0, max over the test family of T(phi) / S_K(phi)): a sampled
    estimate of a lower bound for the sharp norm, like
    `dual_flat_lower_bound`.  S_K >= F_K holds for the true sups, not for
    the sampled ones, so it can exceed the flat estimate on the same
    family and grid: a 0-form's grid difference quotients can all fall
    below its largest gradient at a grid point."""
    return _rungs(T, family, box, ("sharp",))[0]
