"""Motions evaluated at all time nodes as one stack: the images of a
motion family's maps at many times in one call, the homotopy residual,
the continuity modulus and the finite-difference transport derivative
equal, bit for bit, their one-node-at-a-time oracles, and raise the
same errors; so do the ladders of homotopy residuals and finite
differences, rung by rung.  The stacked pushes and chain evaluations
build each simplex stack's geometry once."""

import numpy as np
import pytest

from currentkit import chains, cli, motion
from currentkit.chains import (Chain, Leaf, boundary, evaluate,
                               evaluate_copies, simplex_geometry,
                               unit_square_chain)
from currentkit.exterior import multi_indices
from currentkit.flatnorm import lower_bounds
from currentkit.forms import Box, Cochain, FormField, VectorField
from currentkit.lipschitz import LipMap, pushforward_chain
from currentkit.motion import (Motion, continuity_modulus, homotopy_residual,
                               homotopy_residuals, make_motion,
                               transport_derivative, transport_derivative_fd,
                               transport_derivative_fd_ladder)
from currentkit.polynomial import Polynomial
from currentkit.quadrature import integrate_interval
from currentkit.scenarios import builtin_scenarios
from oracles import (continuity_modulus_by_node, gauss_by_panel,
                     homotopy_residual_by_node, motion_map_by_formula,
                     transport_derivative_by_push,
                     transport_derivative_fd_by_node)

FAMILIES = ["identity", "translation", "rotation", "expansion", "shear",
            "tent"]
# every chain degree r = 0..n-1 in n = 1, 2, 3
DEGREES = [(n, r) for n in (1, 2, 3) for r in range(n)]
INTERVAL = (0.0, 0.5)


def _motion(name: str, n: int) -> Motion:
    params = {"axis": 0} if name == "tent" and n == 1 else {}
    return make_motion(name, ambient=n, **params)


def _chain(n: int, r: int, seed: int, count: int = 3) -> Chain:
    """`count` random r-simplices in [0.1, 0.9]^n with random
    multiplicities."""
    rng = np.random.default_rng(seed)
    return Chain(rng.uniform(0.1, 0.9, size=(count, r + 1, n)),
                 rng.uniform(-2.0, 2.0, size=count))


def _cases():
    # rotation is planar, and shear moves x along y
    for name in FAMILIES:
        for n, r in DEGREES:
            if not (name == "rotation" and n != 2
                    or name == "shear" and n == 1):
                yield name, n, r


def _form(n: int, degree: int, seed: int) -> FormField:
    return FormField.random_polynomial(n, degree, np.random.default_rng(seed),
                                       max_degree=2)


def _cochain(n: int, r: int) -> Cochain:
    rng = np.random.default_rng(n + r)
    return Cochain(n, r, {
        idx: Polynomial.random(n + 1, 2, rng)
        for idx in multi_indices(r, n)})


class TestBitIdentity:
    @pytest.mark.parametrize("name, n, r", list(_cases()))
    def test_families_and_degrees(self, name, n, r):
        m = _motion(name, n)
        T = _chain(n, r, 10 * n + r)
        psi = _form(n, r, 7 * n + r)
        assert homotopy_residual(m, INTERVAL, T, psi, levels=1, panels=2) \
            == homotopy_residual_by_node(m, INTERVAL, T, psi, levels=1,
                                         panels=2)
        box = Box.unit(n, resolution=3)
        family = [_form(n, r, s) for s in range(3)]
        eps = [0.1, 0.01, 0.001]
        assert continuity_modulus(m, T, 0.2, eps, family, box, levels=1) \
            == continuity_modulus_by_node(m, T, 0.2, eps, family, box,
                                          levels=1)

    @pytest.mark.parametrize("one_sided", [True, False],
                             ids=["one-sided", "central"])
    @pytest.mark.parametrize("name, n, r", list(_cases()))
    def test_transport_derivative_fd(self, name, n, r, one_sided):
        # both times in one stack: the same difference quotient, bit for
        # bit, as one push and one evaluation per time
        m = _motion(name, n)
        T = _chain(n, r, 10 * n + r)
        psi = _cochain(n, r)
        for eps in (1e-2, 1e-5):
            assert transport_derivative_fd(m, T, psi, 0.2, eps, levels=1,
                                           one_sided=one_sided) \
                == transport_derivative_fd_by_node(m, T, psi, 0.2, eps,
                                                   levels=1,
                                                   one_sided=one_sided)

    @pytest.mark.parametrize("name, n, r", list(_cases()))
    def test_transport_derivative(self, name, n, r):
        # psi_dot and d(phi) -| v on one push of T: the same sum, bit for
        # bit, as evaluations of `Motion.push`'s chain
        m = _motion(name, n)
        T = _chain(n, r, 10 * n + r)
        psi = _cochain(n, r)
        for levels in (0, 1):
            assert transport_derivative(m, T, psi, 0.2, levels) \
                == transport_derivative_by_push(m, T, psi, 0.2, levels)

    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    @pytest.mark.parametrize("panels", [1, 2, 8])
    @pytest.mark.parametrize("order", [1, 5])
    @pytest.mark.parametrize("name, n", [("rotation", 2), ("expansion", 3),
                                         ("tent", 2)])
    def test_levels_panels_and_orders(self, name, n, levels, panels, order):
        m = _motion(name, n)
        T = _chain(n, 1, levels, count=2)
        psi = _form(n, 1, levels)
        assert homotopy_residual(m, INTERVAL, T, psi, levels, panels, order) \
            == homotopy_residual_by_node(m, INTERVAL, T, psi, levels,
                                         panels, order)

    @pytest.mark.parametrize("budget", [None, 1, 10 ** 9])
    def test_chunks_do_not_change_bits(self, monkeypatch, budget):
        m = make_motion("rotation", rate=0.7)
        T = boundary(unit_square_chain())
        # 256 edges at both ends and 40 nodes: several chunks at the
        # default budget
        assert 256 * 40 > 2 * motion._STACK_SIMPLICES
        psi = _form(2, 1, 1)
        expected = homotopy_residual_by_node(m, INTERVAL, T, psi, levels=6)
        if budget is not None:
            monkeypatch.setattr(motion, "_STACK_SIMPLICES", budget)
        assert homotopy_residual(m, INTERVAL, T, psi, levels=6) == expected
        family = [_form(2, 1, s) for s in range(2)]
        box = Box.unit(2, resolution=3)
        eps = [0.1, 0.01]
        assert continuity_modulus(m, T, 0.0, eps, family, box, levels=6) \
            == continuity_modulus_by_node(m, T, 0.0, eps, family, box,
                                          levels=6)

    def test_interval_rule_matches_the_node_loop(self):
        f = np.cos
        for panels in (1, 2, 8):
            for order in (1, 5):
                assert integrate_interval(f, -0.3, 1.1, panels, order) == \
                    gauss_by_panel(f, -0.3, 1.1, panels, order)


# the middle node of one 5-point Gauss panel on [0, 1]
MIDDLE = 0.5 + 0.5 * np.polynomial.legendre.leggauss(5)[0][2]


def _faulty_motion(fault: str) -> Motion:
    """A translation whose map at MIDDLE is `fault`: a collapse of the y
    axis, or NaN."""

    def maps(times, points):
        out = np.repeat(points[None], len(times), axis=0)
        out[..., 0] += times[:, None]
        if fault == "degenerate":
            out[times == MIDDLE, :, 1] = 0.0
        else:
            out[times == MIDDLE] = np.nan
        return out

    field = VectorField.constant([1.0, 0.0])
    return Motion((0.0, 1.0), 2, maps, lambda t: field)


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestErrorParity:
    @pytest.mark.parametrize("fault", ["degenerate", "nan"])
    def test_faulty_map_at_one_node(self, fault):
        # the ends are sound; the deformation meets the fault at MIDDLE
        m = _faulty_motion(fault)
        T, phi = boundary(unit_square_chain()), _form(2, 1, 0)
        expected = _message(lambda: homotopy_residual_by_node(
            m, (0.0, 1.0), T, phi, panels=1))
        assert _message(lambda: homotopy_residual(
            m, (0.0, 1.0), T, phi, panels=1)) == expected
        assert expected in ("degenerate image simplex in pushforward",
                            "non-finite map images")

    @pytest.mark.parametrize("degree", [0, 1])
    def test_form_degree_mismatch(self, degree):
        m = make_motion("rotation")
        T, phi = unit_square_chain(), _form(2, degree, 0)
        expected = _message(lambda: homotopy_residual_by_node(
            m, INTERVAL, T, phi))
        assert _message(lambda: homotopy_residual(m, INTERVAL, T,
                                                  phi)) == expected

    def test_faulty_map_at_an_end(self):
        m = _faulty_motion("nan")
        T, phi = unit_square_chain(), _form(2, 2, 3)
        expected = _message(lambda: homotopy_residual_by_node(
            m, (0.0, MIDDLE), T, phi))
        assert _message(lambda: homotopy_residual(m, (0.0, MIDDLE), T,
                                                  phi)) == expected
        box, family = Box.unit(2, resolution=3), [phi]
        expected = _message(lambda: continuity_modulus_by_node(
            m, T, MIDDLE, [0.1], family, box))
        assert _message(lambda: continuity_modulus(m, T, MIDDLE, [0.1],
                                                   family, box)) == expected


class TestCounts:
    @pytest.mark.parametrize("panels, order, name", [
        (0, 5, "panels"), (-1, 5, "panels"), (2.5, 5, "panels"),
        (True, 5, "panels"), (4, 0, "order"), (4, 1.0, "order")])
    def test_interval_counts_are_whole_numbers(self, panels, order, name):
        for a, b in ((0.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match=f"^{name} must be a whole"):
                integrate_interval(np.sin, a, b, panels, order)

    def test_zero_panels_is_an_error_not_a_residual(self):
        m = make_motion("rotation", rate=0.7)
        T = boundary(unit_square_chain())
        phi = _form(2, 1, 0)
        assert homotopy_residual(m, (0.0, 0.4), T, phi, panels=8) < 1e-12
        with pytest.raises(ValueError, match="panels"):
            homotopy_residual(m, (0.0, 0.4), T, phi, panels=0)
        with pytest.raises(ValueError, match="^order must be a whole"):
            homotopy_residual(m, (0.0, 0.4), T, phi, gauss_order=0)


class TestStackedKernels:
    def test_copies_equal_one_evaluation_each(self):
        T = _chain(3, 2, 5, count=6)
        maps = [LipMap.affine(np.eye(3) * s, [s, 0.0, -s])
                for s in (0.5, 1.0, 2.0, 3.0)]
        copies = np.stack([pushforward_chain(f, T).stacked()[0]
                           for f in maps])
        calls = []

        def counted(x):
            calls.append(len(x))
            return np.stack([x[:, 0] * x[:, 1], x[:, 2], x[:, 0]], axis=1)

        sampled = FormField.from_callable(3, 2, counted)
        forms = [_form(3, 2, 1), sampled, sampled, _form(3, 2, 1)]
        values = evaluate_copies(simplex_geometry(copies.reshape(-1, 3, 3)),
                                 T.mults, forms)
        expected = [evaluate(Chain(c, T.mults), phi)
                    for c, phi in zip(copies, forms)]
        assert values == expected
        # the two copies that share the sampled form: one call for both,
        # then one per copy in `expected`
        assert len(calls) == 3 and calls[0] == 2 * calls[1]


def _rule_calls(monkeypatch) -> list:
    """The vertex stacks of every `quadrature.simplex_rule` call that
    evaluation makes from now on."""
    seen = []
    rule = chains.simplex_rule

    def counted(vertices, s=2):
        seen.append(np.array(vertices))
        return rule(vertices, s)

    monkeypatch.setattr(chains, "simplex_rule", counted)
    return seen


# images of the vertices x = 0..5 of `_TWO_TRIANGLES` at two times.  At 0
# vertex 2 of one triangle and vertex 3 of the other go to one point, as
# 0.0 and -0.0; at 1 vertices 1 and 4 go to one point and vertex 0 has the
# coordinate -0.0
_IMAGES = {0.0: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                          [-0.0, 1.0], [1.0, 1.0], [0.0, 2.0]]),
           1.0: np.array([[-0.0, 0.5], [2.0, 0.0], [0.5, 1.0],
                          [3.0, 1.0], [2.0, 0.0], [2.5, -1.0]])}
_TWO_TRIANGLES = Chain([[[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]],
                        [[3.0, 0.0], [4.0, 1.0], [5.0, 0.0]]], [1.0, -2.0])


def _lookup_motion() -> Motion:
    """A motion whose map at t sends vertex x = k to _IMAGES[t][k]."""
    def maps(times, points):
        return np.stack([_IMAGES[t][np.rint(points[:, 0]).astype(int)]
                         for t in times])

    return Motion((0.0, 1.0), 2, maps, lambda t: None)


class TestTableFreePushes:
    """`motion._pushed_values` gathers each push's simplices from its
    images without a vertex table, and builds one geometry per chunk."""

    @pytest.mark.parametrize("levels", [0, 1])
    @pytest.mark.parametrize("name, n, r", list(_cases()))
    def test_equal_to_evaluations_of_pushes(self, name, n, r, levels):
        m = _motion(name, n)
        work = _chain(n, r, 10 * n + r).subdivided(levels)
        times = [0.0, 0.1, 0.35]
        rows = [[_form(n, r, 3 * k + j) for j in range(len(times))]
                for k in range(3)]
        assert motion._pushed_values(m, work, times, rows) == [
            [evaluate(m.push(work, t), phi) for t, phi in zip(times, row)]
            for row in rows]

    def test_signed_zeros_and_shared_points(self):
        # the pushes stay apart: each time merges other vertices in
        # `Motion.push`, and the gathered coordinates give the same values
        m, times = _lookup_motion(), [0.0, 1.0]
        assert [len(m.push(_TWO_TRIANGLES, t).table) for t in times] == [5, 5]
        rows = [[_form(2, 2, k), _form(2, 2, k + 1)] for k in range(3)]
        rows.append([FormField.from_callable(
            2, 2, lambda x: np.stack([np.sign(x[:, 0]) + x[:, 1]], axis=1))]
            * 2)
        assert motion._pushed_values(m, _TWO_TRIANGLES, times, rows) == [
            [evaluate(m.push(_TWO_TRIANGLES, t), phi)
             for t, phi in zip(times, row)] for row in rows]

    def test_degenerate_image_before_the_form_check(self):
        m = _faulty_motion("degenerate")
        wrong = [[_form(2, 1, 0)]]  # a 1-form for a 2-chain
        with pytest.raises(ValueError, match="^degenerate image simplex in "
                                             "pushforward$"):
            motion._pushed_values(m, unit_square_chain(), [MIDDLE], wrong)
        with pytest.raises(ValueError, match="^form degree/ambient"):
            motion._pushed_values(m, unit_square_chain(), [0.0], wrong)

    def test_one_geometry_per_chunk(self, monkeypatch):
        seen = _rule_calls(monkeypatch)
        m = make_motion("rotation", rate=0.7)
        work = unit_square_chain().subdivided(2)
        times = [0.0, 0.1, 0.2]
        rows = [[_form(2, 2, 3 * k + j) for j in range(3)] for k in range(4)]
        expected = motion._pushed_values(m, work, times, rows)
        assert len(seen) == 1 and len(seen[0]) == 3 * len(work)
        monkeypatch.setattr(motion, "_STACK_SIMPLICES", len(work))
        assert motion._pushed_values(m, work, times, rows) == expected
        assert len(seen) == 1 + len(times)


class TestLeafGeometry:
    """A chain keeps its geometry per `s_order` in its side table, and a
    Leaf reads its chain's."""

    def test_one_leaf_equals_fresh_evaluations(self):
        # each value equals that of a chain object on the same arrays,
        # which builds its geometry afresh
        T = _chain(3, 2, 4, count=5)
        leaf = Leaf(T)
        forms = [_form(3, 2, s) for s in range(3)]
        order = np.random.default_rng(0).permutation(12)
        for k in order:
            phi, s_order = forms[k % 3], (0, 2)[k // 6]
            got = evaluate(leaf, phi, s_order)
            fresh = Chain._of(T.table, T.ids, T.mults)
            assert got.hex() == evaluate(fresh, phi, s_order).hex()
        assert sorted(chains._DERIVED[T]) == [("geometry", 0),
                                              ("geometry", 2)]

    def test_rebinding_the_chain_starts_afresh(self):
        T, other = _chain(2, 1, 1), _chain(2, 1, 2)
        phi = _form(2, 1, 0)
        leaf = Leaf(T)
        assert evaluate(leaf, phi) == evaluate(T, phi)
        leaf.chain = other
        assert evaluate(leaf, phi).hex() == evaluate(other, phi).hex()
        assert evaluate(leaf, phi) != evaluate(T, phi)
        # the degree and ambient dimension are the chain's, too
        leaf.chain = _chain(3, 2, 3)
        assert (leaf.degree, leaf.ambient) == (2, 3)

    def test_empty_chain_builds_no_geometry(self, monkeypatch):
        seen = _rule_calls(monkeypatch)
        empty = boundary(boundary(unit_square_chain()))
        assert evaluate(empty, _form(2, 0, 0)) == 0.0 and not seen
        with pytest.raises(ValueError, match="^form degree/ambient"):
            evaluate(empty, _form(2, 1, 0))

    def test_verify_builds_the_chain_geometry_once(self, monkeypatch):
        # adjointness and Reynolds duality evaluate the square 11 times;
        # the chain checks run no homotopy check, which would push T
        cfg = next(c for c in builtin_scenarios() if c.name == "tent_square")
        verts = cfg.build_chain().stacked()[0]
        seen = _rule_calls(monkeypatch)
        checks = cli._chain_checks(cfg.build_chain(), cfg.ambient,
                                   np.random.default_rng(cfg.seed))
        assert all(abs(value - oracle) <= tol
                   for _, value, oracle, tol, _ in checks)
        assert sum(v.shape == verts.shape and np.array_equal(v, verts)
                   for v in seen) == 1

    def test_ladder_builds_the_chain_geometry_once(self, monkeypatch):
        # the geometry is counted from a fresh chain object, whose side
        # table holds none yet
        T = unit_square_chain().subdivided(1)
        family = [_form(2, 2, s) for s in range(4)]
        box = Box.unit(2, resolution=3)
        expected = lower_bounds(T, family, box)
        seen = _rule_calls(monkeypatch)
        fresh = Chain._of(T.table, T.ids, T.mults)
        assert lower_bounds(fresh, family, box) == expected
        assert len(seen) == 1


def _ladder_cases():
    # every chain degree r = 0..n in n = 1, 2, 3: the top degree has no
    # swept term and the others a swept and a boundary term
    for name in FAMILIES:
        for n in (1, 2, 3):
            for r in range(n + 1):
                if not (name == "rotation" and n != 2
                        or name == "shear" and n == 1):
                    yield name, n, r


def _counting(m: Motion):
    """A hand-built motion on `m`'s maps, and the list of the times of
    each of its `maps` calls."""
    calls = []

    def maps(times, points):
        calls.append(list(times))
        return m.maps(times, points)

    return Motion(m.interval, m.ambient, maps, m.velocity_factory,
                  m.name), calls


def _stack_calls(monkeypatch) -> list:
    """The times of every `motion._pushed_values` call from now on."""
    seen = []
    pushed = motion._pushed_values

    def counted(m, work, times, rows):
        seen.append(list(times))
        return pushed(m, work, times, rows)

    monkeypatch.setattr(motion, "_pushed_values", counted)
    return seen


class TestLadders:
    """`homotopy_residuals` and `transport_derivative_fd_ladder` equal, rung
    by rung and bit for bit, per-rung paths one time node at a time
    through `Motion.push` and `evaluate`."""

    @pytest.mark.parametrize("order", [1, 5])
    @pytest.mark.parametrize("name, n, r", list(_ladder_cases()))
    def test_homotopy_rungs(self, name, n, r, order):
        m = _motion(name, n)
        T = _chain(n, r, 10 * n + r)
        phi = _form(n, r, 7 * n + r)
        counts = [1, 2, 4, 8]
        assert homotopy_residuals(m, INTERVAL, T, phi, counts, levels=1,
                                  gauss_order=order) == [
            homotopy_residual_by_node(m, INTERVAL, T, phi, 1, p, order)
            for p in counts]

    @pytest.mark.parametrize("one_sided", [True, False],
                             ids=["one-sided", "central"])
    @pytest.mark.parametrize("name, n, r", list(_ladder_cases()))
    def test_fd_rungs(self, name, n, r, one_sided):
        # a repeated step and a step whose tau - eps is another's tau + eps
        m = _motion(name, n)
        T = _chain(n, r, 10 * n + r)
        psi = _cochain(n, r)
        ladder = [1e-2, 1e-3, 1e-4, 1e-3, 0.05]
        assert transport_derivative_fd_ladder(
            m, T, psi, 0.2, ladder, levels=1, one_sided=one_sided) == [
            transport_derivative_fd_by_node(m, T, psi, 0.2, eps, levels=1,
                                            one_sided=one_sided)
            for eps in ladder]

    @pytest.mark.parametrize("levels", [0, 2, 3])
    @pytest.mark.parametrize("name, n, r", [("tent", 2, 2), ("tent", 2, 1),
                                            ("expansion", 3, 1),
                                            ("rotation", 2, 0)])
    def test_levels(self, name, n, r, levels):
        m = _motion(name, n)
        T = _chain(n, r, levels, count=2)
        phi = _form(n, r, levels)
        assert homotopy_residuals(m, INTERVAL, T, phi, [2, 1], levels) == [
            homotopy_residual_by_node(m, INTERVAL, T, phi, levels, p)
            for p in (2, 1)]
        psi = _cochain(n, r)
        ladder = [1e-2, 1e-3]
        for one_sided in (True, False):
            assert transport_derivative_fd_ladder(
                m, T, psi, 0.2, ladder, levels, one_sided) == [
                transport_derivative_fd_by_node(m, T, psi, 0.2, eps, levels,
                                                one_sided)
                for eps in ladder]

    @pytest.mark.parametrize("budget", [None, 1, 10 ** 9])
    def test_chunks_do_not_change_bits(self, monkeypatch, budget):
        m = make_motion("rotation", rate=0.7)
        T = boundary(unit_square_chain())
        phi = _form(2, 1, 1)
        counts, levels = [1, 2, 8], 6
        # 256 edges at both ends and 55 nodes: several chunks at the
        # default budget
        assert 256 * 57 > 2 * motion._STACK_SIMPLICES
        expected = [homotopy_residual_by_node(m, INTERVAL, T, phi, levels,
                                              p) for p in counts]
        psi, ladder = _cochain(2, 1), [0.1, 0.01, 0.001, 1e-4, 1e-5]
        expected_fd = [transport_derivative_fd_by_node(m, T, psi, 0.2, eps,
                                                       levels)
                       for eps in ladder]
        if budget is not None:
            monkeypatch.setattr(motion, "_STACK_SIMPLICES", budget)
        assert homotopy_residuals(m, INTERVAL, T, phi, counts,
                                  levels) == expected
        assert transport_derivative_fd_ladder(m, T, psi, 0.2, ladder,
                                              levels) == expected_fd

    def test_one_stack_of_pushes_per_chain(self, monkeypatch):
        # T at both ends and every count's nodes, then bnd(T) at the nodes
        m = make_motion("shear", ambient=2)
        T, phi = _chain(2, 1, 3), _form(2, 1, 4)
        seen = _stack_calls(monkeypatch)
        homotopy_residuals(m, INTERVAL, T, phi, [1, 2], gauss_order=5)
        nodes = [t for p in (1, 2)
                 for t in motion.gauss_nodes(*INTERVAL, p, 5)[0]]
        assert seen == [[INTERVAL[1], INTERVAL[0]] + nodes, nodes]

    @pytest.mark.parametrize("one_sided, pushed", [(True, 4), (False, 6)])
    def test_each_distinct_time_pushed_once(self, one_sided, pushed):
        # a hand-built motion gets every distinct time in one `maps` call
        m, calls = _counting(make_motion("tent"))
        psi = _cochain(2, 2)
        transport_derivative_fd_ladder(m, unit_square_chain(), psi, 0.2,
                                       [1e-2, 1e-3, 1e-4, 1e-3],
                                       one_sided=one_sided)
        times, = calls
        assert len(times) == len(set(times)) == pushed

    def test_empty_interval_is_zero_without_a_push(self):
        m, calls = _counting(make_motion("rotation", rate=0.7))
        T, phi = _chain(2, 1, 0), _form(2, 1, 0)
        assert homotopy_residuals(m, (0.3, 0.3), T, phi, [1, 4]) == \
            [0.0, 0.0]
        assert calls == []
        # T at both ends and the 5 + 10 nodes, then bnd(T) at the nodes
        homotopy_residuals(m, INTERVAL, T, phi, [1, 2])
        assert sum(map(len, calls)) == 2 + 3 * 5 + 3 * 5
        assert homotopy_residual_by_node(m, (0.3, 0.3), T, phi) == 0.0
        with pytest.raises(ValueError, match="outside the motion interval"):
            homotopy_residuals(m, (2.0, 2.0), T, phi, [1])
        with pytest.raises(ValueError, match="^levels must be a whole"):
            homotopy_residuals(m, (0.3, 0.3), T, phi, [1], levels=-1)

    def test_panel_counts_are_whole_numbers(self):
        m = make_motion("rotation", rate=0.7)
        T, phi = _chain(2, 1, 0), _form(2, 1, 0)
        for counts in ([2, 0], [1.5], [True]):
            with pytest.raises(ValueError, match="^panels must be a whole"):
                homotopy_residuals(m, INTERVAL, T, phi, counts)
        assert homotopy_residuals(m, INTERVAL, T, phi, []) == []


# the coordinate scales of `TestStackedImages`: one ulp of 1 over 2^-26
# and four decades around the unit box
SCALES = [2.0 ** -26, 1e-8, 1.0, 1e4, 1e8]


class TestStackedImages:
    """`Motion.images` of a built-in family: every time's images in one
    call, bit for bit those of `Motion.map_at` one time at a time and of
    the family's formula, with the same errors."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name, n", sorted({(name, n) for name, n, _
                                                in _cases()}))
    def test_equal_to_the_maps_one_time_at_a_time(self, name, n, scale):
        m = _motion(name, n)
        rng = np.random.default_rng(n)
        times = np.concatenate([[-1.0], rng.uniform(-1.0, 1.0, 21), [1.0]])
        params = {"axis": 0} if name == "tent" and n == 1 else {}
        for count in (7, n, 0):
            points = scale * rng.standard_normal((count, n))
            images = m.images(times, points)
            assert images.shape == (len(times), count, n)
            by_time = np.stack([m.map_at(t).values_at(points)
                                for t in times])
            by_map = np.stack([motion_map_by_formula(
                name, n, t, **params).values_at(points) for t in times])
            assert images.tobytes() == by_time.tobytes() == \
                by_map.tobytes()

    @pytest.mark.parametrize("name, n", sorted({(name, n) for name, n, _
                                                in _cases()}))
    def test_table_of_another_dimension(self, name, n):
        # points whose width is not the motion's dimension: one ValueError
        # before any `maps` call, the one `map_at(t).values_at` raises
        m, calls = _counting(_motion(name, n))
        for width in sorted({1, 2, 3, 4} - {n}):
            points = np.ones((5, width))
            expected = _message(lambda: m.map_at(0.1).values_at(points))
            assert _message(lambda: m.images([0.1, 0.4], points)) == expected
            assert expected == (f"a motion in {n} dimensions maps points of "
                                f"shape (m, {n}); got shape (5, {width})")
        assert calls == []

    @pytest.mark.parametrize("fault", ["one time", "wide", "short"])
    def test_maps_of_the_wrong_shape(self, fault):
        def maps(times, points):
            out = np.repeat(points[None], len(times), axis=0)
            return {"one time": out[0], "wide": np.dstack([out, out]),
                    "short": out[:-1]}[fault]

        m = Motion((0.0, 1.0), 2, maps, lambda t: None)
        assert _message(lambda: m.images([0.0, 0.5], np.ones((3, 2)))) \
            .startswith("the maps of a motion must give images of shape "
                        "(K, m, n) = (2, 3, 2); got shape")

    def test_chain_of_another_dimension(self):
        # a 3-D chain under the planar tent: the ladders raise as a push
        # of the chain does
        m = make_motion("tent")
        T, psi = _chain(3, 1, 0), _cochain(3, 1)
        expected = _message(lambda: m.push(T, 0.2))
        assert expected.startswith("a motion in 2 dimensions maps points of "
                                   "shape (m, 2); got shape")
        assert _message(lambda: transport_derivative_fd_ladder(
            m, T, psi, 0.2, [0.1, 0.05])) == expected
        family = [_form(3, 1, s) for s in range(3)]
        assert _message(lambda: continuity_modulus(
            m, T, 0.2, [0.1, 0.05], family, Box.unit(3, resolution=3))) \
            == expected

    def test_signed_zeros_are_kept(self):
        # the identity is a matmul plus a zero shift, as `LipMap.affine`
        # applies it: -0.0 comes out as 0.0 at every time
        m = make_motion("identity")
        points = np.array([[-0.0, 1.0], [2.0, -0.0]])
        images = m.images([0.0, 0.5], points)
        assert images.tobytes() == np.stack(
            [m.map_at(t).values_at(points) for t in (0.0, 0.5)]).tobytes()
        assert not np.signbit(images).any()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_time_outside_the_interval_before_any_image(self, name):
        m, calls = _counting(_motion(name, 2))
        expected = _message(lambda: m.map_at(2.0))
        assert _message(lambda: m.images([0.1, 2.0, -3.0],
                                         np.ones((3, 2)))) == expected
        assert expected.startswith("time 2.0 outside")
        assert calls == []

    @pytest.mark.parametrize("name", ["translation", "expansion", "tent"])
    def test_non_finite_images(self, name):
        params = {"translation": {"velocity": [1e308, 0.0]},
                  "tent": {"amplitude": 1e308}}.get(name, {})
        m = make_motion(name, **params)
        points = np.array([[0.5, 1.7e308], [0.5, 0.0]])
        if name == "translation":
            points = points[:, ::-1].copy()
        with np.errstate(over="ignore"):
            expected = _message(lambda: m.map_at(1.0).values_at(points))
            assert _message(lambda: m.images([0.0, 1.0], points)) == \
                expected
        assert expected == "non-finite map images"
