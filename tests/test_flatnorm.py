"""LP solver, simplicial complexes, the flat norm and the norm ladder."""

import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currentkit.chains import (Chain, boundary, evaluate, face_rows,
                               mass_chain, unit_interval_chain,
                               unit_square_chain)
from currentkit.complexes import (SimplicialComplex, _lookup,
                                  freudenthal_complex)
from currentkit import flatnorm, forms
from currentkit.cli import main
from currentkit.flatnorm import (dual_flat_lower_bound, flat_norm_lp,
                                 lower_bounds, lp_solve, sharp_lower_bound)
from currentkit.forms import Box, FormField
from currentkit.polynomial import Polynomial
from currentkit.scenarios import builtin_scenarios, load_config
from oracles import (depth_network_simplex, loop_boundary_matrix,
                     loop_freudenthal, lower_bound_by_seminorm)
from test_cli import _load_perfbench


def _with_unit_columns(a, b):
    """The LP a x = b with each row's sign flipped to b >= 0 and a unit
    column appended per row, which makes the unit columns a feasible
    basis for `lp_solve`."""
    sign = np.where(b < 0, -1.0, 1.0)
    m, n = a.shape
    return (np.hstack([a * sign[:, None], np.eye(m)]), b * sign,
            list(range(n, n + m)))


class TestLPSolver:
    def test_simple_equality(self):
        # min x + 2y  s.t.  x + y = 4, from y basic: one pivot
        x, pivots = lp_solve(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]),
                             np.array([4.0]), [1])
        assert pivots == 1
        np.testing.assert_allclose(x, [4.0, 0.0], atol=1e-10)

    def test_unbounded(self):
        # min -x  s.t.  x - y = 0 from x basic: y enters with no row to
        # block it
        with pytest.raises(RuntimeError,
                           match=r"column 1 of reduced cost -1 has no "
                                 r"blocking row after 0 pivots on a 1 x 2"):
            lp_solve(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                     np.array([0.0]), [0])

    def test_lost_accuracy_is_numerical_not_infeasible(self):
        # feasible by construction (b = A x0, x0 >= 0); from the unit
        # columns at cost 1e9 the simplex pivots on the 1e-9 entry and
        # loses the 1e-4 column: the vertex misses b by 2.5e-5, beyond the
        # tolerance that `flat_norm_lp` checks a vertex against
        a0 = np.array([[-1.0, 1e-9, -1e8], [-1e4, 1e-4, -1e-9]])
        a, b, basis = _with_unit_columns(
            a0, a0 @ np.array([0.5, 0.25, 0.9]))
        x, _ = lp_solve(np.array([1.0, 1.0, 1.0, 1e9, 1e9]), a, b, basis)
        miss = np.abs(a @ x - b)
        assert miss.max() > 1e-6
        assert np.any(miss > flatnorm._feasibility_tolerance(a, b, x))

    def test_round_off_at_large_scale_is_optimal(self):
        # feasible by construction, |b| ~ 1.5e8: the vertex found misses b
        # by one ulp of b (3.0e-8), above the absolute tolerance alone but
        # within the row's scale-aware one
        a0 = np.array([[-1.0, 7.0, 9.0], [-4.0, -7.0, 2.0]])
        a, b, basis = _with_unit_columns(
            a0, a0 @ (np.array([67.0, 77.0, 64.0]) * 1e6 / 7))
        x, _ = lp_solve(np.ones(5), a, b, basis)
        miss = np.abs(a @ x - b)
        assert flatnorm._FEAS_TOL < miss.max() <= np.spacing(np.abs(b).max())
        assert np.all(miss <= flatnorm._feasibility_tolerance(a, b, x))
        assert np.all(x[3:] == 0.0)

    def test_iteration_limit_names_the_problem(self, monkeypatch):
        # min x - y  s.t.  x + y = 4, x basic: one pivot is needed
        monkeypatch.setattr(flatnorm, "_MAX_PIVOTS", 0)
        with pytest.raises(RuntimeError, match=r"0 pivots on a 1 x 2"):
            lp_solve(np.array([1.0, -1.0]), np.array([[1.0, 1.0]]),
                     np.array([4.0]), [0])


class TestComplex:
    def test_freudenthal_counts_2d(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        assert comp.n_simplices(2) == 8
        assert comp.n_simplices(0) == 9

    @pytest.mark.parametrize("dim, resolution", [
        (2, 1449), (3, 89), (2, 10 ** 6), (2, 0), (2, 2.5), (2, True),
        pytest.param(2, 10 ** 5000, id="2-10**5000")])
    def test_resolution_beyond_the_size_cap_rejected(self, dim, resolution):
        # n! * resolution^n top simplices: 2 * 1449^2 and 6 * 89^3 are the
        # first counts above 2^22; unchecked, 10 ** 6 would build until
        # memory runs out.  A resolution that is not a size is refused
        # first: 0 stopped in log2 ("math domain error"), 2.5 in a
        # TypeError, and True built one cell.  An int of more than 4300
        # digits is named by its digit count: written out, it raised
        # Python's own "Exceeds the limit (4300 digits)"
        if type(resolution) is int and resolution > 10 ** 4300:
            message = (f"^resolution an int of 5001 digits asks for more "
                       f"than 4194304 top simplices")
        elif type(resolution) is int and resolution > 1:
            message = (f"^resolution {resolution} asks for more than "
                       f"4194304 top simplices")
        else:
            message = (f"^resolution must be a whole number >= 1, got "
                       f"{resolution!r}$")
        with pytest.raises(ValueError, match=message):
            freudenthal_complex((0.0,) * dim, (1.0,) * dim, resolution)
        assert freudenthal_complex((0, 0), (1, 1), 1).n_simplices(2) == 2

    def test_reversed_bounds_rejected(self):
        # unchecked, [1, 0] to [0, 1] built a complex whose full chain
        # read dx^dy as -1, and equal bounds gave NaN lattice steps
        for lower, upper in (([1, 0], [0, 1]), ([0, 0], [0, 1])):
            with pytest.raises(ValueError, match=re.escape(
                    f"lower < upper on every axis, got {lower!r} and "
                    f"{upper!r}")):
                freudenthal_complex(lower, upper, 2)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "bounds must be finite, got (0.0, nan) and (1.0, 1.0)")):
            freudenthal_complex((0.0, np.nan), (1.0, 1.0), 2)

    def test_bounds_of_unequal_length_rejected(self):
        # unchecked, numpy's broadcast message
        with pytest.raises(ValueError, match=re.escape(
                "one number per axis, as many in each, got (0, 0) and "
                "(1, 1, 1)")):
            freudenthal_complex((0, 0), (1, 1, 1), 2)

    def test_boundary_matrix_squares_to_zero(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        b2 = comp.boundary_matrix(2)
        b1 = comp.boundary_matrix(1)
        np.testing.assert_allclose(b1 @ b2, 0.0, atol=1e-12)

    def test_full_chain_boundary_is_outer_square(self):
        comp = freudenthal_complex((0, 0), (1, 1), 3)
        full = comp.full_chain()
        assert mass_chain(full) == pytest.approx(1.0)
        assert mass_chain(boundary(full)) == pytest.approx(4.0)

    def test_chain_vector_round_trip(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        coeffs = np.arange(comp.n_simplices(1), dtype=float)
        T = comp.simplex_chain(1, coeffs)
        np.testing.assert_allclose(comp.chain_vector(T), coeffs, atol=1e-12)

    def test_foreign_chain_rejected(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        with pytest.raises(ValueError):
            comp.chain_vector(unit_square_chain())

    @pytest.mark.parametrize("n,res", [(n, res) for n in (1, 2, 3)
                                       for res in range(1, 9)]
                             + [(4, res) for res in (1, 2, 3)])
    def test_matches_the_loop_builder(self, n, res):
        # vertices, simplices, orientations, boundary matrices and the full
        # chain, exactly as the tuple and dict builder gives them
        lower, upper = [-0.5] * n, [1.0 + 0.25 * i for i in range(n)]
        comp = freudenthal_complex(lower, upper, res)
        verts, simplices, orientation = loop_freudenthal(lower, upper, res)
        assert comp.vertices.tobytes() == verts.tobytes()
        assert comp.simplices == simplices
        assert comp.orientation == orientation
        for r in range(1, n + 1):
            assert (comp.boundary_matrix(r).tobytes()
                    == loop_boundary_matrix(simplices, r).tobytes())
        tops = simplices[n]
        want = Chain(verts[np.array(tops)],
                     [orientation[n][s] for s in tops])
        got = comp.full_chain()
        for a, b in zip((got.table, got.ids, got.mults),
                        (want.table, want.ids, want.mults)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_one_orientation_per_top_simplex(self):
        for signs in ([1, -1], [2]):
            with pytest.raises(ValueError, match="one sign, .* per top"):
                SimplicialComplex(np.eye(3)[:, :2], [(0, 1, 2)], signs)

    # a 1-chain in the plane takes the flow path, in 3-D the dense LP
    @pytest.mark.parametrize("dim", [2, 3], ids=["flow", "dense"])
    def test_non_finite_vertex_rejected(self, dim):
        grid = freudenthal_complex((0.0,) * dim, (1.0,) * dim, 2)
        verts = grid.vertices.copy()
        verts[len(verts) // 2, 0] = np.nan  # the centre of the box
        T = grid.simplex_chain(1, np.eye(grid.n_simplices(1))[0])
        with pytest.raises(ValueError, match=r"vertex \[nan .* not finite"):
            flat_norm_lp(T, SimplicialComplex(verts, grid.ids[dim],
                                              grid.top_orientations))

    @pytest.mark.parametrize("bad", [-1, "count"])
    @pytest.mark.parametrize("dim", [2, 3], ids=["flow", "dense"])
    def test_vertex_index_out_of_range_rejected(self, dim, bad):
        grid = freudenthal_complex((0.0,) * dim, (1.0,) * dim, 2)
        bad = len(grid.vertices) if bad == "count" else bad
        tops = grid.ids[dim].copy()
        tops[1, -1] = bad
        T = grid.simplex_chain(1, np.eye(grid.n_simplices(1))[0])
        with pytest.raises(ValueError, match=rf"index {bad} outside "
                                             rf"range\({len(grid.vertices)}\)"):
            flat_norm_lp(T, SimplicialComplex(grid.vertices, tops,
                                              grid.top_orientations))

    def test_vertices_have_no_boundary_matrix(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        for r in (0, -1):
            with pytest.raises(ValueError, match="0-simplex has no boundary"):
                comp.boundary_matrix(r)

    def test_outside_the_degrees_is_empty(self):
        # the flat norm's S of a top-degree chain lives here
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        assert comp.n_simplices(3) == comp.n_simplices(-1) == 0
        assert comp.boundary_matrix(3).shape == (8, 0)
        assert comp.volumes(3).shape == (0,)
        empty = comp.simplex_chain(3, np.zeros(0))
        assert (len(empty), empty.degree, empty.ambient) == (0, 3, 2)


def _unsorted(comp, seed):
    """`comp`'s top simplices, each row's vertices shuffled, as a complex
    without a lattice."""
    tops = np.random.default_rng(seed).permuted(comp.ids[comp.dim], axis=1)
    return SimplicialComplex(comp.vertices, tops, comp.top_orientations)


def _tables_inputs():
    """Freudenthal complexes in 1-D to 3-D, complexes built from unsorted
    top rows, and one with a repeated vertex: the square's corner (0, 0)
    twice, each copy in one of its two triangles."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.0, 0.0]])
    return ([freudenthal_complex((0.0,) * n, (1.0,) * n, res)
             for n, res in ((1, 3), (2, 1), (2, 4), (3, 1), (3, 3))]
            + [_unsorted(freudenthal_complex((0.0,) * n, (1.0,) * n, 3), n)
               for n in (2, 3)]
            + [SimplicialComplex(square, [(0, 1, 2), (4, 3, 2)], [1, 1])])


class TestComplexTables:
    """The tables a complex builds once: the face index of its top
    simplices, its chain vertex table and the vectors of the chains it
    has placed."""

    @pytest.mark.parametrize("k", range(8))
    def test_top_faces_are_the_face_lookup(self, k):
        comp = _tables_inputs()[k]
        n = comp.dim
        want = _lookup(comp.ids[n - 1], face_rows(comp.ids[n]))
        assert comp.top_faces.dtype == want.dtype
        assert np.array_equal(comp.top_faces, want)

    @pytest.mark.parametrize("k", range(8))
    def test_simplex_chain_equals_the_chain_constructor(self, k):
        comp = _tables_inputs()[k]
        rng = np.random.default_rng(k)
        for r in range(comp.dim + 2):
            count = comp.n_simplices(r)
            coeffs = rng.integers(-2, 3, count) * 0.5
            got = comp.simplex_chain(r, coeffs)
            want = Chain(comp.vertices[comp._ids(r)], coeffs)
            for a, b in zip((got.table, got.ids, got.mults),
                            (want.table, want.ids, want.mults)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        for r, count in ((-1, 0), (1, comp.n_simplices(1) + 1)):
            with pytest.raises(ValueError, match="one coefficient per"):
                comp.simplex_chain(r, np.ones(count))

    def test_chain_vector_is_kept_read_only_and_goes_with_its_chain(self):
        comp = freudenthal_complex((0.0, 0.0), (1.0, 1.0), 4)
        T = boundary(unit_square_chain()).subdivided(2)
        vector = comp.chain_vector(T)
        assert comp.chain_vector(T) is vector
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 5.0
        assert np.array_equal(comp.chain_vector(Chain(*T.stacked())),
                              vector)
        ref = weakref.ref(T)
        del T
        gc.collect()
        assert ref() is None and len(comp._vectors) == 0

    def test_flat_norm_reads_the_placed_vector(self, monkeypatch):
        # the command line places a chain by `chain_vector` to align it,
        # then solves its LP: the LP finds the vector the complex kept
        comp = freudenthal_complex((0.0, 0.0), (1.0, 1.0), 4)
        T = boundary(unit_square_chain()).subdivided(2)
        want = flat_norm_lp(Chain(*T.stacked()), comp)
        comp.chain_vector(T)

        def refuse(points):
            raise AssertionError("placed twice")

        monkeypatch.setattr(comp, "_vertex_positions", refuse)
        got = flat_norm_lp(T, comp)
        assert got[0] == want[0] and got[3] == want[3]

    @pytest.mark.parametrize("ambient", [1, 3])
    @pytest.mark.parametrize("lattice", [True, False])
    def test_chain_of_another_dimension_refused(self, ambient, lattice):
        # unchecked, the segment [0, 0.25] of R^1 was broadcast onto the
        # lattice as the diagonal edge (0, 0)-(0.25, 0.25), of flat norm
        # sqrt(2)/4 for a chain of mass 0.25; R^3 was numpy's broadcast
        # error, and without a lattice numpy's concatenate error
        comp = freudenthal_complex((0, 0), (1, 1), 4)
        if not lattice:
            comp = SimplicialComplex(comp.vertices, comp.ids[2],
                                     comp.top_orientations)
        T = Chain(unit_interval_chain(ambient).stacked()[0] * 0.25, [1.0])
        message = "^" + re.escape(f"the chain lies in R^{ambient} and the "
                                  f"complex in R^2") + "$"
        with pytest.raises(ValueError, match=message):
            comp.chain_vector(T)
        with pytest.raises(ValueError, match=message):
            flat_norm_lp(T, comp)


class TestFlatNorm:
    def test_boundary_square_equals_one(self):
        comp = freudenthal_complex((0, 0), (1, 1), 4)
        T = boundary(unit_square_chain()).subdivided(2)
        value, s_chain, r_chain, info = flat_norm_lp(T, comp)
        # min(perimeter 4, area 1) = 1, with S the full square
        assert value == pytest.approx(1.0, abs=1e-8)
        assert info["mass_S"] == pytest.approx(1.0, abs=1e-8)
        assert info["mass_R"] == pytest.approx(0.0, abs=1e-8)

    def test_exhaustive_oracle_small_complex(self):
        # resolution-1 complex: 5 edges, 2 triangles; brute-force the
        # decomposition over integer S-coefficients
        comp = freudenthal_complex((0, 0), (1, 1), 1)
        T = boundary(comp.full_chain())
        t = comp.chain_vector(T)
        bmat = comp.boundary_matrix(2)
        vol1 = comp.volumes(1)
        vol2 = comp.volumes(2)
        best = np.inf
        for s0 in np.arange(-2, 2.5, 0.5):
            for s1 in np.arange(-2, 2.5, 0.5):
                s = np.array([s0, s1])
                best = min(best, vol1 @ np.abs(t - bmat @ s)
                           + vol2 @ np.abs(s))
        value, *_ = flat_norm_lp(T, comp)
        assert value == pytest.approx(best, abs=1e-10)

    def test_flat_norm_at_most_mass(self):
        rng = np.random.default_rng(0)
        comp = freudenthal_complex((0, 0), (1, 1), 3)
        for _ in range(5):
            coeffs = rng.integers(-2, 3, comp.n_simplices(1)).astype(float)
            T = comp.simplex_chain(1, coeffs)
            if not len(T):
                continue
            value, *_ = flat_norm_lp(T, comp)
            assert value <= mass_chain(T) + 1e-8

    def test_boundary_contraction(self):
        rng = np.random.default_rng(1)
        comp = freudenthal_complex((0, 0), (1, 1), 3)
        for _ in range(5):
            coeffs = rng.integers(-1, 2, comp.n_simplices(2)).astype(float)
            T = comp.simplex_chain(2, coeffs)
            if not len(T):
                continue
            f_t, *_ = flat_norm_lp(T, comp)
            bt = boundary(T)
            if not len(bt):
                continue
            f_bt, *_ = flat_norm_lp(bt, comp)
            assert f_bt <= f_t + 1e-8

    def test_top_degree_flat_equals_mass(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        T = comp.full_chain()
        value, _, _, info = flat_norm_lp(T, comp)
        assert value == pytest.approx(mass_chain(T), abs=1e-10)
        assert info["mass_S"] == 0.0

    @pytest.mark.parametrize("case", ["square", "cube", "graph", "points"])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_no_higher_simplex_is_mass_without_a_solver(self, monkeypatch,
                                                        case, scale):
        # with no (r+1)-simplex, S = 0 is the only choice: R = T exactly,
        # no pivot, and the value is the mass; neither solver is called
        def no_solver(*args):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(flatnorm, "lp_solve", no_solver)
        monkeypatch.setattr(flatnorm, "_network_simplex", no_solver)
        dim = 3 if case == "cube" else 2
        grid = freudenthal_complex((0.0,) * dim, (scale,) * dim, 3)
        comp = {"square": grid, "cube": grid, "graph": _edge_graph(grid),
                "points": SimplicialComplex(
                    grid.vertices, np.arange(len(grid.vertices))[:, None],
                    np.ones(len(grid.vertices)))}[case]
        r = comp.dim
        rng = np.random.default_rng(r)
        T = comp.simplex_chain(
            r, rng.choice([-2.0, -0.5, 0.0, 1.0], comp.n_simplices(r)))
        value, S, R, info = flat_norm_lp(T, comp)
        t = comp.chain_vector(T)
        assert comp.chain_vector(R).tobytes() == t.tobytes()
        assert len(S) == 0 and S.degree == r + 1
        assert info["iterations"] == 0 and info["mass_S"] == 0.0
        assert value == info["mass_R"] == comp.volumes(r) @ np.abs(t)
        assert value == pytest.approx(mass_chain(T), rel=1e-14)

    def test_numerical_failure_raises_with_residual(self, monkeypatch):
        # a degree-0 chain in 2-D is solved by the dense LP; a vertex that
        # misses its first row by 3e-5 is an error, not an answer
        def lost(c, a, b, basis):
            x = np.zeros(a.shape[1])
            x[basis] = b
            x[basis[0]] += 3e-5
            return x, 7

        monkeypatch.setattr(flatnorm, "lp_solve", lost)
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        T = comp.simplex_chain(0, np.eye(comp.n_simplices(0))[4])
        with pytest.raises(RuntimeError,
                           match=r"residual .* = 3e-05 exceeds the "
                                 r"tolerance 1e-08 after 7 pivots"):
            flat_norm_lp(T, comp)

    def test_zero_chain(self):
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        T = Chain(np.zeros((0, 2, 2)), [])
        value, *_ = flat_norm_lp(T, comp)
        assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-11, 1e-10, 1e-8, 1e-3, 1.0,
                                       1e3, 1e8])
    def test_dense_lp_at_any_scale_matches_the_normalized_lp(self, scale):
        # a 1-chain in 3-D takes the dense LP; on a tiny box its costs lie
        # below the absolute pivot tolerance unless they are scaled, and
        # the optimum would read M(T), with no pivot taken
        comp = freudenthal_complex((0, 0, 0), (scale,) * 3, 2)
        coeffs = np.zeros(comp.n_simplices(2))
        coeffs[:5] = 1.0
        T = boundary(comp.simplex_chain(2, coeffs))
        value, S, R, info = flat_norm_lp(T, comp)
        c, a, b, basis = _dense_lp(comp, T)
        top = c.max()
        x, pivots = lp_solve(c / top, a, b, basis)
        assert info["iterations"] == pivots
        assert value == pytest.approx((c / top) @ x * top, rel=1e-12)
        assert value == info["mass_R"] + info["mass_S"]
        assert _decomposition_residual(comp, T, S, R) == 0.0


def _edge_graph(comp):
    """The 1-skeleton of a complex as a complex of its own, whose top
    simplices are edges."""
    return SimplicialComplex(comp.vertices, comp.ids[1],
                             np.ones(comp.n_simplices(1)))


def _cell_union_boundary(comp, seed):
    rng = np.random.default_rng(seed)
    cells = rng.random(comp.n_simplices(comp.dim)) < 0.4
    return boundary(comp.simplex_chain(comp.dim, cells.astype(float)))


def _signed_edge_chain(comp, seed):
    rng = np.random.default_rng(seed)
    return comp.simplex_chain(
        1, rng.choice([-1.0, 0.0, 1.0], comp.n_simplices(1)))


def _dense_lp(comp, T):
    """The flat-norm LP of T over [R+, R-, S+, S-] on the dense boundary
    matrix, min c.x s.t. a x = b, x >= 0, each row multiplied by the sign
    of its t_i, and the basis R = t, S = 0, as the dense path builds them:
    (c, a, b, basis)."""
    r = T.degree
    t = comp.chain_vector(T)
    bmat = comp.boundary_matrix(r + 1)
    vol_r, vol_s = comp.volumes(r), comp.volumes(r + 1)
    eye = np.eye(len(t))
    sign = np.where(t < 0, -1.0, 1.0)
    a = np.hstack([eye, -eye, bmat, -bmat]) * sign[:, None]
    basis = [i if t[i] >= 0 else len(t) + i for i in range(len(t))]
    return (np.concatenate([vol_r, vol_r, vol_s, vol_s]), a, np.abs(t),
            basis)


class TestPivotPath:
    """Bland's rule follows a fixed pivot sequence on the dense LP of the
    resolution-8 Freudenthal square.  Value and pivot count are pinned, so
    a change to the pivoting that alters the path shows here; so is the
    network simplex's pivot count on the same inputs, under the plain
    block rule (`_CANDIDATES` = 1) and with the shipped candidate list.
    Two larger rows at degrees below n - 1 pin the dense path of
    `flat_norm_lp`."""

    CASES = [(_cell_union_boundary, 8, 0.46093750000000017, 390),
             (_signed_edge_chain, 9, 10.05989132004283, 403)]
    NETWORK_PIVOTS = [166, 421]
    CANDIDATE_PIVOTS = [141, 415]

    @pytest.mark.parametrize("make, seed, value, pivots", CASES)
    def test_value_and_pivot_count(self, make, seed, value, pivots):
        comp = freudenthal_complex((0, 0), (1, 1), 8)
        c, a, b, basis = _dense_lp(comp, make(comp, seed))
        x, got = lp_solve(c, a, b, basis)
        assert got == pivots
        assert c @ x == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("make, seed, value, pivots",
                             [(*case[:3], n)
                              for case, n in zip(CASES, NETWORK_PIVOTS)])
    def test_network_pivot_count(self, make, seed, value, pivots,
                                 monkeypatch):
        monkeypatch.setattr(flatnorm, "_CANDIDATES", 1)
        comp = freudenthal_complex((0, 0), (1, 1), 8)
        got, _, _, info = flat_norm_lp(make(comp, seed), comp)
        assert info["iterations"] == pivots
        assert got == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("make, seed, value, pivots",
                             [(*case[:3], n)
                              for case, n in zip(CASES, CANDIDATE_PIVOTS)])
    def test_candidate_list_pivot_count(self, make, seed, value, pivots):
        assert flatnorm._CANDIDATES == 32
        comp = freudenthal_complex((0, 0), (1, 1), 8)
        got, _, _, info = flat_norm_lp(make(comp, seed), comp)
        assert info["iterations"] == pivots
        assert got == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("make, seed, value, pivots", CASES)
    def test_pinned_value_matches_highs(self, make, seed, value, pivots):
        optimize = pytest.importorskip("scipy.optimize")
        comp = freudenthal_complex((0, 0), (1, 1), 8)
        c, a, b, _ = _dense_lp(comp, make(comp, seed))
        res = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None),
                               method="highs")
        assert res.status == 0
        assert value == pytest.approx(res.fun, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("dim, res, r, value, pivots", [
        (2, 16, 0, 8.403490257669732, 4282),
        (3, 3, 1, 19.258312041223995, 2079)])
    def test_dense_rows(self, dim, res, r, value, pivots):
        # `random_faces`' rule at degree r <= n - 2: +-1 on 30% of the
        # r-simplices, from the rng of the flat-norm rows; pivots and F
        # are pinned bit for bit
        comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
        rng = np.random.default_rng([42, 1])
        n = comp.n_simplices(r)
        coeffs = np.zeros(n)
        picked = rng.choice(n, round(0.3 * n), replace=False)
        coeffs[picked] = rng.choice([-1.0, 1.0], picked.size)
        got, _, _, info = flat_norm_lp(comp.simplex_chain(r, coeffs), comp)
        assert (info["iterations"], got) == (pivots, value)


def _random_codim1(comp, seed):
    """A random +-1, +-2 chain on a fifth of the codimension-1 faces."""
    rng = np.random.default_rng(seed)
    n = comp.n_simplices(comp.dim - 1)
    coeffs = rng.choice([-2.0, -1.0, 1.0, 2.0], n) * (rng.random(n) < 0.2)
    return comp.simplex_chain(comp.dim - 1, coeffs)


def _decomposition_residual(comp, T, S, R):
    """max |t - r - B s| over the coefficient vectors on the complex."""
    r = T.degree
    t = comp.chain_vector(T)
    return np.abs(t - comp.chain_vector(R) - comp.boundary_matrix(r + 1)
                  @ comp.chain_vector(S)).max(initial=0.0)


CODIM1 = [(1, 8, 0), (1, 5, 1), (2, 4, 2), (2, 8, 3), (2, 7, 4), (3, 3, 5),
          (3, 4, 6)]


class TestFlowPath:
    """Codimension-1 chains go through the network simplex: the same
    optimum as the dense LP, an exact decomposition, any scale."""

    @pytest.mark.parametrize("dim, res, seed", CODIM1)
    @pytest.mark.parametrize("make", [_random_codim1, _cell_union_boundary],
                             ids=["faces", "cells"])
    def test_matches_the_dense_lp(self, dim, res, seed, make):
        comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
        T = make(comp, seed)
        value, S, R, info = flat_norm_lp(T, comp)
        c, a, b, basis = _dense_lp(comp, T)
        x, _ = lp_solve(c, a, b, basis)
        n_r = comp.n_simplices(dim - 1)
        r_dense = x[:n_r] - x[n_r:2 * n_r]
        s_dense = x[2 * n_r:2 * n_r + comp.n_simplices(dim)] \
            - x[2 * n_r + comp.n_simplices(dim):]
        assert value == pytest.approx(c @ x, rel=1e-12, abs=1e-14)
        assert info["mass_R"] == pytest.approx(
            comp.volumes(dim - 1) @ np.abs(r_dense), rel=1e-12, abs=1e-14)
        assert info["mass_S"] == pytest.approx(
            comp.volumes(dim) @ np.abs(s_dense), rel=1e-12, abs=1e-14)
        assert value == pytest.approx(info["mass_R"] + info["mass_S"],
                                      rel=1e-15)
        assert _decomposition_residual(comp, T, S, R) == 0.0

    @pytest.mark.parametrize("dim, res, seed", CODIM1 + [(2, 32, 7)])
    def test_matches_highs(self, dim, res, seed):
        optimize = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
        T = _random_codim1(comp, seed)
        value, *_ = flat_norm_lp(T, comp)
        t = comp.chain_vector(T)
        bmat = sparse.csr_matrix(comp.boundary_matrix(dim))
        eye = sparse.identity(len(t), format="csr")
        vol_r, vol_s = comp.volumes(dim - 1), comp.volumes(dim)
        res = optimize.linprog(
            np.concatenate([vol_r, vol_r, vol_s, vol_s]),
            A_eq=sparse.hstack([eye, -eye, bmat, -bmat], format="csr"),
            b_eq=t, bounds=(0, None), method="highs")
        assert res.status == 0
        assert value == pytest.approx(res.fun, rel=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
    def test_any_scale(self, dim, scale):
        # the boundary of a block of cells: at a small box its flat norm
        # is the block's volume, at a large box its boundary's mass, each
        # scaling as a power of the box
        res = 4
        unit = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
        comp = freudenthal_complex([0.0] * dim, [scale] * dim, res)
        centres = unit.vertices[unit.ids[dim]].mean(axis=1)
        inside = np.all((centres > 0.25) & (centres < 0.75), axis=1)
        coeffs = unit.top_orientations * inside
        block = unit.simplex_chain(dim, coeffs)
        T = boundary(comp.simplex_chain(dim, coeffs))
        value, S, R, _ = flat_norm_lp(T, comp)
        if scale < 1:
            assert value / scale ** dim == pytest.approx(
                mass_chain(block), rel=1e-12)
            assert len(R) == 0
        else:
            assert value / scale ** (dim - 1) == pytest.approx(
                mass_chain(boundary(block)), rel=1e-12)
            assert len(S) == 0
        assert _decomposition_residual(comp, T, S, R) == 0.0

    @pytest.mark.parametrize("scale", [1e-13, 1e-8, 1.0, 1e8])
    def test_small_multiplicities_keep_their_decomposition(self, scale):
        # S and R drop only exact zeros, so T = R + bnd S holds exactly
        # however small T's multiplicities are, on both solver paths
        comp = freudenthal_complex((0.0, 0.0), (1.0, 1.0), 4)
        T = boundary(comp.full_chain()) * scale
        value, S, R, _ = flat_norm_lp(T, comp)
        assert value == pytest.approx(scale, rel=1e-12)
        t = comp.chain_vector(T)
        assert np.array_equal(comp.chain_vector(R) + comp.boundary_matrix(2)
                              @ comp.chain_vector(S), t)
        assert len(S) == 32
        cube = freudenthal_complex((0.0,) * 3, (1.0,) * 3, 2)
        face = np.eye(cube.n_simplices(2))[3] * scale
        T = boundary(cube.simplex_chain(2, face))
        value, S, R, _ = flat_norm_lp(T, cube)
        assert len(S) == 1 and value == pytest.approx(scale / 8, rel=1e-12)
        assert _decomposition_residual(cube, T, S, R) == 0.0

    @pytest.mark.parametrize("dim, res", [(1, 12), (2, 5), (3, 3)])
    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_any_scale_matches_the_normalized_dense_lp(self, dim, res,
                                                       scale):
        # a random chain on a box at `scale`: the optimum equals that of
        # the dense LP with every volume divided by the largest, whose
        # optimal vertex is the same and whose costs are near 1
        comp = freudenthal_complex([0.0] * dim, [scale] * dim, res)
        T = _random_codim1(comp, dim)
        value, S, R, info = flat_norm_lp(T, comp)
        c, a, b, basis = _dense_lp(comp, T)
        top = c.max()
        x, _ = lp_solve(c / top, a, b, basis)
        assert value == pytest.approx((c / top) @ x * top, rel=1e-12)
        assert _decomposition_residual(comp, T, S, R) == 0.0

    def test_other_complexes_take_the_dense_lp(self, monkeypatch):
        # the network path needs degree dim - 1, at most two cofaces per
        # face and coherent top orientations; anything else is solved by
        # `lp_solve`; a chain with no (r+1)-simplex above it needs neither
        calls = []
        solve = flatnorm.lp_solve

        def counted(c, a, b, basis):
            calls.append(a.shape)
            return solve(c, a, b, basis)

        monkeypatch.setattr(flatnorm, "lp_solve", counted)
        comp = freudenthal_complex((0, 0), (1, 1), 3)
        T = boundary(comp.full_chain())
        coherent, *_ = flat_norm_lp(T, comp)
        flat_norm_lp(comp.full_chain(), comp)
        flat_norm_lp(T, _edge_graph(comp))
        assert calls == []
        # one top simplex flipped: its neighbours' shared faces get equal
        # signs; the value, from the sorted orientation, is the same
        signs = comp.top_orientations.copy()
        signs[4] = -signs[4]
        flipped = SimplicialComplex(comp.vertices, comp.ids[2], signs)
        value, *_ = flat_norm_lp(T, flipped)
        assert len(calls) == 1
        assert value == pytest.approx(coherent, rel=1e-12)
        # degree 0 in 2-D
        flat_norm_lp(comp.simplex_chain(0, np.eye(comp.n_simplices(0))[5]),
                     comp)
        assert len(calls) == 2
        # three triangles on the edge (0, 1)
        book = SimplicialComplex(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.4, 0.5]]), [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
            [1, -1, 1])
        T = book.simplex_chain(1, np.eye(book.n_simplices(1))[0])
        flat_norm_lp(T, book)
        assert len(calls) == 3

    def test_pivot_limit_names_the_problem(self, monkeypatch):
        monkeypatch.setattr(flatnorm, "_MAX_PIVOTS_PER_ARC", 0)
        comp = freudenthal_complex((0, 0), (1, 1), 2)
        with pytest.raises(RuntimeError,
                           match=r"pivot limit reached: 0 pivots on 48 arcs"):
            flat_norm_lp(boundary(comp.full_chain()), comp)



def _flatgrid_inputs(seed, tmp_path):
    """(T, complex) of each flatgrid scenario of the benchmark at `seed`."""
    for path in _load_perfbench("workloads").write_flatgrid(seed,
                                                            str(tmp_path)):
        cfg, = load_config(path)
        n = cfg.ambient
        yield (cfg.build_chain(),
               freudenthal_complex([0.0] * n, [1.0] * n, cfg.resolution))


def _large_row(dim, res, kind, rng):
    """(T, complex) of one of the benchmark's large codimension-1 rows."""
    w = _load_perfbench("workloads")
    build = w.cell_union_boundary if kind == "cells" else w.random_faces
    comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
    return build(dim, res, rng), comp


LARGE_ROWS = [(2, 32, "cells"), (2, 32, "faces"), (3, 8, "cells"),
              (3, 8, "faces")]


@st.composite
def _circulations(draw):
    """(tail, head, cost, cap, n_nodes) of a random small circulation that
    is no dual graph: the arcs v -> root at cost 0 first, as
    `_network_simplex` wants them, then arcs between any two nodes with
    integer costs and capacities, most costs negative so that a draw
    takes many pivots."""
    n_nodes = draw(st.integers(2, 13))
    root = n_nodes - 1
    ends = st.tuples(st.integers(0, root), st.integers(0, root)).filter(
        lambda pair: pair[0] != pair[1])
    arcs = draw(st.lists(st.tuples(ends, st.integers(-9, 3),
                                   st.integers(0, 9)), min_size=1,
                         max_size=4 * n_nodes))
    caps = draw(st.lists(st.integers(1, 9), min_size=root, max_size=root))
    tail = np.array(list(range(root)) + [a for (a, _), _, _ in arcs])
    head = np.array([root] * root + [b for (_, b), _, _ in arcs])
    cost = np.array([0.0] * root + [float(c) for _, c, _ in arcs])
    cap = np.array([float(c) for c in caps] + [float(c) for *_, c in arcs])
    return tail, head, cost, cap, n_nodes


class TestSamePivotPath:
    """The network simplex on a thread-indexed tree pivots exactly as it
    did on parent, depth and child-set lists
    (`oracles.depth_network_simplex`), under the plain block rule
    (`_CANDIDATES` = 1) and with the shipped candidate list: the same
    pivot count and the same potentials, bit for bit."""

    @staticmethod
    def _same(solve, args):
        (pi, pivots), (want_pi, want_pivots) = (solve(*args),
                                                depth_network_simplex(*args))
        assert pivots == want_pivots
        assert np.array_equal(pi, want_pi)
        return pi, pivots

    def _check(self, monkeypatch, T, comp, scale=1.0):
        # both solvers on the circulation `flat_norm_lp` builds for T, its
        # capacities (the volumes) times `scale`, at one candidate and at
        # the shipped list
        solve, counts = flatnorm._network_simplex, []

        def both(tail, head, cost, cap, n_nodes):
            pi, pivots = self._same(solve, (tail, head, cost, cap * scale,
                                            n_nodes))
            counts.append(pivots)
            return pi, pivots

        for size in [1, 32]:
            with monkeypatch.context() as patch:
                patch.setattr(flatnorm, "_CANDIDATES", size)
                patch.setattr(flatnorm, "_network_simplex", both)
                flat_norm_lp(T, comp)
        assert len(counts) == 2 and min(counts) > 0

    @pytest.mark.parametrize("seed", [42, 977, 7])
    def test_flatgrid_chains(self, monkeypatch, tmp_path, seed):
        for T, comp in _flatgrid_inputs(seed, tmp_path):
            self._check(monkeypatch, T, comp)

    @pytest.mark.parametrize("dim, res, kind", LARGE_ROWS)
    def test_large_rows(self, monkeypatch, dim, res, kind):
        self._check(monkeypatch, *_large_row(dim, res, kind,
                                             np.random.default_rng(dim)))

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_volumes(self, monkeypatch, scale):
        comp = freudenthal_complex((0.0, 0.0), (1.0, 1.0), 16)
        self._check(monkeypatch, _random_codim1(comp, 11), comp, scale)

    @settings(max_examples=400, deadline=None)
    @given(_circulations(), st.sampled_from([1, 32]))
    def test_random_circulations(self, args, size):
        # small trees reach the update's rare cases: e entering and the
        # leaving arc hanging at the same node, and the node before the
        # moved subtree on the thread being its new parent
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flatnorm, "_CANDIDATES", size)
            self._same(flatnorm._network_simplex, args)

    def test_real_costs_at_zero_tolerance(self, monkeypatch):
        # with real costs and no tolerance, round-off leaves some tree
        # arcs' reduced costs below `floor`, so the entering arc's state
        # (`rate[e] = 0.0`) decides the path; the oracle reads the patched
        # `_COST_TOL` too
        monkeypatch.setattr(flatnorm, "_COST_TOL", 0.0)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n_nodes = int(rng.integers(3, 14))
            root, count = n_nodes - 1, int(rng.integers(1, 4 * n_nodes + 1))
            tail = rng.integers(0, n_nodes, count)
            head = (tail + rng.integers(1, n_nodes, count)) % n_nodes
            self._same(flatnorm._network_simplex, (
                np.concatenate([np.arange(root), tail]),
                np.concatenate([np.full(root, root), head]),
                np.concatenate([np.zeros(root),
                                rng.uniform(-9.0, 3.0, count)]),
                np.concatenate([rng.uniform(1.0, 9.0, root),
                                rng.uniform(0.1, 9.0, count)]), n_nodes))


class TestCandidateList:
    """The optimum does not depend on the candidate list: one arc (the
    plain block rule) and the shipped `_CANDIDATES` give the same value,
    an exact decomposition T = R + bnd S, and the value of HiGHS."""

    def _check(self, monkeypatch, T, comp):
        values = []
        for size in [1, flatnorm._CANDIDATES]:
            with monkeypatch.context() as patch:
                patch.setattr(flatnorm, "_CANDIDATES", size)
                value, S, R, _ = flat_norm_lp(T, comp)
            assert _decomposition_residual(comp, T, S, R) == 0.0
            values.append(value)
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        try:
            from scipy import optimize, sparse
        except ImportError:
            return
        r = T.degree
        t = comp.chain_vector(T)
        eye = sparse.identity(len(t), format="csr")
        bmat = sparse.csr_matrix(comp.boundary_matrix(r + 1))
        vol_r, vol_s = comp.volumes(r), comp.volumes(r + 1)
        # HiGHS's tolerances are absolute, so it gets the costs divided by
        # the largest one: the same optimal vertex, costs near 1
        c = np.concatenate([vol_r, vol_r, vol_s, vol_s])
        top = c.max()
        res = optimize.linprog(
            c / top, A_eq=sparse.hstack([eye, -eye, bmat, -bmat],
                                        format="csr"),
            b_eq=t, bounds=(0, None), method="highs")
        assert res.status == 0
        assert values[1] == pytest.approx(res.fun * top, rel=1e-9)

    @pytest.mark.parametrize("seed", [42, 7, 977])
    def test_flatgrid_chains(self, monkeypatch, tmp_path, seed):
        for T, comp in _flatgrid_inputs(seed, tmp_path):
            self._check(monkeypatch, T, comp)

    @pytest.mark.parametrize("dim, res, kind", LARGE_ROWS)
    def test_large_rows(self, monkeypatch, dim, res, kind):
        self._check(monkeypatch, *_large_row(dim, res, kind,
                                             np.random.default_rng([42, 1])))

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_volumes(self, monkeypatch, scale):
        comp = freudenthal_complex((0.0, 0.0), (scale, scale), 16)
        self._check(monkeypatch, _random_codim1(comp, 11), comp)


class TestDualBounds:
    def setup_method(self):
        self.box = Box.unit(2, resolution=5)
        self.rng = np.random.default_rng(7)
        self.family = [FormField.random_polynomial(2, 1, self.rng,
                                                   max_degree=1)
                       for _ in range(5)]

    def test_ladder_ordering(self):
        T = boundary(unit_square_chain())
        sharp = sharp_lower_bound(T, self.family, self.box)
        flat = dual_flat_lower_bound(T, self.family, self.box)
        comp = freudenthal_complex((0, 0), (1, 1), 4)
        value, *_ = flat_norm_lp(T.subdivided(2), comp)
        assert sharp <= flat + 1e-9
        assert flat <= value + 1e-6
        assert value <= mass_chain(T) + 1e-9

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            dual_flat_lower_bound(boundary(unit_square_chain()), [], self.box)


def _ladder_case(n, r, seed, scale=1.0, resolution=4):
    """Three random r-simplices in [0.1, 0.9]^n with random
    multiplicities, four random nonzero quadratic r-forms, and the box
    [-0.5, 1.5]^n around K = [0, 1]^n; coordinates times `scale`."""
    rng = np.random.default_rng(seed)
    T = Chain(scale * rng.uniform(0.1, 0.9, size=(3, r + 1, n)),
              rng.uniform(-2.0, 2.0, size=3))
    family = []
    while len(family) < 4:
        phi = FormField.random_polynomial(n, r, rng, max_degree=2)
        if not all(p.is_zero() for p in phi.polys):
            family.append(phi)
    box = Box((0.0,) * n, (scale,) * n, resolution)
    return T, family, box


class TestOnePassLadder:
    """`lower_bounds` takes both rungs of the norm ladder with each form
    evaluated on T once, and `dual_flat_lower_bound` and
    `sharp_lower_bound` take one rung each, all from `forms.seminorm_flat`
    and `forms.seminorm_sharp`: each equals, bit for bit, its own pass
    with the whole seminorm per form (`oracles.lower_bound_by_seminorm`)."""

    @staticmethod
    def _check(T, family, box):
        flat = lower_bound_by_seminorm(T, family, "flat", box)
        sharp = lower_bound_by_seminorm(T, family, "sharp", box)
        assert lower_bounds(T, family, box) == (flat, sharp)
        assert dual_flat_lower_bound(T, family, box) == flat
        assert sharp_lower_bound(T, family, box) == sharp
        return flat, sharp

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3)
                                      for r in range(n + 1)])
    def test_random_families_at_any_scale(self, n, r, scale):
        self._check(*_ladder_case(n, r, 10 * n + r, scale))

    @pytest.mark.parametrize("n, res", [(1, 1500), (1, 1501), (2, 38),
                                        (2, 39)])
    def test_grids_on_both_sides_of_the_all_pairs_limit(self, n, res):
        # at most `_MAX_ALL_PAIR_POINTS` grid points take every grid pair,
        # more take random pairs
        assert (res ** n <= forms._MAX_ALL_PAIR_POINTS) == \
            (res in (1500, 38))
        self._check(*_ladder_case(n, n - 1, res, resolution=res))

    def test_bounds_stay_below_the_mass_of_a_chain_in_r4(self):
        # affine 2-forms on K = [0, 1]^4: |phi| is convex, so its grid max
        # is its sup on K, and with comass <= |phi| every ratio
        # T(phi) / s(phi) is at most M(T), T in K, at the middle degree too
        rng = np.random.default_rng(4)
        T = Chain(rng.uniform(0.0, 1.0, size=(6, 3, 4)), rng.normal(size=6))
        family = [FormField.random_polynomial(4, 2, rng, max_degree=1)
                  for _ in range(8)]
        family.append(FormField.from_polynomials(4, 2, {(0, 1): 1.0,
                                                        (2, 3): 1.0}))
        flat, sharp = lower_bounds(T, family, Box.unit(4, resolution=2))
        mass = mass_chain(T)
        assert 0.0 < flat <= mass * (1 + 1e-12)
        assert 0.0 < sharp <= mass * (1 + 1e-12)

    def test_no_positive_pairing_gives_zero(self):
        # the bounds are max(0, max of the ratios)
        T, family, box = _ladder_case(2, 1, 5)
        family = [phi if evaluate(T, phi) <= 0.0 else phi * -1.0
                  for phi in family]
        assert self._check(T, family, box) == (0.0, 0.0)

    def test_empty_family_rejected(self):
        T, _, box = _ladder_case(2, 1, 5)
        for bound in (lower_bounds, dual_flat_lower_bound, sharp_lower_bound):
            with pytest.raises(ValueError, match="^empty test family$"):
                bound(T, [], box)

    def test_vanishing_seminorms_are_named(self):
        T, _, box = _ladder_case(2, 1, 5)
        zero = [FormField.from_polynomials(2, 1, {})]
        for bound in (lower_bounds, dual_flat_lower_bound):
            with pytest.raises(ValueError, match="^test form with vanishing "
                                                 "flat seminorm$"):
                bound(T, zero, box)
        with pytest.raises(ValueError, match="^test form with vanishing "
                                             "sharp seminorm$"):
            sharp_lower_bound(T, zero, box)
        # x^2 - x vanishes on the grid {0, 1}, and so do its sup and its
        # difference quotient, but d of it does not: only the sharp
        # seminorm vanishes
        x = Polynomial.variable(0, 1)
        bump = [FormField.from_polynomials(1, 0, {(): x * x - x})]
        box = Box((0.0,), (1.0,), 2)
        T = Chain(np.array([[[0.5]]]), np.array([1.0]))
        assert dual_flat_lower_bound(T, bump, box) == 0.0
        for bound in (lower_bounds, sharp_lower_bound):
            with pytest.raises(ValueError, match="^test form with vanishing "
                                                 "sharp seminorm$"):
                bound(T, bump, box)

    @pytest.mark.parametrize("name, bound, index",
                             [("seminorm_flat", dual_flat_lower_bound, 0),
                              ("seminorm_sharp", sharp_lower_bound, 1)])
    def test_each_rung_reads_its_seminorm(self, monkeypatch, name, bound,
                                          index):
        # a seminorm read as twice its value halves its rung exactly, in
        # `lower_bounds` and in the one-rung function, and leaves the other
        # rung as it was
        T, family, box = _ladder_case(2, 1, 5)
        before = lower_bounds(T, family, box)
        assert before[index] > 0.0
        true = getattr(flatnorm, name)
        monkeypatch.setattr(flatnorm, name,
                            lambda phi, box: 2.0 * true(phi, box))
        after = lower_bounds(T, family, box)
        assert after[index] == before[index] / 2.0
        assert after[1 - index] == before[1 - index]
        assert bound(T, family, box) == before[index] / 2.0

    def test_flatnorm_command_takes_each_form_once(self, monkeypatch,
                                                   tmp_path):
        # per test form: one evaluation on T; the comass seminorm of the
        # form once in each seminorm, and of its exterior derivative once
        # in the flat one, below top degree; one ladder per distinct
        # chain, since the bundled scenarios share the seed, box and
        # resolution
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(flatnorm, "evaluate",
                            counted("evaluate", flatnorm.evaluate))
        monkeypatch.setattr(forms, "seminorm_comass",
                            counted("comass", forms.seminorm_comass))
        monkeypatch.setattr(forms, "exterior_derivative",
                            counted("d", forms.exterior_derivative))
        assert main(["flatnorm", "--out", str(tmp_path)]) == 0
        degrees = list({cfg.chain["builtin"]: (cfg.build_chain().degree,
                                               cfg.ambient)
                        for cfg in builtin_scenarios()}.values())
        assert len(degrees) == 2
        below_top = sum(r < n for r, n in degrees)
        assert calls == {"evaluate": 4 * len(degrees),
                         "comass": 4 * (2 * len(degrees) + below_top),
                         "d": 4 * below_top}
