"""Simplicial chains as currents: evaluation, boundary, mass, the current
expression algebra, and serialization."""

import gc
import json
import weakref
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from currentkit import chains
from currentkit.chains import (Boundary, Chain, Current, Leaf, Sum, VWedge,
                               _unit_tangents, boundary, evaluate, mass_chain,
                               triangle_chain, unit_interval_chain,
                               unit_square_chain)
from currentkit.complexes import SimplicialComplex, freudenthal_complex
from currentkit.exterior import MultiVector, pair, wedge
from currentkit.forms import (FormField, VectorField, contract,
                              exterior_derivative)
from currentkit.lipschitz import LipMap, pushforward_chain
from currentkit.motion import make_motion, reynolds_operator
from currentkit.polynomial import Polynomial
from currentkit.quadrature import (grundmann_moller, simplex_volumes,
                                   subdivide_barycentric)
from oracles import (chain_from_records, evaluate_with_error,
                     interval_product_evaluate, perm_sign, radial_stretch)
from test_cli import _load_perfbench


def _tet():
    return Chain(np.vstack([np.zeros(3), np.eye(3)])[None], [1.0])


def _pairs(chain):
    """Each simplex's vertices (r+1, n) with its multiplicity, in chain
    order."""
    verts, mults = chain.stacked()
    return list(zip(verts, mults.tolist()))


class TestSimplex:
    """One simplex: its volume, orienting tangent and orientation sign."""

    def test_volume_and_tangent(self):
        seg = Chain([[[0.0, 0.0], [2.0, 0.0]]], [1.0])
        assert mass_chain(seg) == pytest.approx(2.0)
        np.testing.assert_allclose(_unit_tangents(seg.stacked()[0]),
                                   [[1.0, 0.0]])
        dx = FormField.from_polynomials(2, 1, {(0,): 1.0})
        assert evaluate(seg, dx) == pytest.approx(2.0)

    def test_orientation_sign_flips_tangent(self):
        # orientation is vertex order: the reversed segment has the
        # opposite tangent, and a chain on it the negated multiplicity
        verts = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        np.testing.assert_allclose(_unit_tangents(verts), [[-1.0, 0.0]])
        dx = FormField.from_polynomials(2, 1, {(0,): 1.0})
        assert evaluate(Chain(verts, [1.0]), dx) == pytest.approx(-2.0)
        assert evaluate(Chain(verts, [-1.0]), dx) == pytest.approx(2.0)

    def test_simplify_merges_opposite_orientations(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert len(Chain([a, b], [1.0, 1.0]).simplify()) == 0
        # the representative lists the vertices sorted, an odd
        # permutation of a's order, so a's orientation reads -1
        ((v, m),) = _pairs(Chain([a, b], [1.0, -1.0]).simplify())
        np.testing.assert_array_equal(v, a[[0, 2, 1]])
        assert m == -2.0


class TestConstructor:
    def test_degree_and_ambient_come_from_the_arrays(self):
        for r, n in _SHAPES:
            empty = Chain(np.zeros((0, r + 1, n)), [])
            assert (empty.degree, empty.ambient, len(empty)) == (r, n, 0)
            assert empty.table.shape == (0, n)
            assert empty.ids.shape == (0, r + 1)
            zeroed = Chain(np.ones((2, r + 1, n)), [0.0, 0.0])
            assert (zeroed.degree, zeroed.ambient, len(zeroed)) == (r, n, 0)
        T = boundary(unit_square_chain())
        assert (T.degree, T.ambient) == (1, 2)
        with pytest.raises(AttributeError):
            T.degree = 2

    @pytest.mark.parametrize("verts,mults", [
        (np.zeros((2, 2)), [1.0, 1.0]),             # one simplex, not a stack
        (np.zeros((1, 2, 2, 2)), [1.0]),            # 4-D
        (np.zeros((2, 2, 2)), [1.0]),               # too few multiplicities
        (np.zeros((1, 2, 2)), [1.0, 2.0]),          # too many
        (np.zeros((1, 2, 2)), [[1.0]]),             # multiplicities not 1-D
        (np.zeros((1, 0, 2)), [1.0]),               # no vertices
        (np.zeros((1, 2, 0)), [1.0]),               # no coordinates
        (np.zeros((0, 2, 2)), np.zeros((0, 1))),
    ])
    def test_rejects_bad_shapes(self, verts, mults):
        with pytest.raises(ValueError, match="shape"):
            Chain(verts, mults)


class TestEvaluation:
    def test_segment_against_dx(self):
        seg = unit_interval_chain(2)
        dx = FormField.from_polynomials(2, 1, {(0,): 1.0})
        assert evaluate(seg, dx) == pytest.approx(1.0)

    def test_segment_against_x_dx(self):
        seg = unit_interval_chain(1)
        x = Polynomial.variable(0, 1)
        phi = FormField.from_polynomials(1, 1, {(0,): x})
        assert evaluate(seg, phi) == pytest.approx(0.5)

    def test_square_area(self):
        sq = unit_square_chain()
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        assert evaluate(sq, area) == pytest.approx(1.0)

    def test_orientation_reversal_negates(self):
        sq = unit_square_chain()
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        assert evaluate(sq * -1.0, area) == pytest.approx(-1.0)

    def test_subdivision_preserves_value(self):
        rng = np.random.default_rng(0)
        sq = unit_square_chain()
        phi = FormField.random_polynomial(2, 2, rng, max_degree=3)
        v0 = evaluate(sq, phi)
        v2 = evaluate(sq.subdivided(2), phi)
        assert v2 == pytest.approx(v0, abs=1e-12)

    def test_degree_mismatch_raises(self):
        sq = unit_square_chain()
        phi = FormField.from_polynomials(2, 1, {(0,): 1.0})
        with pytest.raises(ValueError):
            evaluate(sq, phi)

    def test_richardson_error_estimate(self):
        sq = unit_square_chain()
        phi = FormField.from_callable(
            2, 2,
            lambda p: (np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))[:, None])
        val, err = evaluate_with_error(sq, phi)
        exact = (1 - np.cos(3.0)) / 3.0 * np.sin(2.0) / 2.0
        assert val == pytest.approx(exact, abs=1e-4)
        assert abs(val - exact) <= 50 * err + 1e-12


class TestBoundary:
    def test_square_perimeter(self):
        b = boundary(unit_square_chain())
        assert mass_chain(b) == pytest.approx(4.0)
        # the interior diagonal must cancel
        assert len(b) == 4

    def test_boundary_of_boundary_triangle(self):
        bb = boundary(boundary(triangle_chain()))
        assert len(bb) == 0

    def test_boundary_of_boundary_tet(self):
        bb = boundary(boundary(_tet()))
        assert len(bb) == 0

    def test_adjointness(self):
        rng = np.random.default_rng(1)
        T = _tet()
        phi = FormField.random_polynomial(3, 2, rng, max_degree=3)
        lhs = evaluate(boundary(T), phi)
        rhs = evaluate(T, exterior_derivative(phi))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-7, 1e-8, 1e3, 1e5, 1e8])
    def test_stokes_at_small_scale(self, scale):
        # the square is pushed forward by a scaling, then checked: neither
        # step may call its simplices degenerate at this scale, and the
        # boundary keeps exactly the outer faces
        rng = np.random.default_rng(6)
        shrink = LipMap.affine(scale * np.eye(2), [0.3 * scale, -scale])
        S = pushforward_chain(shrink, unit_square_chain(), levels=1)
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        assert evaluate(S, area) == pytest.approx(scale ** 2, rel=1e-12)
        phi = FormField.random_polynomial(2, 1, rng, max_degree=3)
        assert len(boundary(S)) == 8
        lhs = evaluate(boundary(S), phi)
        rhs = evaluate(S, exterior_derivative(phi))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_multiplicity_scales_boundary(self):
        T = triangle_chain() * 3.0
        b = boundary(T)
        assert mass_chain(b) == pytest.approx(3.0 * (2 + np.sqrt(2.0)))


class TestMass:
    def test_square_mass(self):
        assert mass_chain(unit_square_chain()) == pytest.approx(1.0)

    def test_mass_weighted_by_multiplicity(self):
        assert mass_chain(unit_square_chain() * -2.5) == pytest.approx(2.5)


class TestCurrentAlgebra:
    def test_vwedge_adjoint_to_contract(self):
        rng = np.random.default_rng(2)
        b = boundary(unit_square_chain())
        v = VectorField.random_polynomial(2, rng)
        phi = FormField.random_polynomial(2, 2, rng)
        lhs = evaluate(VWedge(v, Leaf(b)), phi)
        rhs = evaluate(b, contract(phi, v))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_sum(self):
        sq = unit_square_chain()
        phi = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        expr = Sum([Leaf(sq * 2.0), Leaf(sq * -0.5)])
        assert evaluate(expr, phi) == pytest.approx(1.5)

    def test_boundary_node_matches_chain_boundary(self):
        rng = np.random.default_rng(3)
        sq = unit_square_chain()
        phi = FormField.random_polynomial(2, 1, rng, max_degree=2)
        assert evaluate(Boundary(Leaf(sq)), phi) == pytest.approx(
            evaluate(boundary(sq), phi), abs=1e-12)

    def test_vwedge_degree_overflow(self):
        v = VectorField.constant([1.0, 0.0])
        with pytest.raises(ValueError):
            VWedge(v, Leaf(unit_square_chain()))

    def test_mixed_degree_sum_raises(self):
        sq = unit_square_chain()
        with pytest.raises(ValueError, match="mixed degrees"):
            Sum([Leaf(sq), Boundary(Leaf(sq))])

    def test_empty_sum_raises(self):
        with pytest.raises(ValueError,
                           match="^an empty sum of currents has no degree$"):
            Sum([])

    def test_a_chain_is_a_current(self):
        # a chain enters every expression as it stands, each reading the
        # same bits as on the chain's Leaf
        rng = np.random.default_rng(5)
        T = Chain(rng.uniform(size=(4, 2, 2)), rng.normal(size=4))
        neg = -T
        v = VectorField.random_polynomial(2, rng, max_degree=2)
        phis = [FormField.random_polynomial(2, r, rng, max_degree=2)
                for r in range(3)]
        assert isinstance(T, Current)
        assert T(phis[1]).hex() == Leaf(T)(phis[1]).hex()
        for bare, leaf in [
                (Boundary(T), Boundary(Leaf(T))),
                (VWedge(v, T), VWedge(v, Leaf(T))),
                (Sum([T, neg]), Sum([Leaf(T), Leaf(neg)])),
                (reynolds_operator(v, T), reynolds_operator(v, Leaf(T)))]:
            phi = phis[bare.degree]
            assert evaluate(bare, phi).hex() == evaluate(leaf, phi).hex()


class TestFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        verts[0, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite chain vertex"):
            Chain(verts, [1.0])

    def test_pushforward_by_nan_map_raises(self):
        # the map is NaN on part of the square: the pushforward itself
        # raises, before anything evaluates, saves or loads the image
        def f(x):
            y = x.copy()
            y[x[:, 0] > 0.5, 0] = np.nan
            return y

        with pytest.raises(ValueError, match="non-finite map images"):
            pushforward_chain(LipMap(2, f), unit_square_chain(), levels=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplicity_rejected(self, bad):
        verts = triangle_chain().stacked()[0]
        with pytest.raises(ValueError, match="non-finite"):
            Chain(verts, [bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_table_rejected(self, bad):
        obj = unit_square_chain().to_json_obj()
        obj["vertex_table"][2][1] = bad
        with pytest.raises(ValueError, match="vertex_table"):
            Chain.from_json_obj(obj)


class TestSubdivisionLevels:
    @pytest.mark.parametrize("levels", [-1, True, 1.5, "2"])
    def test_non_whole_levels_rejected(self, levels):
        # unchecked, -1 returned the chain as it was, True subdivided once
        # and 1.5 was a TypeError from range
        point = Chain([[[0.5, 0.5]]], [1.0])
        for T in (unit_square_chain(), point):
            with pytest.raises(ValueError, match="^levels must be a whole "
                                                 "number >= 0"):
                T.subdivided(levels)
        f = make_motion("rotation", rate=0.3).map_at(1.0)
        with pytest.raises(ValueError, match="^levels must be a whole"):
            pushforward_chain(f, unit_square_chain(), levels=levels)

    def test_whole_levels_accepted(self):
        T = unit_square_chain()
        assert T.subdivided(0) is T
        assert len(T.subdivided(np.int64(2))) == len(T.subdivided(2)) == 32

    @pytest.mark.parametrize("levels", [
        11, 10 ** 6, pytest.param(10 ** 400, id="10**400"),
        pytest.param(10 ** 5000, id="10**5000")])
    def test_levels_beyond_the_size_cap_rejected(self, levels):
        # the square's 2 * 4^levels simplices: unchecked, 10 ** 6 levels
        # would subdivide until memory runs out, and 10 ** 400 overflowed
        # a float.  Levels 7 (32 768) is admitted, and an empty chain at
        # any level is itself.  An int of more than 4300 digits is named
        # by its digit count: written out, it raised Python's own
        # "Exceeds the limit (4300 digits)", which names no parameter
        shown = levels if levels < 10 ** 4300 else "an int of 5001 digits"
        T = unit_square_chain()
        assert len(T.subdivided(7)) == 32768
        empty = Chain(np.zeros((0, 3, 2)), [])
        assert empty.subdivided(10 ** 6) is empty
        with pytest.raises(ValueError, match=f"^levels {shown} asks for "
                                             f"more than 4194304 simplices"):
            T.subdivided(levels)
        f = make_motion("rotation").map_at(0.5)
        with pytest.raises(ValueError, match=f"^levels {shown} asks"):
            pushforward_chain(f, T, levels=levels)


class TestDerivedChains:
    """`boundary` and `Chain.subdivided` build their chain once per chain
    object, in a weak side table: not on the chain, not shared with an
    equal chain, one subdivision at a time, and gone with the chain."""

    def test_repeat_calls_return_the_same_object(self):
        T = unit_square_chain()
        assert boundary(T) is boundary(T) is boundary(Leaf(T))
        assert T.subdivided(3) is T.subdivided(3)
        assert T.subdivided(np.int64(3)) is T.subdivided(3)
        assert T.subdivided(2) is not T.subdivided(3)
        bt = boundary(T)
        assert bt.subdivided(2) is bt.subdivided(2)
        assert boundary(bt) is boundary(bt)
        for chain in (T, bt, T.subdivided(3)):
            evaluate(chain, FormField.from_polynomials(2, chain.degree, {}))
            assert set(vars(chain)) == {"table", "ids", "mults"}

    def test_a_chain_on_the_same_arrays_shares_no_entry(self):
        T = unit_square_chain()
        twin = Chain._of(T.table, T.ids, T.mults)
        for got, own in ((boundary(twin), boundary(T)),
                         (twin.subdivided(2), T.subdivided(2))):
            assert got is not own
            _assert_same_chain(got, _pairs(own))

    def test_entries_go_with_their_chain(self):
        gc.collect()
        before = len(chains._DERIVED)
        T = unit_square_chain()
        derived = [weakref.ref(boundary(T)), weakref.ref(T.subdivided(2))]
        key = weakref.ref(T)
        assert len(chains._DERIVED) == before + 1
        del T
        gc.collect()
        assert key() is None and len(chains._DERIVED) == before
        assert all(ref() is None for ref in derived)

    def test_one_geometry_per_chain_and_order(self, monkeypatch):
        # evaluate, without a Leaf, builds a chain object's geometry once
        # per order, whatever the form and however the order is written
        seen = []
        rule = chains.simplex_rule
        monkeypatch.setattr(chains, "simplex_rule",
                            lambda v, s=2: seen.append(s) or rule(v, s))
        T = unit_square_chain()
        rng = np.random.default_rng(6)
        forms = [FormField.random_polynomial(2, 2, rng, max_degree=2)
                 for _ in range(3)]
        for s_order in (2, 0, 2, np.int64(2), 0):
            for phi in forms:
                evaluate(T, phi, s_order)
        assert [T(phi) for phi in forms] == [evaluate(T, phi)
                                             for phi in forms]
        assert seen == [2, 0]
        assert set(chains._DERIVED[T]) == {("geometry", 0), ("geometry", 2)}
        evaluate(Chain._of(T.table, T.ids, T.mults), forms[0])
        assert seen == [2, 0, 2]

    def test_geometry_goes_with_its_chain(self):
        # T's geometry, and that of its boundary, which T's entry holds
        gc.collect()
        before = len(chains._DERIVED)
        T = unit_square_chain()
        rng = np.random.default_rng(7)
        evaluate(T, FormField.random_polynomial(2, 2, rng))
        evaluate(boundary(T), FormField.random_polynomial(2, 1, rng))
        held = [weakref.ref(chains._DERIVED[chain]["geometry", 2].points)
                for chain in (T, boundary(T))]
        assert len(chains._DERIVED) == before + 2
        del T
        gc.collect()
        assert len(chains._DERIVED) == before
        assert all(ref() is None for ref in held)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_order_is_checked_on_every_call(self, bad):
        # a fresh chain, an empty one and a Leaf raise for an order of 2.0
        # or True, and so do they where the geometry at orders 1 and 2,
        # which those equal, is held
        x = Polynomial.variable(0, 2)
        phi = FormField.from_polynomials(2, 2, {(0, 1): x})
        T = unit_square_chain()
        empty = Chain(np.zeros((0, 3, 2)), [])
        for _ in range(2):
            for current in (T, empty, Leaf(T)):
                with pytest.raises(ValueError, match="^quadrature order must "
                                                     "be a whole number >= 0"):
                    evaluate(current, phi, bad)
            assert evaluate(T, phi, 1) == pytest.approx(0.5, abs=1e-15)
            assert evaluate(T, phi, 2) == pytest.approx(0.5, abs=1e-15)
        assert set(chains._DERIVED[T]) == {("geometry", 1), ("geometry", 2)}

    def test_another_level_releases_the_last(self):
        T = unit_square_chain()
        bt = boundary(T)
        last = weakref.ref(T.subdivided(1))
        gc.collect()
        assert last() is not None
        work = T.subdivided(2)
        gc.collect()
        assert last() is None
        assert T.subdivided(2) is work and boundary(T) is bt

    def test_checks_run_on_every_call(self):
        # a level of 1 is held before True, which equals it
        T = unit_square_chain()
        T.subdivided(1)
        point = Chain([[[0.5, 0.5]]], [1.0])
        for _ in range(2):
            for levels in (-1, True, 1.5):
                with pytest.raises(ValueError, match="^levels must be a "
                                                     "whole number >= 0"):
                    T.subdivided(levels)
            with pytest.raises(ValueError, match="^levels 11 asks for more "
                                                 "than 4194304 simplices"):
                T.subdivided(11)
            with pytest.raises(ValueError, match="boundary undefined"):
                boundary(point)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        T = unit_square_chain().subdivided(1) * 2.0
        path = tmp_path / "chain.json"
        T.save(path)
        back = Chain.load(path)
        rng = np.random.default_rng(4)
        phi = FormField.random_polynomial(2, 2, rng)
        assert evaluate(back, phi) == pytest.approx(evaluate(T, phi),
                                                    abs=1e-12)
        assert mass_chain(back) == pytest.approx(mass_chain(T))

    def test_vertex_table_is_deduplicated(self):
        obj = unit_square_chain().to_json_obj()
        assert len(obj["vertex_table"]) == 4

    def test_sign_key_folds_into_the_multiplicity(self):
        obj = unit_square_chain().to_json_obj()
        assert all(set(rec) == {"vertices", "multiplicity"}
                   for rec in obj["simplices"])
        obj["simplices"][1]["sign"] = -1
        obj["simplices"][1]["multiplicity"] = 0.5
        T = Chain.from_json_obj(obj)
        assert T.mults.tolist() == [1.0, -0.5]
        for bad in (2, 0, -2.5, "-1", True, 1.0, -1.0):
            obj["simplices"][1]["sign"] = bad
            with pytest.raises(ValueError, match='"sign" must be'):
                Chain.from_json_obj(obj)

    @pytest.mark.parametrize("bad", [[0, -1], [0, 3], [0, 5], [0], [0, 1, 2],
                                     [0, 1.0], [0, True], [0, "1"], 1])
    def test_vertex_indices_are_checked(self, bad):
        # a negative index would wrap to the last table row, one past the
        # end would raise an IndexError
        obj = boundary(triangle_chain()).to_json_obj()
        assert len(obj["vertex_table"]) == 3
        obj["simplices"][1]["vertices"] = bad
        with pytest.raises(ValueError, match=r"simplex 1 of the chain: "
                                             r'"vertices" must be 2 '
                                             r"integers in range\(3\)"):
            Chain.from_json_obj(obj)

    @pytest.mark.parametrize("key,bad", [("degree", -1), ("degree", 1.0),
                                         ("degree", True), ("ambient", 0),
                                         ("ambient", "2")])
    def test_degree_and_ambient_are_checked(self, key, bad):
        obj = boundary(triangle_chain()).to_json_obj()
        obj[key] = bad
        with pytest.raises(ValueError, match=f'"{key}" .*an integer'):
            Chain.from_json_obj(obj)

    @pytest.mark.parametrize("key, bad, match", [
        ("simplices", {}, '"simplices" must be a list'),
        ("simplices", 3, '"simplices" must be a list'),
        ("vertex_table", {"a": [0, 0]}, '"vertex_table" must be a list of'),
        ("multiplicity", {}, '"multiplicity" must be a number'),
        ("multiplicity", [1], '"multiplicity" must be a number'),
        ("multiplicity", "1", '"multiplicity" must be a number'),
        ("multiplicity", True, '"multiplicity" must be a number'),
        ("multiplicity", -10 ** 400, '"multiplicity" must be finite'),
        ("vertex_table", [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
         '"vertex_table" must be a list of'),
        ("vertex_table", [[0, 0], [1, 0], [0, 1], [1, 10 ** 400]],
         '"vertex_table" must be a list of'),
        ("vertex_table", [[0, 0], [1, 0], [0, 1], [1, False]],
         '"vertex_table" must be a list of')])
    def test_simplices_vertex_table_and_multiplicity_are_checked(
            self, key, bad, match):
        # unchecked, a "simplices" that is not a list and a dict
        # vertex_table or multiplicity were each a TypeError, a "1" or
        # true multiplicity was read as 1.0, a vertex_table of strings was
        # read as numbers, an int beyond the float range was an
        # OverflowError, and a false in the vertex_table was read as 0
        obj = unit_square_chain().to_json_obj()
        (obj["simplices"][0] if key == "multiplicity" else obj)[key] = bad
        with pytest.raises(ValueError, match=match):
            Chain.from_json_obj(obj)

    def test_unknown_simplex_key_refused(self):
        # unchecked, a misspelt "sgn" was ignored and the simplex kept its
        # multiplicity's sign
        obj = unit_square_chain().to_json_obj()
        obj["simplices"][1]["sgn"] = -1
        with pytest.raises(ValueError, match='^simplex 1 of the chain: '
                                             'unknown key "sgn"; '):
            Chain.from_json_obj(obj)
        # the records' rules in order: a record's missing key before its
        # unknown one, and an earlier record before a later one
        del obj["simplices"][1]["multiplicity"]
        with pytest.raises(ValueError, match='^simplex 1 of the chain lacks '
                                             '"multiplicity"$'):
            Chain.from_json_obj(obj)
        obj["simplices"][0]["multiplicity"] = "1"
        with pytest.raises(ValueError, match='^simplex 0 of the chain: '
                                             '"multiplicity" must be a num'):
            Chain.from_json_obj(obj)

    @staticmethod
    def _random_file(rng) -> dict:
        """A valid chain object: repeated and unused table rows, repeated
        indices within a simplex, lists and tuples of indices, int, float,
        zero and numpy multiplicities, and signs given or not."""
        degree = int(rng.integers(0, 3))
        ambient = int(rng.integers(max(degree, 1), 4))
        size = int(rng.integers(1, 9))
        table = (rng.integers(-2, 3, (size, ambient)) * 0.5).tolist()
        records = []
        for _ in range(int(rng.integers(0, 25))):
            row = rng.integers(0, size, degree + 1).tolist()
            mult = [1, -2, 0, 0.25, -1.5, np.float64(3.0), np.int64(-1)][
                int(rng.integers(0, 7))]
            rec = {"vertices": tuple(row) if rng.random() < 0.2 else row,
                   "multiplicity": mult}
            if rng.random() < 0.4:
                rec["sign"] = int(rng.choice([-1, 1]))
            records.append(rec)
        return {"degree": degree, "ambient": ambient, "vertex_table": table,
                "simplices": records}

    @pytest.mark.parametrize("seed", range(4))
    def test_all_records_check_equals_the_record_loop(self, seed):
        # on valid files the same arrays, bit for bit; on files with one
        # to three broken fields, the same first error
        rng = np.random.default_rng(seed)
        bad_records = [3, None, [1], {}, {"vertices": [0]}]
        bad_fields = {
            "vertices": [[0] * 4, "ab", [True], [-1], [10 ** 30], [1.0],
                         [[0]], 7, None],
            "multiplicity": ["1", True, None, [1], float("nan"),
                             float("inf"), -10 ** 400],
            "sign": [0, 2, -2, True, 1.0, "1", [1], None]}
        for _ in range(100):
            obj = self._random_file(rng)
            records = obj["simplices"]
            for _ in range(int(rng.integers(0, 4)) if records else 0):
                k = int(rng.integers(0, len(records)))
                field = str(rng.choice(["record", *bad_fields, "drop"]))
                if field == "record":
                    records[k] = bad_records[int(rng.integers(0, 5))]
                elif not isinstance(records[k], dict):
                    continue
                elif field == "drop":
                    records[k].pop(str(rng.choice(["vertices",
                                                   "multiplicity"])), None)
                else:
                    choices = bad_fields[field]
                    records[k][field] = choices[int(rng.integers(
                        0, len(choices)))]
            try:
                want = chain_from_records(obj)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    Chain.from_json_obj(obj)
                assert str(got.value) == str(err)
                continue
            self._assert_same_arrays(Chain.from_json_obj(obj), want)

    def test_empty_chain_round_trips(self):
        obj = Chain(np.zeros((0, 2, 3)), []).to_json_obj()
        assert obj["vertex_table"] == [] and obj["simplices"] == []
        back = Chain.from_json_obj(obj)
        assert (back.degree, back.ambient, len(back)) == (1, 3, 0)

    @staticmethod
    def _assert_same_arrays(got, want):
        for a, b in zip((got.table, got.ids, got.mults),
                        (want.table, want.ids, want.mults)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("first, zero",
                             [(2, None), (0, None), (0, 2), (2, 0)])
    def test_a_point_listed_twice_keeps_the_row_used_first(self, first, zero):
        # (0.0, 1.0) and (-0.0, 1.0) are one vertex; the table keeps the
        # row of the simplex that uses it first, not the first row of the
        # file, and a zero multiplicity uses no row
        rows = [first, 2 - first]
        obj = {"degree": 1, "ambient": 2,
               "vertex_table": [[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]],
               "simplices": [{"vertices": [1, rows[0]], "multiplicity": 1},
                             {"vertices": [rows[1], 1], "multiplicity": 1}]}
        if zero is not None:
            obj["simplices"].insert(0, {"vertices": [zero, 1],
                                        "multiplicity": 0})
        T = Chain.from_json_obj(obj)
        assert T.table.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert np.signbit(T.table[0, 0]) == (first == 2)
        self._assert_same_arrays(T, chain_from_records(obj))

    @pytest.mark.parametrize("seed", [42, 31337])
    def test_flatgrid_files_build_the_stacked_chain(self, tmp_path, seed):
        workloads = _load_perfbench("workloads")
        workloads.write_flatgrid(seed, str(tmp_path))
        paths = sorted(tmp_path.glob("*_chain.json"))
        assert len(paths) == 6
        for path in paths:
            obj = json.loads(path.read_text())
            self._assert_same_arrays(Chain.from_json_obj(obj),
                                     chain_from_records(obj))


class TestIntervalProduct:
    def test_product_with_time_form(self):
        # omega = t dt^dx over [0,1] x (unit segment): integral = 1/2
        t = Polynomial.variable(0, 2)
        omega = FormField.from_polynomials(2, 2, {(0, 1): t})
        seg = unit_interval_chain(1)
        val = interval_product_evaluate((0.0, 1.0), seg, omega)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_purely_spatial_part_ignored(self):
        # omega = dx1^dx2 has no dt part; the product pairing vanishes
        omega = FormField.from_polynomials(3, 2, {(1, 2): 1.0})
        seg = unit_interval_chain(2)
        val = interval_product_evaluate((0.0, 1.0), seg, omega)
        assert val == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# batched kernels against the per-simplex loops they replaced
# ----------------------------------------------------------------------

def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _loop_wedge(a, b):
    """The wedge term loop, one pair of multi-indices at a time."""
    p, q, n = a.degree, b.degree, a.ambient
    out = np.zeros(comb(n, p + q))
    ranks = {idx: k for k, idx in enumerate(combinations(range(n), p + q))}
    ca, cb = a.coefficients, b.coefficients
    for i, la in enumerate(combinations(range(n), p)):
        if ca[i] == 0.0:
            continue
        for j, lb in enumerate(combinations(range(n), q)):
            if cb[j] == 0.0 or set(la) & set(lb):
                continue
            inversions = sum(1 for x in la for y in lb if x > y)
            sign = -1 if inversions % 2 else 1
            out[ranks[tuple(sorted(la + lb))]] += sign * ca[i] * cb[j]
    return MultiVector(p + q, n, out)


def _loop_tangent(v):
    edges = (v[1:] - v[0]).T
    xi = MultiVector.from_vector(edges[:, 0])
    for j in range(1, edges.shape[1]):
        xi = _loop_wedge(xi, MultiVector.from_vector(edges[:, j]))
    m = xi.norm()
    if m <= 1e-13 * np.prod(np.linalg.norm(edges, axis=0)):
        raise ValueError("degenerate simplex: vertices affinely dependent")
    return xi * (1.0 / m)


def _loop_volume(v):
    r = v.shape[0] - 1
    if r == 0:
        return 1.0
    edges = v[1:] - v[0]
    det = np.linalg.det(edges @ edges.T)
    return float(np.sqrt(max(det, 0.0)) / factorial(r))


def _loop_subdivided(chain, levels):
    """(vertices, multiplicity) of every child, parent-major, by the
    coordinate kernel `subdivide_barycentric`: each child's vertices from
    its parent's alone, its multiplicity the parent's times the child's
    orientation relative to it."""
    out = []
    for v, m in _pairs(chain):
        current = [(v, m)]
        for _ in range(levels):
            current = [(child, mult * csign) for verts, mult in current
                       for child, csign in subdivide_barycentric(verts)]
        out += current
    return out


def _loop_evaluate(chain, phi, s_order, subdivision):
    total = 0.0
    for v, mult in _pairs(chain.subdivided(subdivision)):
        if v.shape[0] == 1:
            tangent = MultiVector(0, v.shape[1], np.array([1.0]))
            total += mult * pair(phi(v[0]), tangent)
            continue
        tangent = _loop_tangent(v)
        bary, w = grundmann_moller(v.shape[0] - 1, s_order)
        pts, wts = bary @ v, w * _loop_volume(v)
        total += mult * float(phi.coefficients_at(pts)
                              @ tangent.coefficients @ wts)
    return total


def _loop_pushforward(f, chain, levels):
    out = []
    for v, mult in _pairs(chain.subdivided(levels)):
        image = np.stack([f(x) for x in v])
        r = v.shape[0] - 1
        edges = image[1:] - image[0]
        if r and (factorial(r) * _loop_volume(image)
                  <= 1e-13 * np.prod(np.linalg.norm(edges, axis=1))):
            raise ValueError("degenerate image simplex in pushforward")
        out.append((image, mult))
    return out


# largest coordinate error allowed of a midpoint computed as (a + b) / 2
# against the coordinate kernel's a + sum of half edges, per level, in ulps
# of the chain's largest coordinate (1 is the worst seen on the random
# chains of test_subdivision at levels 1-3)
_SUBDIVISION_ULPS = 2


_SHAPES = [(r, n) for r in range(4) for n in range(max(r, 1), 4)]


def _random_chain(rng, r, n, count=5):
    verts, mults = np.zeros((count, r + 1, n)), np.zeros(count)
    for k in range(count):
        verts[k] = rng.normal(size=(r + 1, n)) * rng.uniform(0.1, 3.0) \
            + rng.normal(size=n)
        sign = rng.choice([-1.0, 1.0])
        mults[k] = sign * rng.normal()
    return Chain(verts, mults)


def _random_forms(rng, r, n):
    """A polynomial form with non-integer coefficients and a callable one."""
    polys = {}
    for idx in combinations(range(n), r):
        terms = {tuple(rng.integers(0, 3, n)): rng.normal() for _ in range(4)}
        polys[idx] = Polynomial(n, terms)
    weights = rng.normal(size=(comb(n, r), n))
    shifts = rng.normal(size=comb(n, r))

    def func(x, weights=weights, shifts=shifts):
        # elementwise and row-wise reductions only: each row's value does
        # not depend on the other rows of the batch
        return (np.sin((x[:, None, :] * weights).sum(axis=2) + shifts)
                * (1.0 + (x * x).sum(axis=1))[:, None])

    return (FormField.from_polynomials(n, r, polys),
            FormField.from_callable(n, r, func))


def _random_maps(rng, n):
    maps = [LipMap.affine(rng.normal(size=(n, n)) + 2.0 * np.eye(n),
                          rng.normal(size=n)),
            make_motion("rotation", rate=0.7).map_at(1.0) if n == 2
            else LipMap.affine(1.5 * np.eye(n)),
            radial_stretch(n, 0.3)]
    if n >= 2:
        maps.append(make_motion("tent", n, center=0.1, width=1.5,
                                amplitude=0.4).map_at(1.0))
    return maps


class TestBatchedKernels:
    """Batched evaluation and pushforward equal the per-simplex loops bit
    for bit; subdivision equals the coordinate kernel bit for bit on
    dyadic coordinates and within `_SUBDIVISION_ULPS` per level
    otherwise."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wedge_matches_term_loop(self, n):
        rng = np.random.default_rng(n)
        for p in range(n + 1):
            for q in range(n + 1 - p):
                for _ in range(3):
                    ca = rng.normal(size=comb(n, p))
                    cb = rng.normal(size=comb(n, q))
                    ca[rng.random(ca.size) < 0.3] = 0.0
                    a, b = MultiVector(p, n, ca), MultiVector(q, n, cb)
                    assert (_bits(wedge(a, b).coefficients)
                            == _bits(_loop_wedge(a, b).coefficients))

    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_tangent_and_volume(self, r, n):
        rng = np.random.default_rng(10 * r + n)
        verts = _random_chain(rng, r, n, count=20).stacked()[0]
        volumes = simplex_volumes(verts)
        tangents = _unit_tangents(verts)
        for k, v in enumerate(verts):
            assert _bits(volumes[k]) == _bits(_loop_volume(v))
            if r:
                assert _bits(tangents[k]) == _bits(
                    _loop_tangent(v).coefficients)

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_subdivision(self, r, n, levels):
        # random coordinates are not dyadic: a midpoint (a + b) / 2 can
        # differ from the coordinate kernel's in the last bits
        rng = np.random.default_rng(100 * r + 10 * n + levels)
        T = _random_chain(rng, r, n)
        want = _loop_subdivided(T, levels)
        got = T.subdivided(levels)
        assert len(got) == len(want) == len(T) * 2 ** (r * levels)
        ulp = np.spacing(np.abs(T.table).max())
        for (u, m), (v, mult) in zip(_pairs(got), want):
            np.testing.assert_allclose(
                u, v, rtol=0, atol=_SUBDIVISION_ULPS * levels * ulp)
            assert m == mult

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dyadic_subdivision_is_bit_exact(self, n, levels):
        # on dyadic coordinates both ways of computing a midpoint are exact
        comp = freudenthal_complex([-1.0] * n, [0.5] * n, 2)
        for r in range(1, n + 1):
            T = comp.simplex_chain(r, np.linspace(-1.0, 1.0,
                                                  comp.n_simplices(r)))
            _assert_same_chain(T.subdivided(levels),
                               _loop_subdivided(T, levels))

    @pytest.mark.parametrize("levels", [5, 7])
    def test_unit_square_subdivision_is_bit_exact(self, levels):
        for T in (unit_square_chain(), boundary(unit_square_chain())):
            _assert_same_chain(T.subdivided(levels),
                               _loop_subdivided(T, levels))

    def test_subdivision_shares_midpoints(self):
        # conforming: one midpoint per edge, whichever simplices share it
        for levels in range(4):
            T = unit_square_chain().subdivided(levels)
            assert len(T.table) == (2 ** levels + 1) ** 2
            assert len(boundary(T)) == 4 * 2 ** levels
        tet = _tet().subdivided(2)
        assert len(tet.table) == 35 and len(boundary(boundary(tet))) == 0

    @pytest.mark.parametrize("subdivision", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_evaluate(self, r, n, subdivision):
        rng = np.random.default_rng(1000 + 100 * r + 10 * n + subdivision)
        T = _random_chain(rng, r, n)
        for phi in _random_forms(rng, r, n):
            for s_order in (0, 2):
                got = evaluate(T.subdivided(subdivision), phi, s_order)
                assert _bits(got) == _bits(
                    _loop_evaluate(T, phi, s_order, subdivision))

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_pushforward(self, r, n, levels):
        rng = np.random.default_rng(2000 + 100 * r + 10 * n + levels)
        T = _random_chain(rng, r, n, count=3)
        for f in _random_maps(rng, n):
            got = pushforward_chain(f, T, levels=levels)
            want = _loop_pushforward(f, T, levels)
            assert len(got) == len(want)
            for (u, m), (v, mult) in zip(_pairs(got), want):
                assert _bits(u) == _bits(v)
                assert m == mult

    def test_degenerate_simplex_raises(self):
        flat = Chain([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]], [1.0])
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="degenerate simplex"):
            evaluate(flat, area)
        with pytest.raises(ValueError, match="degenerate image"):
            pushforward_chain(LipMap.identity(2), flat)
        # the rule is scale-free: flat stays flat at any scale
        for scale in (1e-8, 1e8):
            scaled = Chain(flat.stacked()[0] * scale, [1.0])
            with pytest.raises(ValueError, match="degenerate simplex"):
                evaluate(scaled, area)
            with pytest.raises(ValueError, match="degenerate image"):
                pushforward_chain(LipMap.affine(scale * np.eye(2)), flat)
        squash = LipMap.affine(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="degenerate image"):
            pushforward_chain(squash, unit_square_chain(), levels=1)

    def test_empty_chain_evaluates_to_zero(self):
        rng = np.random.default_rng(5)
        for r in (0, 1, 2):
            for phi in _random_forms(rng, r, 2):
                empty = Chain(np.zeros((0, r + 1, 2)), [])
                assert evaluate(empty, phi) == 0.0
                assert evaluate(empty.subdivided(2), phi) == 0.0


def _loop_key(vertices):
    """The exact-coordinate key of a simplex (a tuple of Python floats, so
    -0.0 and 0.0 are one key) and its orientation relative to the
    vertex-sorted representative."""
    rows = [tuple(row.tolist()) for row in vertices]
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    return tuple(rows[i] for i in order), perm_sign(order)


def _loop_simplify(simplices):
    """Per-simplex dict merge of (vertices, multiplicity) pairs; each
    vertex is represented by the row of its first occurrence.  A merged
    simplex drops when |sum| <= 1e-12 times the sum of the absolute
    multiplicities merged into it."""
    acc, size, first_row = {}, {}, {}
    for verts, mult in simplices:
        key, rel = _loop_key(verts)
        acc[key] = acc.get(key, 0.0) + rel * mult
        size[key] = size.get(key, 0.0) + abs(mult)
        for row in verts:
            first_row.setdefault(tuple(row.tolist()), row)
    return [(np.array([first_row[v] for v in k]), c)
            for k, c in acc.items() if abs(c) > 1e-12 * size[k]]


def _loop_boundary(chain):
    faces = []
    r = chain.degree
    for v, m in _pairs(chain):
        for i in range(r + 1):
            keep = [j for j in range(r + 1) if j != i]
            faces.append((v[keep], m * (-1 if i % 2 else 1)))
    return _loop_simplify(faces)


def _assert_same_chain(got, want):
    assert len(got) == len(want)
    for (u, m), (v, mult) in zip(_pairs(got), want):
        assert _bits(u) == _bits(v)
        assert _bits(m) == _bits(mult)


def _skeleton_chain(rng, r, n, scale, resolution=2):
    """Random signed, fractional multiplicities on the r-simplices of a
    Freudenthal box in R^n, rotated, scaled by `scale` and shifted."""
    comp = freudenthal_complex([0.0] * n, [1.0] * n, resolution)
    coeffs = rng.choice([-1.0, 1.0, 0.5, -2.25, 1.0 / 3.0],
                        comp.n_simplices(r))
    T = comp.simplex_chain(r, coeffs)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    verts, mults = T.stacked()
    moved = (verts @ q.T + rng.normal(size=n)) * scale
    return Chain(moved, mults)


def _with_permuted_copy(rng, T):
    """T plus a scaled copy of itself whose simplices list their vertices
    in a random order, so that simplices merge and cancel."""
    verts, mults = T.stacked()
    perm = rng.permutation(T.degree + 1)
    copy = Chain(verts[:, perm], mults * rng.choice([-1.0, 0.75]))
    return T + copy


_MERGE_SHAPES = [(r, n) for r in range(1, 4) for n in range(r, 4)]
_SCALES = [1e-8, 1e-3, 1.0, 1e3, 1e7]


class TestArrayChains:
    """Boundary, simplify and mass on the chain's arrays equal the
    per-face dict merge and the per-simplex sum bit for bit, and a chain
    is its read-only arrays alone."""

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("r,n", _MERGE_SHAPES)
    def test_boundary_and_simplify(self, r, n, scale):
        rng = np.random.default_rng(int(100 * r + 10 * n + np.log10(scale)))
        T = _skeleton_chain(rng, r, n, scale)
        _assert_same_chain(boundary(T), _loop_boundary(T))
        doubled = _with_permuted_copy(rng, T)
        _assert_same_chain(doubled.simplify(),
                           _loop_simplify(_pairs(doubled)))
        _assert_same_chain(boundary(doubled), _loop_boundary(doubled))

    @pytest.mark.parametrize("r,n", _MERGE_SHAPES)
    def test_random_simplices(self, r, n):
        rng = np.random.default_rng(50 + 10 * r + n)
        T = _random_chain(rng, r, n, count=20)
        _assert_same_chain(boundary(T), _loop_boundary(T))
        _assert_same_chain(T.simplify(), _loop_simplify(_pairs(T)))

    def test_freudenthal_3d(self):
        comp = freudenthal_complex([0.0] * 3, [1.0] * 3, 3)
        T = comp.full_chain()
        bt = boundary(T)
        _assert_same_chain(bt, _loop_boundary(T))
        assert len(bt) == 6 * 2 * 3 ** 2
        assert len(boundary(bt)) == 0
        assert len(boundary(boundary(bt))) == 0

    @pytest.mark.parametrize("n,res,seed", [(2, 8, 1), (3, 3, 0)])
    def test_boundary_is_scale_free(self, n, res, seed):
        # real multiplicities at any scale: the boundary keeps the same
        # faces with the multiplicities scaled, and its boundary is empty
        comp = freudenthal_complex([0.0] * n, [1.0] * n, res)
        coeffs = np.random.default_rng(seed).standard_normal(
            comp.n_simplices(n))
        unit = boundary(comp.simplex_chain(n, coeffs))
        for scale in (1e-13, 1e-8, 1e-3, 1.0, 1e4, 1e6, 1e8):
            bt = boundary(comp.simplex_chain(n, coeffs * scale))
            np.testing.assert_array_equal(bt.ids, unit.ids)
            np.testing.assert_allclose(bt.mults / scale, unit.mults,
                                       rtol=0, atol=1e-14)
            assert len(boundary(bt)) == 0

    def test_negative_zero_is_one_vertex(self):
        # the shared edge's end reads (-0.0, 0.0) in one triangle and
        # (0.0, 0.0) in the other: equal coordinates, one vertex, and the
        # first occurrence's row, -0.0 included, represents it
        a = np.array([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        T = Chain([a, b], [1.0, 1.0])
        assert len(T.table) == 4
        bt = boundary(T)
        _assert_same_chain(bt, _loop_boundary(T))
        assert len(bt) == 4
        assert any(np.signbit(v).any() and 0.0 in v for v, _ in _pairs(bt))
        merged = Chain([a[[0, 1]], [[1.0, 0.0], [0.0, 0.0]]], [1.0, 1.0])
        assert len(merged.simplify()) == 0
        # coordinates that agree to 10 decimals only are two vertices: the
        # edge does not cancel
        a[0, 0] = -1e-12
        T = Chain([a, b], [1.0, 1.0])
        assert len(T.table) == 5 and len(boundary(T)) == 6

    def test_degenerate_faces_keep_stable_order(self):
        # equal rows: the sort keeps them in place
        rng = np.random.default_rng(7)
        for _ in range(20):
            base = rng.normal(size=(2, 3))
            verts = base[rng.integers(0, 2, size=4)]
            sign = rng.choice([-1.0, 1.0])
            T = Chain(verts[None], [sign * rng.normal()])
            _assert_same_chain(T.simplify(), _loop_simplify(_pairs(T)))
            _assert_same_chain(boundary(T), _loop_boundary(T))

    @pytest.mark.parametrize("r,n", _SHAPES)
    def test_mass(self, r, n):
        rng = np.random.default_rng(300 + 10 * r + n)
        for scale in _SCALES:
            T = _random_chain(rng, r, n, count=30) * scale
            want = sum(abs(m) * simplex_volumes(v[None])[0]
                       for v, m in _pairs(T))
            assert _bits(mass_chain(T)) == _bits(want)
        assert mass_chain(Chain(np.zeros((0, r + 1, n)), [])) == 0.0

    def test_vertex_table(self):
        # the table holds each distinct vertex once, in lexicographic
        # order; the simplices index into it
        T = _random_chain(np.random.default_rng(8), 2, 3)
        T = T + T.subdivided(1)
        want = T.stacked()[0].reshape(-1, 3)
        assert _bits(T.table[T.ids].reshape(-1, 3)) == _bits(want)
        assert _bits(T.table) == _bits(np.unique(want, axis=0))
        assert Chain(np.zeros((0, 2, 2)), []).table.shape == (0, 2)
        # rows no simplex uses any more leave the table
        assert len((T * 0.0).table) == 0
        assert len(boundary(unit_square_chain().subdivided(2)).table) == 16

    def test_stacked_arrays_refuse_writes(self):
        verts = np.array([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]]])
        stacked = Chain(verts, [2.0, -0.5])
        for T in (stacked, unit_square_chain(), Chain(verts[:0], []),
                  boundary(unit_square_chain()), stacked * 2.0):
            arrays = T.stacked()
            assert len(arrays) == 2 and arrays[1] is T.mults
            assert arrays[1].dtype == float and T.ids.dtype.kind == "i"
            for a in arrays + (T.table, T.ids):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
        verts[0, 0, 0] = 9.0  # the chain keeps its own copy
        assert stacked.stacked()[0][0, 0, 0] == 0.0
        assert stacked.mults.tolist() == [2.0, -0.5]

    def test_array_chains_build_no_simplices(self):
        # a chain is its four arrays; no operation stores another form
        T = unit_square_chain().subdivided(2)
        pushed = pushforward_chain(make_motion("tent").map_at(1.0), T,
                                   levels=1)
        area = FormField.from_polynomials(2, 2, {(0, 1): 1.0})
        evaluate(pushed, area)
        mass_chain(pushed)
        bt = boundary(pushed)
        assert len(pushed) == 2 * 4 ** 3 and len(bt) == 4 * 2 ** 3
        combined = (pushed - pushed * 0.5).simplify()
        for chain in (T, pushed, bt, combined):
            chain.stacked()
            chain.to_json_obj()
            assert set(vars(chain)) == {"table", "ids", "mults"}

    def test_arithmetic_matches_terms(self):
        rng = np.random.default_rng(9)
        a, b = _random_chain(rng, 1, 2), _random_chain(rng, 1, 2)
        summed = a - b * 3
        want = _pairs(a) + [(v, -m * 3.0) for v, m in _pairs(b)]
        _assert_same_chain(summed, want)
        assert len(a * 0.0) == 0
        with pytest.raises(ValueError):
            a + _random_chain(rng, 2, 2)


def _loop_to_json_obj(chain):
    """A per-row dict loop that writes a chain's JSON object: one table row
    per exact coordinate tuple, in order of first occurrence."""
    vert_table, vert_index, simplices = [], {}, []
    for v, m in _pairs(chain):
        idxs = []
        for row in v:
            key = tuple(row.tolist())
            if key not in vert_index:
                vert_index[key] = len(vert_table)
                vert_table.append([float(x) for x in row])
            idxs.append(vert_index[key])
        simplices.append({"vertices": idxs, "multiplicity": m})
    return {"degree": chain.degree, "ambient": chain.ambient,
            "vertex_table": vert_table, "simplices": simplices}


def _loop_vertex(comp, row):
    """The complex vertex of a point, one coordinate at a time: on a
    lattice the grid vertex within 1e-6 cell widths, else the vertex with
    exactly its coordinates; None where there is none."""
    if comp.lattice is None:
        lookup = {tuple(v.tolist()): i for i, v in enumerate(comp.vertices)}
        return lookup.get(tuple(row.tolist()))
    lower, h, cells = comp.lattice
    index = 0
    for x, lo, width in zip(row, lower, h):
        step = (x - lo) / width
        g = round(step)
        if abs(step - g) > 1e-6 or not 0 <= g <= cells:
            return None
        index = index * (cells + 1) + g
    return index


def _loop_chain_vector(comp, chain):
    """The per-row dict loop that gives a chain's coefficients over a
    complex."""
    rank = {s: k for k, s in enumerate(comp.simplices.get(chain.degree,
                                                          []))}
    vec = np.zeros(len(rank))
    for v, m in _pairs(chain):
        idxs = []
        for row in v:
            index = _loop_vertex(comp, row)
            if index is None:
                raise ValueError(f"vertex {row} not in complex")
            idxs.append(index)
        order = sorted(range(len(idxs)), key=lambda i: idxs[i])
        sorted_tuple = tuple(idxs[i] for i in order)
        if sorted_tuple not in rank:
            raise ValueError(f"simplex {sorted_tuple} not in complex")
        rel = perm_sign(order)
        vec[rank[sorted_tuple]] += rel * m
    return vec


def _complex_chains(rng, comp):
    """Chains on every skeleton of `comp`: fractional multiplicities, the
    same simplices again with their vertices in a random order (so that
    entries add up and cancel), subdivided once, and the boundary of the
    full chain; and the empty chain one degree above the complex, as the
    flat norm's S of a top-degree chain."""
    yield Chain(np.zeros((0, comp.dim + 2, comp.dim)), [])
    for r in range(comp.dim + 1):
        coeffs = rng.choice([-1.0, 1.0, 0.5, -2.25, 1.0 / 3.0, 0.0],
                            comp.n_simplices(r))
        T = comp.simplex_chain(r, coeffs)
        yield T
        yield _with_permuted_copy(rng, T)
        if r:
            yield T.subdivided(1)
    yield boundary(comp.full_chain())


class TestVertexRule:
    """`to_json_obj`, `chain_vector`, `volumes` and `simplex_chain` on
    arrays equal per-row loops, byte for byte."""

    @pytest.mark.parametrize("n,res,scale", [(2, 4, 1.0), (2, 3, 1e-3),
                                             (2, 3, 1e3), (3, 2, 1.0),
                                             (3, 2, 1e-3)])
    def test_complex_chains(self, n, res, scale):
        rng = np.random.default_rng(10 * n + res)
        comp = freudenthal_complex([0.0] * n, [scale] * n, res)
        fine = freudenthal_complex([0.0] * n, [scale] * n, 2 * res)
        # the same complex without its lattice: the exact vertex rule
        plain = SimplicialComplex(comp.vertices, comp.simplices[n],
                                  [comp.orientation[n][s]
                                   for s in comp.simplices[n]])
        for T in _complex_chains(rng, comp):
            assert json.dumps(T.to_json_obj()) == json.dumps(
                _loop_to_json_obj(T))
            for host in (comp, fine, plain):
                try:
                    want = _loop_chain_vector(host, T)
                except ValueError:
                    with pytest.raises(ValueError, match="not in complex"):
                        host.chain_vector(T)
                    continue
                assert _bits(host.chain_vector(T)) == _bits(want)
        for r in range(n + 1):
            assert _bits(comp.volumes(r)) == _bits(
                [simplex_volumes(comp.vertices[list(s)][None])[0]
                 for s in comp.simplices[r]])
            coeffs = rng.normal(size=comp.n_simplices(r))
            coeffs[rng.random(coeffs.size) < 0.3] = 0.0
            coeffs[0] = 1e-300 * scale  # only exact zeros drop
            want = [(comp.vertices[list(s)], c) for s, c in
                    zip(comp.simplices[r], coeffs) if c != 0.0]
            got = comp.simplex_chain(r, coeffs)
            assert len(got) == len(want)
            _assert_same_chain(got, want)

    def test_foreign_vertex_and_simplex_raise(self):
        comp = freudenthal_complex((0.0, 0.0), (1.0, 1.0), 2)
        off_grid = Chain([[[0.0, 0.0], [0.3, 0.0], [0.0, 0.5]]], [1.0])
        # every vertex is on the grid, but the triangle is no face of it
        across = triangle_chain()
        for T, match in ((off_grid, "vertex"), (across, "simplex")):
            with pytest.raises(ValueError, match=match):
                _loop_chain_vector(comp, T)
            with pytest.raises(ValueError, match=match):
                comp.chain_vector(T)

    @pytest.mark.parametrize("r,n", _MERGE_SHAPES)
    def test_json_of_moved_chains(self, r, n):
        rng = np.random.default_rng(400 + 10 * r + n)
        chains = [_random_chain(rng, r, n),
                  Chain(np.zeros((0, r + 1, n)), [])]
        for scale in _SCALES:
            T = _skeleton_chain(rng, r, n, scale)
            chains += [T, _with_permuted_copy(rng, T), boundary(T)]
        for T in chains:
            assert json.dumps(T.to_json_obj()) == json.dumps(
                _loop_to_json_obj(T))

    def test_json_negative_zero_is_one_vertex(self):
        a = np.array([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        T = Chain([a, b], [1.0, -1.0])
        obj = T.to_json_obj()
        assert obj == _loop_to_json_obj(T)
        assert len(obj["vertex_table"]) == 4
        assert np.signbit(obj["vertex_table"][0][0])

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_lattice_rule_is_scale_free(self, scale):
        # a chain whose vertices are within a fraction of a cell width of
        # the grid, at any scale, lands on the grid; one farther off does not
        comp = freudenthal_complex([-scale] * 2, [scale] * 2, 4)
        T = comp.simplex_chain(1, np.ones(comp.n_simplices(1)))
        verts, mults = T.stacked()
        h = scale / 2
        near = Chain(verts + 1e-8 * h, mults)
        assert _bits(comp.chain_vector(near)) == _bits(comp.chain_vector(T))
        far = Chain(verts + 1e-4 * h, mults)
        with pytest.raises(ValueError, match="not in complex"):
            comp.chain_vector(far)


@pytest.mark.parametrize("scale", [1e-8, 1e5, 1e7])
def test_scale_probe_boundary_of_pushed_square(scale):
    """Push the unit square by random affine maps of scale s, subdivide 3
    levels: the boundary has 4 * 2^3 = 32 faces at any scale."""
    rng = np.random.default_rng(0)
    faces = []
    for _ in range(10):
        f = LipMap.affine(scale * (rng.standard_normal((2, 2))
                                   + 2.0 * np.eye(2)),
                          scale * rng.standard_normal(2))
        pushed = pushforward_chain(f, unit_square_chain()).subdivided(3)
        faces.append(len(boundary(pushed)))
    assert faces == [32] * 10


@pytest.mark.parametrize("scale", [1.0, 1e5])
def test_boundary_of_pushed_jittered_mesh(scale):
    """A mesh with non-dyadic vertices, pushed by a non-dyadic affine map
    and by a curved one, then subdivided: its boundary is exactly the
    subdivided push of the mesh's outer faces, bit for bit."""
    rng = np.random.default_rng(11)
    comp = freudenthal_complex([0.0, 0.0], [1.0, 1.0], 4)
    verts = comp.vertices.copy()
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[inner] += rng.uniform(-0.05, 0.05, size=(inner.sum(), 2))
    tops = comp.simplices[2]
    mesh = SimplicialComplex(verts * scale / 3.0, tops,
                             [comp.orientation[2][s] for s in tops]
                             ).full_chain()
    maps = [LipMap.affine(rng.standard_normal((2, 2)) + 2.0 * np.eye(2),
                          scale * rng.standard_normal(2)),
            radial_stretch(2, 0.3 / scale ** 2)]
    for f in maps:
        for levels in (0, 2):
            pushed = pushforward_chain(f, mesh).subdivided(levels)
            outer = pushforward_chain(f, boundary(mesh)).subdivided(levels)
            bt = boundary(pushed)
            assert len(bt) == 16 * 2 ** levels
            assert len((bt - outer).simplify()) == 0
