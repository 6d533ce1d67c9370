"""Exterior algebra: wedge, contraction, mass, comass."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currentkit.exterior import (CoVector, MultiVector, _comass_rows,
                                 _skew, _wedge_terms, basis_rank, comass,
                                 contract_rows,
                                 frame_to_multivector, mass, multi_indices,
                                 pair, sort_parity, wedge, wedge_rows)
from oracles import perm_sign, wedge_terms


def _rand_mv(r, n, rng):
    return MultiVector(r, n, rng.standard_normal(len(multi_indices(r, n))))


def _rand_cov(r, n, rng):
    return CoVector(r, n, rng.standard_normal(len(multi_indices(r, n))))


class TestBasis:
    def test_multi_indices_lexicographic(self):
        assert multi_indices(2, 3) == ((0, 1), (0, 2), (1, 2))
        assert multi_indices(0, 3) == ((),)

    def test_basis_rank_inverse(self):
        for n in range(1, 5):
            for r in range(n + 1):
                for k, idx in enumerate(multi_indices(r, n)):
                    assert basis_rank(idx, n) == k

    def test_degree_and_component_count(self):
        mv = MultiVector.zero(2, 4)
        assert mv.degree == 2
        assert len(mv.coefficients) == 6

    def test_coefficients_read_only(self):
        mv = MultiVector.basis((0, 1), 3)
        with pytest.raises(ValueError):
            mv.coefficients[0] = 2.0


class TestParity:
    @pytest.mark.parametrize("k", range(6))
    def test_sort_parity_is_the_cycle_sign(self, k):
        perms = list(permutations(range(k)))
        perm, parity = sort_parity(np.array(perms).reshape(len(perms), k))
        assert parity.tolist() == [perm_sign(p) for p in perms]
        # sorting a permutation's rows undoes it: the inverse, same parity
        assert all(p[q] == i for p, row in zip(perms, perm.tolist())
                   for i, q in enumerate(row))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wedge_terms_match_the_merge_loop(self, n):
        for p in range(n + 1):
            for q in range(n + 1 - p):
                assert _wedge_terms(p, q, n) == wedge_terms(p, q, n)


class TestWedge:
    def test_spec_example_dx_dy(self):
        # dx ^ dy = dx^dy; dy ^ dx = -dx^dy
        dx = CoVector.dx((0,), 2)
        dy = CoVector.dx((1,), 2)
        assert wedge(dx, dy).coefficients[0] == 1.0
        assert wedge(dy, dx).coefficients[0] == -1.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_antisymmetry_of_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a, b = _rand_mv(1, n, rng), _rand_mv(1, n, rng)
        left = wedge(a, b)
        right = wedge(b, a)
        np.testing.assert_allclose(left.coefficients, -right.coefficients,
                                   atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a, b, c = (_rand_mv(1, n, rng) for _ in range(3))
        s = float(rng.standard_normal())
        lhs = wedge(a + b * s, c)
        rhs = wedge(a, c) + wedge(b, c) * s
        np.testing.assert_allclose(lhs.coefficients, rhs.coefficients,
                                   atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        n = 4
        a, b, c = (_rand_mv(1, n, rng) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        np.testing.assert_allclose(lhs.coefficients, rhs.coefficients,
                                   atol=1e-12)

    def test_self_wedge_vanishes(self):
        rng = np.random.default_rng(3)
        a = _rand_mv(1, 3, rng)
        np.testing.assert_allclose(wedge(a, a).coefficients, 0.0, atol=1e-12)

    def test_degree_overflow_raises(self):
        a = MultiVector.basis((0, 1), 3)
        b = MultiVector.basis((1, 2), 3)
        with pytest.raises(ValueError):
            wedge(a, b)


def _contract(omega: CoVector, v) -> CoVector:
    """omega -| v by `contract_rows` on one row."""
    r, n = omega.degree, omega.ambient
    return CoVector(r - 1, n, contract_rows(omega.coefficients[None],
                                            v[None], r)[0])


class TestContractRows:
    # the front-slot convention is checked on forms, in test_forms.py
    def test_adjoint_to_wedge(self):
        # pair(omega -| v, xi) == pair(omega, v ^ xi)
        rng = np.random.default_rng(11)
        for n, r in [(3, 2), (4, 2), (4, 3)]:
            omega = _rand_cov(r, n, rng)
            v = rng.standard_normal(n)
            xi = _rand_mv(r - 1, n, rng)
            lhs = pair(_contract(omega, v), xi)
            rhs = pair(omega, wedge(MultiVector.from_vector(v), xi))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_double_contraction_vanishes(self):
        rng = np.random.default_rng(5)
        omega = _rand_cov(2, 4, rng)
        v = rng.standard_normal(4)
        twice = _contract(_contract(omega, v), v)
        np.testing.assert_allclose(twice.coefficients, 0.0, atol=1e-12)


class TestMassComass:
    def test_mass_is_euclidean_norm(self):
        mv = MultiVector(2, 4, [3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        assert mass(mv) == pytest.approx(5.0)

    def test_comass_degree_one_equals_mass(self):
        rng = np.random.default_rng(0)
        omega = _rand_cov(1, 4, rng)
        value, witness = comass(omega)
        assert value == pytest.approx(mass(omega), abs=1e-12)
        assert mass(witness) == pytest.approx(1.0, abs=1e-10)

    def test_comass_top_degree(self):
        omega = CoVector(2, 2, [2.5])
        value, _ = comass(omega)
        assert value == pytest.approx(2.5)

    def test_comass_codegree_one(self):
        rng = np.random.default_rng(1)
        omega = _rand_cov(2, 3, rng)
        value, _ = comass(omega)
        assert value == pytest.approx(mass(omega), abs=1e-12)

    def test_comass_simple_form_middle_degree(self):
        # dx0^dx1 in R^4 is simple: comass 1
        omega = CoVector.dx((0, 1), 4)
        value, witness = comass(omega)
        assert value == pytest.approx(1.0, rel=1e-15)
        assert pair(omega, witness) == pytest.approx(value, rel=1e-15)

    def test_comass_nonsimple_form(self):
        # dx0^dx1 + dx2^dx3 in R^4: comass 1, Euclidean norm sqrt(2); the
        # mass of the non-simple e0^e1 + e2^e3 is 2, and `mass` reads sqrt(2)
        omega = (CoVector.dx((0, 1), 4) + CoVector.dx((2, 3), 4))
        value, _ = comass(omega)
        assert value == 1.0
        assert mass(omega) == pytest.approx(np.sqrt(2.0))

    def test_comass_witness_attains(self):
        rng = np.random.default_rng(9)
        omega = _rand_cov(2, 4, rng)
        value, witness = comass(omega)
        assert pair(omega, witness) == pytest.approx(value, rel=1e-12)
        assert value <= mass(omega) + 1e-9

    def test_comass_degree_zero(self):
        omega = CoVector(0, 3, [-4.0])
        value, _ = comass(omega)
        assert value == pytest.approx(4.0)

    def test_comass_is_scale_free(self):
        # comass(s omega) = s comass(omega) and |s omega| = s |omega| at any
        # s, including where every square under- or overflows; the witness
        # stays a unit simple r-vector
        for n, r in ((4, 2), (3, 1), (3, 2), (2, 0)):
            omega = _rand_cov(r, n, np.random.default_rng(5))
            unit, _ = comass(omega)
            for s in (1e-200, 1e-13, 1e-11, 1e-9, 1e-8, 1e-3, 1e4, 1e8,
                      1e200):
                value, witness = comass(omega * s)
                assert value == pytest.approx(s * unit, rel=1e-12)
                assert mass(omega * s) == pytest.approx(s * mass(omega),
                                                        rel=1e-12)
                assert mass(witness) == pytest.approx(1.0, abs=1e-12)
                assert pair(omega * s, witness) == pytest.approx(value,
                                                                 rel=1e-12)
            zero, witness = comass(omega * 0.0)
            assert zero == 0.0 and not np.any(witness.coefficients)

    @pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (5, 3), (6, 2),
                                      (6, 4)])
    def test_comass_is_exact(self, n, r):
        # for 50 random covectors: the witness is a unit simple r-vector
        # that attains the value, and no sampled orthonormal frame beats it
        rng = np.random.default_rng(10 * n + r)
        frames = np.linalg.qr(rng.standard_normal((400, n, r)))[0]
        simple = wedge_rows(np.swapaxes(frames, 1, 2))
        basis = np.eye(n)
        for _ in range(50):
            omega = _rand_cov(r, n, rng)
            value, witness = comass(omega)
            assert pair(omega, witness) == pytest.approx(value, rel=1e-12)
            # v -> v ^ xi has singular values 1 (n-r times) and 0 (r times)
            # exactly when xi is a unit simple r-vector
            wedges = np.array([wedge(MultiVector.from_vector(e),
                                     witness).coefficients for e in basis])
            np.testing.assert_allclose(
                np.linalg.svd(wedges, compute_uv=False),
                [1.0] * (n - r) + [0.0] * r, rtol=0, atol=1e-12)
            assert np.max(np.abs(simple @ omega.coefficients)) <= value * (
                1.0 + 1e-12)
            if r == 2:
                top = np.max(np.abs(np.linalg.eigvals(
                    _skew(omega.coefficients[None], n)[0]).imag))
                assert value == pytest.approx(top, rel=1e-12)

    @pytest.mark.parametrize("n, r", [(6, 3), (7, 3), (7, 4)])
    def test_comass_raises_between_the_closed_forms(self, n, r):
        # at 3 <= r <= n-3 no witness attains the Euclidean upper bound
        omega = _rand_cov(r, n, np.random.default_rng(n + r))
        with pytest.raises(ValueError, match=f"{r}-covector in R\\^{n}"):
            comass(omega)
        rows = _comass_rows(omega.coefficients[None], r, n)
        assert rows[0] == np.linalg.norm(omega.coefficients)


class TestFrames:
    def test_frame_to_multivector_unit_square(self):
        frame = np.array([[1.0, 0.0], [0.0, 1.0]])
        mv = frame_to_multivector(frame)
        np.testing.assert_allclose(mv.coefficients, [1.0])

    def test_frame_mass_is_parallelotope_volume(self):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal((4, 2))
        gram = frame.T @ frame
        vol = np.sqrt(np.linalg.det(gram))
        assert mass(frame_to_multivector(frame)) == pytest.approx(vol)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_wedge_rows_is_the_chained_wedge_bit_for_bit(self, n):
        # entries 0.0 and -0.0, whose terms `wedge` skips and `wedge_rows`
        # adds, among random ones, at every r <= n
        rng = np.random.default_rng(n)
        for r in range(n + 1):
            rows = rng.standard_normal((60, r, n))
            rows[rng.random(rows.shape) < 0.25] = 0.0
            rows[rng.random(rows.shape) < 0.25] = -0.0
            for frame, got in zip(rows, wedge_rows(rows)):
                want = (MultiVector.from_vector(frame[0]) if r
                        else MultiVector(0, n, np.ones(1)))
                for row in frame[1:]:
                    want = wedge(want, MultiVector.from_vector(row))
                assert got.tobytes() == want.coefficients.tobytes()
                assert frame_to_multivector(frame.T).coefficients.tobytes() \
                    == got.tobytes()
